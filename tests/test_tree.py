"""Checks on the package source tree itself."""

import ast
import json
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seatlot"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# ``seatlot.__all__`` as it stood when the package imported every module
# eagerly; the lazy package keeps it name for name.
PUBLIC_NAMES = [
    "AdjustedQuota", "Allocation", "AllocationDistribution",
    "ApportionmentError", "CapacityError", "ConvergenceError",
    "DETERMINISTIC_METHODS", "DivisorRule", "InfeasibleError", "InputError",
    "IterationTrace", "MonotonicityReport", "ParadoxReport", "Problem",
    "ProblemPair", "QuotaVector", "RULES", "ScaledQuota", "SeededSource",
    "SimulationReport", "StateClassification", "ViolationBound",
    "adjusted_quota_from_values", "broadcast_lower_bound", "child_seed",
    "classify", "compute_quota", "conditional_sampling_allocate",
    "conditional_selection_law", "core", "detect_alabama",
    "detect_new_state_paradox", "detect_population_paradox", "divisor",
    "divisor_apportion", "empirical_distribution",
    "equal_representation_quota", "errors", "exact_distribution",
    "fairness_test", "feasible_with_lower_bound", "hamilton_apportion",
    "house_increase_pair", "iterate_lower_bound", "kernel_backend",
    "lambda_allocation", "lower_bound_apportion", "lower_bound_distribution",
    "lowerbound", "monotonicity_scan", "montecarlo", "population_move_pair",
    "problem", "quota_staying_check", "quota_vector", "random_permutation",
    "random_problem", "resample_conditional_law", "resample_until_quota",
    "residual_distribution", "resolve_method", "rng", "satisfies_quota",
    "scaled_fractional_quota", "simulate", "stochastic",
    "stochastic_apportion", "stochastic_dominance", "systematic_round",
    "violation_probability_bound",
]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") \
        == ["os (line 1)", "b (line 2)"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_functions(module: str, sources: dict) -> list[str]:
    """Top-level functions of ``sources[module]`` that no source names
    outside their own ``def``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = [node for node in trees[module].body
            if isinstance(node, ast.FunctionDef)]

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.ImportFrom):
                yield from (alias.name for alias in sub.names)

    used = set()
    for name, tree in trees.items():
        for node in tree.body:
            # a call from another function counts; recursion does not
            own = node.name if node in defs else None
            used.update(n for n in names(node) if n != own)
    return [node.name for node in defs if node.name not in used]


def test_unreferenced_function_is_found():
    sources = {"k": "def a():\n    a()\n\ndef b():\n    pass\n\n"
                    "def c():\n    b()\n",
               "m": "from k import c\nimport k\nk.b\n"}
    assert unreferenced_functions("k", sources) == ["a"]
    assert unreferenced_functions("k", {"k": sources["k"]}) == ["a", "c"]


def test_every_function_is_used():
    # A function only the tests call is dead code in the package; a public
    # name is used by the package's export.  The exceptions are the compile
    # helper of the C tier, which the tests and the benchmarks call to build
    # the library, and the package's ``__getattr__``, which the interpreter
    # calls to resolve the public names.
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    unused = {module: [name for name in unreferenced_functions(module, sources)
                       if name not in PUBLIC_NAMES]
              for module in sources}
    assert {m: names for m, names in unused.items() if names} \
        == {"_kernels_c": ["build"], "__init__": ["__getattr__"]}


def int_constants(source: str) -> set:
    """Every integer literal in a module."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and type(node.value) is int}


def test_int_constants_are_found():
    assert int_constants("x = 0xFF\ny = f(1_0)\n'12'\n") == {255, 10}


def test_one_python_copy_of_the_mixer():
    # The SplitMix64 mixer is written once in Python, in rng.py; the other
    # modules draw through it.
    holders = [p.name for p in PACKAGE.glob("*.py")
               if 0xBF58476D1CE4E5B9 in int_constants(
                   p.read_text(encoding="utf-8"))]
    assert holders == ["rng.py"]


def bool_checks(source: str) -> list[str]:
    """The top-level definitions of a module that call isinstance(x, bool)
    or isinstance(x, (..., bool, ...))."""
    def refuses_bool(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1])))

    return [top.name for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(refuses_bool(n) for n in ast.walk(top))]


def test_bool_checks_are_found():
    source = ("def a(x):\n    return isinstance(x, bool)\n"
              "class B:\n    def m(self, x):\n"
              "        return isinstance(x, (int, bool))\n"
              "def c(x):\n    return isinstance(x, int)\n")
    assert bool_checks(source) == ["a", "B"]


def test_one_integer_check():
    # Integer arguments are checked once, by core.check_integers; rng.py
    # keeps its own check, as randbelow raises TypeError, not InputError.
    holders = {p.name: bool_checks(p.read_text(encoding="utf-8"))
               for p in PACKAGE.glob("*.py")}
    assert {name: tops for name, tops in holders.items() if tops} == {
        "core.py": ["check_integers"], "rng.py": ["SeededSource"]}


def holders(source: str, found) -> list[str]:
    """The top-level definitions of a module in which ``found(node)`` holds
    for some node."""
    return [top.name for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and any(found(n) for n in ast.walk(top))]


def calls_to(name):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def text(part):
    return lambda node: (isinstance(node, ast.Constant)
                         and isinstance(node.value, str) and part in node.value)


def starts(head):
    return lambda node: (isinstance(node, ast.Constant)
                         and isinstance(node.value, str)
                         and node.value.startswith(head))


def test_holders_are_found():
    source = ("def a():\n    return X(1)\n"
              "def b():\n    return f'ab {1}'\n"
              "def c():\n    return X\n"
              "class D:\n    def m(self):\n        return X()\n")
    assert holders(source, calls_to("X")) == ["a", "D"]
    assert holders(source, text("ab")) == ["b"]
    assert holders(source, starts("b")) == []


@pytest.mark.parametrize("found, holder", [
    (calls_to("AdjustedQuota"), ("lowerbound", "_adjusted")),
    (text("fractional quotas must sum to an integer"),
     ("stochastic", "_integral_quota")),
    (text("quota values must be non-negative"), ("core", "quota_vector")),
    (text("distinct states from"), ("stochastic", "_conditional_weights")),
    (text("lower-bound vector and state list differ in length"),
     ("core", "broadcast_lower_bound")),
    (text("unknown divisor rule"), ("divisor", "_rule")),
    (text("cannot print a number of more than"),
     ("errors", "_digit_limit_error")),
    (starts("expected a "), ("core", "_instance")),
    (text("state index"), ("core", "_state_index")),
    (text("quota numerators must lie below the denominator"),
     ("core", "QuotaVector")),
    (text("report seat sums and sums of squares must be tuples"),
     ("montecarlo", "SimulationReport")),
    (text("adjusted values must be exact rationals"),
     ("lowerbound", "AdjustedQuota"))],
    ids=["builder", "integral-total", "non-negative-quota", "distinct-states",
         "bound-length", "rule-reader", "digit-limit", "type-reader",
         "state-index-reader", "quota-record", "report-record",
         "adjusted-record"])
def test_one_builder_and_one_integral_check(found, holder):
    # The adjusted quota is built, scheme input checked for an integral
    # fractional total, a quota value refused for its sign, a conditioned
    # draw refused for more winners than states, lower bounds read, a
    # divisor rule read, a number past the digit limit refused, and an
    # argument of the wrong type ("expected a Problem") and a state index
    # read by the reader table, in one function each.  A quota vector, a
    # report and an adjusted quota check their fields in their own class.
    assert [(p.stem, name) for p in PACKAGE.glob("*.py")
            for name in holders(p.read_text(encoding="utf-8"), found)] \
        == [holder]


@pytest.mark.parametrize("record, callers", [
    ("Allocation", []), ("SimulationReport", []),
    ("Problem", [("cli", "_problem_from_args"), ("cli", "cmd_paradox_scan"),
                 ("core", "problem")])],
    ids=["allocation", "report", "problem"])
def test_derived_records_are_built_unchecked(record, callers):
    # The library builds the records it derives through core._derived.  A
    # checked constructor runs only in problem(), on a caller's values, and
    # in the command line.
    assert [(p.stem, name) for p in sorted(PACKAGE.glob("*.py"))
            for name in holders(p.read_text(encoding="utf-8"),
                                calls_to(record))] == callers


def stores_on_self(node) -> bool:
    """An assignment target ``self.<name>``: state kept on an instance."""
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_stores_on_self_are_found():
    source = ("class A:\n    def __init__(self):\n        self.x = 1\n"
              "class B:\n    def m(self):\n        self.n += 1\n"
              "class C:\n    def m(self):\n        return self.x\n"
              "class D:\n    def m(self, other):\n        other.x = 1\n")
    assert holders(source, stores_on_self) == ["A", "B"]


def test_the_divisor_core_keeps_no_state():
    # The divisor core runs on plain populations: no class of divisor.py
    # keeps state between calls, as a per-census cache did.
    assert holders((PACKAGE / "divisor.py").read_text(encoding="utf-8"),
                   stores_on_self) == []


def takers(source: str, parameter: str) -> list[str]:
    """The functions of a module, at any depth, with a parameter named
    ``parameter``."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and parameter in [a.arg for a in (*node.args.posonlyargs,
                                              *node.args.args,
                                              *node.args.kwonlyargs)]]


def test_takers_are_found():
    source = ("def a(x, fix):\n    pass\n"
              "class B:\n    def m(self, *, fix=True):\n        pass\n"
              "def c(x):\n    fix = x\n    return fix\n")
    assert takers(source, "fix") == ["a", "m"]


def test_one_place_counts_all_orderings():
    # Both kernel tiers sum over the orderings that pin the last state; the
    # dispatcher alone scales that sum to all s! orderings.
    found = {p.stem: takers(p.read_text(encoding="utf-8"), "fix_last")
             for p in PACKAGE.glob("*.py")}
    assert {m: names for m, names in found.items() if names} == {
        "_backend": ["averaged_mask_lengths"]}
    assert "fix_last" not in (PACKAGE / "_kernels_native.c").read_text(
        encoding="utf-8")


def assigned(source: str, name: str) -> list:
    """The values of the module-level assignments ``name = <int>``."""
    return [top.value.value for top in ast.parse(source).body
            if isinstance(top, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name
                    for t in top.targets)
            and isinstance(top.value, ast.Constant)]


def test_assignments_are_found():
    assert assigned("A = 3\nB = 4\ndef f():\n    A = 5\nA = 6\n", "A") \
        == [3, 6]


def test_one_mask_width():
    # The winner-mask width is written once in Python, in the reference
    # tier, and the C tier's #define agrees with it.
    widths = {p.stem: assigned(p.read_text(encoding="utf-8"),
                               "MAX_MASK_STATES")
              for p in PACKAGE.glob("*.py")}
    widths = {m: values for m, values in widths.items() if values}
    assert list(widths) == ["_kernels_py"] and len(widths["_kernels_py"]) == 1
    defines = re.findall(r"^#define MAX_MASK_STATES (\d+)\b",
                         (PACKAGE / "_kernels_native.c").read_text(
                             encoding="utf-8"), re.M)
    assert [int(d) for d in defines] == widths["_kernels_py"]


def reads_byte_order(source: str) -> bool:
    """Whether a module reads ``sys.byteorder`` or swaps an array's bytes."""
    return any(isinstance(n, ast.Attribute)
               and n.attr in ("byteorder", "byteswap")
               for n in ast.walk(ast.parse(source)))


def test_byte_order_readers_are_found():
    assert reads_byte_order("import sys\nBIG = sys.byteorder == 'big'\n")
    assert reads_byte_order("def f(a):\n    a.byteswap()\n")
    assert not reads_byte_order("ORDER = 'little'\n")


def test_one_lane_reader():
    # Packed lanes are read back by rng._unpack_lanes alone, so the host's
    # byte order is read and corrected in rng.py only.
    assert [p.name for p in PACKAGE.glob("*.py")
            if reads_byte_order(p.read_text(encoding="utf-8"))] == ["rng.py"]


def constant_assignments(source: str) -> list:
    """The values of the assignments of a module, at any depth, whose right
    side is arithmetic on literals."""
    def literal(node):
        return all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp,
                                  ast.operator, ast.unaryop))
                   for n in ast.walk(node))

    return [eval(compile(ast.Expression(node.value), "<constant>", "eval"),
                 {"__builtins__": {}})
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign) and literal(node.value)]


def test_constant_assignments_are_found():
    source = ("A = (1 << 4) - 1\ndef f(x):\n    b = 2 ** 3\n    c = x + 1\n"
              "D = -'ab'.count('a')\nE = 'x'\n")
    assert constant_assignments(source) == [15, "x", 8]


def test_one_copy_of_the_stream_constants():
    # The 64-bit mask and the 2**53 grid of the offsets are assigned once,
    # in rng.py; the kernels import them.
    stream = {(1 << 64) - 1, 1 << 53}
    found = {p.name: sorted(v for v in constant_assignments(
                 p.read_text(encoding="utf-8")) if v in stream)
             for p in PACKAGE.glob("*.py")}
    assert {name: values for name, values in found.items() if values} == {
        "rng.py": [1 << 53, (1 << 64) - 1]}


def function(source: str, name: str) -> ast.FunctionDef:
    """The top-level function ``name`` of a module."""
    return next(top for top in ast.parse(source).body
                if isinstance(top, ast.FunctionDef) and top.name == name)


def count(node, found) -> int:
    """The nodes under ``node``, itself included, for which ``found``
    holds."""
    return sum(1 for n in ast.walk(node) if found(n))


def test_counted_calls_are_found():
    source = ("def a(x):\n    while x:\n        x = F(x)\n    return F(1)\n"
              "def b():\n    return F\n")
    a, b = function(source, "a"), function(source, "b")
    loop = next(n for n in ast.walk(a) if isinstance(n, ast.While))
    assert [count(node, calls_to("F")) for node in (a, loop, b)] == [2, 1, 0]


def test_the_iteration_builds_one_fraction():
    # The lower-bound iteration works on integers: its one Fraction is each
    # round's scale, which the trace keeps.
    body = function((PACKAGE / "lowerbound.py").read_text(encoding="utf-8"),
                    "_iterate")
    loop = next(n for n in ast.walk(body) if isinstance(n, ast.While))
    assert [count(node, calls_to("Fraction")) for node in (body, loop)] == [1, 1]


def test_the_exact_law_builds_fractions_only_when_read():
    # The exact law stays in integers from the kernel to the distribution;
    # only the distribution's Fraction view and its marginals build
    # Fractions, one for each entry read.
    stochastic = (PACKAGE / "stochastic.py").read_text(encoding="utf-8")
    kernels = (PACKAGE / "_kernels_py.py").read_text(encoding="utf-8")
    assert count(function(stochastic, "_allocation_law"),
                 calls_to("Fraction")) == 0
    assert count(function(kernels, "averaged_mask_lengths"),
                 calls_to("Fraction")) == 0
    law = next(top for top in ast.parse(stochastic).body
               if isinstance(top, ast.ClassDef)
               and top.name == "AllocationDistribution")
    assert [m.name for m in law.body if isinstance(m, ast.FunctionDef)
            and count(m, calls_to("Fraction"))] == [
        "probabilities", "probability", "marginal_mean", "marginal_law"]


def sorts(node):
    """A call to a ``.sort`` method or to ``sorted``."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        or isinstance(node.func, ast.Name) and node.func.id == "sorted")


def adds_to_acc(node):
    """``acc[...] += ...``: a cell length added to an accumulator."""
    return (isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "acc")


def test_sorts_and_cell_adds_are_found():
    source = ("def a(k):\n    k.sort()\n"
              "def b(k):\n    return sorted(k)\n"
              "def c(acc):\n    acc[0] += 1\n"
              "def d(acc):\n    acc[0] = 1\n")
    assert holders(source, sorts) == ["a", "b"]
    assert holders(source, adds_to_acc) == ["c"]


def test_one_cell_sweep():
    # The pure tier sorts cut points and adds cell lengths in two places:
    # the one-ordering sweep and the prefix-set program of the averaged
    # law, so no second body of either grows beside them.
    source = (PACKAGE / "_kernels_py.py").read_text(encoding="utf-8")
    assert (holders(source, sorts) == holders(source, adds_to_acc)
            == ["_sweep", "averaged_mask_lengths"])


def module_caches(source: str) -> list[str]:
    """The top-level functions of a module decorated with
    ``functools.lru_cache`` or ``functools.cache``, however spelt."""
    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        return name in ("lru_cache", "cache")

    return [top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)
            and any(is_cache(d) for d in top.decorator_list)]


def test_module_caches_are_found():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=1)\ndef a():\n    pass\n"
              "@cache\ndef b():\n    pass\n"
              "@lru_cache\ndef c():\n    pass\n"
              "@functools.cached_property\ndef d():\n    pass\n"
              "class E:\n    @functools.cache\n    def m(self):\n"
              "        pass\n")
    assert module_caches(source) == ["a", "b", "c"]


def test_two_module_caches():
    # A module-level memo is hidden state with a hit path and a miss path.
    # Two remain: the prepared-scheme memo, which repeated single draws on
    # one problem rely on, and the shared argument parser.
    holders = {p.stem: module_caches(p.read_text(encoding="utf-8"))
               for p in PACKAGE.glob("*.py")}
    assert {m: names for m, names in holders.items() if names} == {
        "stochastic": ["_prepared"], "cli": ["build_parser"]}


def test_public_names_resolve_lazily(fresh_python):
    # ``import seatlot`` loads no submodule; every public name then
    # resolves, and is the object its module defines.
    proc = fresh_python("-c", (
        "import json, sys, seatlot\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('seatlot'))\n"
        "unresolved = [n for n in seatlot.__all__\n"
        "              if getattr(seatlot, n, None) is None]\n"
        "from seatlot import _backend, core, divisor\n"
        "same = [seatlot.Problem is core.Problem,\n"
        "        seatlot.RULES is divisor.RULES,\n"
        "        seatlot.kernel_backend == _backend.ACTIVE]\n"
        "print(json.dumps([loaded, seatlot.__all__, unresolved, same]))\n"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["seatlot"], PUBLIC_NAMES, [],
                                       [True, True, True]]
