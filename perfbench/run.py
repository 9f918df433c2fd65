#!/usr/bin/env python3
"""seatlot benchmark: three seeded workloads, checked outputs, a traced split.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload census_apportion --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
replays a fixed list of ops, first plain and then with every layer's entry
points wrapped (see ``spans.py``), and reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The process exits with 2, printing no result, when ``src/seatlot`` is
missing next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_MS, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(HERE.name) / ".work"   # relative to ROOT: paths are printed
OUTDIR = HERE / "out"
WORKLOAD_NAMES = ("census_apportion", "lab_replicates", "divisor_houses")
SETUP_REPEATS = 5
SETUP_REFERENCES = 5     # reference samples before each set-up
REFERENCE_SHARE = 0.15   # of the wall time, against 1.0 for the phases

# (name, unit) of the end-to-end slots every workload reports.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"),
              ("throughput_per_s", "1/s"), ("heavy_p50_ms", "ms")]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> tuple[float, float]:
    """Import seatlot from ``ROOT/src``; return its start and duration."""
    src = ROOT / "src"
    if not (src / "seatlot" / "__init__.py").is_file():
        fail(f"no seatlot package under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import seatlot
    elapsed = perf_counter() - start
    if Path(seatlot.__file__).resolve().parent != src / "seatlot":
        fail(f"imported seatlot from {seatlot.__file__}")
    return start, elapsed


def git_commit() -> str:
    """HEAD read from ``.git`` without running git; "unknown" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class PhaseStats:
    def __init__(self, cycle=1):
        self.cycle = cycle
        self.starts = []
        self.durations = []
        self.kinds = []
        self.work = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.rendered = 0
        self.digest = hashlib.sha256()
        self.replays = {}

    def cycle_p50(self, kind=None):
        """Median over whole cycles of the mean time of the cycle's ops (of
        ``kind`` only, if given), so a mix of cheap and costly ops cannot
        put the median between them."""
        c = self.cycle
        whole = len(self.durations) - len(self.durations) % c
        means = []
        for i in range(0, whole, c):
            picked = [d for d, k in zip(self.durations[i:i + c],
                                        self.kinds[i:i + c])
                      if kind is None or k == kind]
            means.append(sum(picked) / len(picked))
        return statistics.median(means)

    def rate(self):
        """Work per second of wall time spent in the phase's ops."""
        return self.work / self.busy_s


def run_op(phase, k, stats, record=True, tracer=None):
    op = phase.make(k)
    if tracer is not None:
        tracer.op = f"{phase.name}/{k}"
    start = perf_counter()
    try:
        result = op.run()
    except Exception:
        elapsed = perf_counter() - start
        traceback.print_exc()
        result, ok = None, False
    else:
        elapsed = perf_counter() - start
        try:
            ok = bool(op.check(result))
        except Exception:
            traceback.print_exc()
            ok = False
    stats.attempted += 1
    stats.failed += not ok
    if tracer is not None:
        tracer.op_s += elapsed
        tracer.ops += 1
    if not record:
        return
    stats.starts.append(start)
    stats.durations.append(elapsed)
    stats.kinds.append(op.kind)
    stats.work += op.work
    if ok and op.rendered is not None:
        stats.rendered += op.rendered(result)
    if ok and 0 <= k < phase.trace_ops:
        stats.digest.update(f"{phase.name}/{k}\n".encode())
        stats.digest.update(op.canon(result))
    if ok and phase.replay_every and k % phase.replay_every == 0:
        stats.replays[k] = op.canon(result)


def run_interleaved(phases, seconds, speed):
    """Ops 0, 1, ... of every phase, interleaved so that each phase gets its
    share of the wall time and its samples span the whole run (the speed of
    a shared machine drifts over seconds), with ``speed``'s reference job
    taking its own share.  A phase stops once ``seconds`` have passed, it
    has run ``min_ops`` ops and it has finished a cycle."""
    stats = {p.name: PhaseStats(p.cycle) for p in phases}
    spent = {p.name: 0.0 for p in phases}
    reference_spent = 0.0
    start = perf_counter()

    def finished(p):
        k = stats[p.name].attempted
        return (k >= p.min_ops and k % p.cycle == 0
                and perf_counter() - start >= seconds)

    while True:
        waiting = [p for p in phases if not finished(p)]
        if not waiting:
            return stats
        phase = min(waiting, key=lambda p: spent[p.name] / p.share)
        if reference_spent / REFERENCE_SHARE < spent[phase.name] / phase.share:
            reference_spent += speed.sample()
            continue
        t0 = perf_counter()
        run_op(phase, stats[phase.name].attempted, stats[phase.name])
        spent[phase.name] += perf_counter() - t0


def warm_up(wl):
    scratch = PhaseStats()
    for phase in wl.phases:
        for k in range(-phase.warm_ops, 0):
            run_op(phase, k, scratch, record=False)
    return scratch


def replay(wl, stats):
    """Rerun the sampled ops with their seeds; a stdout difference fails
    the op."""
    for phase in wl.phases:
        st = stats[phase.name]
        for k, canon in st.replays.items():
            op = phase.make(k)
            try:
                same = op.canon(op.run()) == canon
            except Exception:
                traceback.print_exc()
                same = False
            st.failed += not same


def p99(values):
    """Nearest-rank p99 and the number of samples above it."""
    ordered = sorted(values)
    rank = -(-len(ordered) * 99 // 100)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(wl, stats, setup_s):
    op_p50 = stats[wl.latency].cycle_p50(wl.latency_kind) / wl.latency_work
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": 1000 * op_p50,
        "throughput_per_s": stats[wl.throughput].rate(),
        "heavy_p50_ms": 1000 * stats[wl.heavy].cycle_p50(wl.heavy_kind),
    }


def measure(name, seed, seconds, import_run):
    """End-to-end metrics; every time is scaled to reference speed (see
    ``speed.py``)."""
    import workloads

    speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_REFERENCES):
            speed.sample()
        start = perf_counter()
        wl = workloads.WORKLOADS[name](seed, WORKDIR)
        warm = warm_up(wl)
        setups.append((start, perf_counter() - start))
    stats = run_interleaved(wl.phases, seconds, speed)
    replay(wl, stats)
    for st in stats.values():
        # A rate counts the short stalls a busy machine adds to ops, a p50
        # mostly skips them; scale each by the reference's figure of the
        # same kind.
        raw = list(zip(st.starts, st.durations))
        st.busy_s = sum(speed.scale(s, d, statistics.fmean) for s, d in raw)
        st.durations = [speed.scale(s, d) for s, d in raw]
    setup_s = (speed.scale(*import_run)
               + statistics.median(speed.scale(*run) for run in setups))
    values = end_to_end(wl, stats, setup_s)
    units = dict(END_TO_END)
    rate_names = {p.name: p.rate_name for p in wl.phases}
    aliases = {**wl.aliases, "throughput_per_s": rate_names[wl.throughput]}
    for slot, value in values.items():
        label = aliases.get(slot, slot)
        print(f"metric {label} = {value:.6g} {units[slot]}"
              + (f"  [{slot}]" if label != slot else ""))
    # Reported, not bounded: their run-to-run spread follows the machine.
    latency = [d / wl.latency_work for d in stats[wl.latency].durations]
    tail, beyond = p99(latency)
    print(f"metric {wl.aliases['op_p99_ms']} = {1000 * tail:.6g} ms  "
          f"[{len(latency)} samples, {beyond} beyond]")
    for phase in wl.phases:
        if phase.name != wl.throughput:
            print(f"metric {phase.rate_name} = "
                  f"{stats[phase.name].rate():.6g} 1/s")
    reference_ms = 1000 * statistics.median(speed.durations)
    print(f"reference_ms = {reference_ms:.6g} ms  [measured; times above "
          f"are scaled to {REFERENCE_MS} ms]")
    metrics = {slot: {"value": values[slot], "unit": unit}
               for slot, unit in END_TO_END}
    return wl, stats, [warm], metrics, {
        "setup_runs_s": [d for _, d in setups],
        "reference_ms": reference_ms,
        "reference_samples": len(speed.durations)}


def measure_traced(name, seed):
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORKDIR)
    warm = warm_up(wl)
    plain = {p.name: PhaseStats(p.cycle) for p in wl.phases}
    stats = {p.name: PhaseStats(p.cycle) for p in wl.phases}
    tracer = spans.Tracer()
    for phase in wl.phases:
        for k in range(phase.trace_ops):
            # Each op runs plain, then traced, so a drift in machine speed
            # hits both sides of trace.overhead_ratio alike.
            run_op(phase, k, plain[phase.name])
            tracer.install()
            try:
                run_op(phase, k, stats[phase.name], tracer=tracer)
            finally:
                tracer.uninstall()
    replay(wl, stats)
    untraced_s = sum(sum(st.durations) for st in plain.values())
    rendered = sum(st.rendered for st in stats.values())
    parity = PhaseStats()   # each compiled kernel call is an op
    parity.attempted = len(tracer.compiled_log)
    parity.failed = tracer.parity_mismatches()
    metrics = tracer.metrics(untraced_s, rendered, parity.failed)
    OUTDIR.mkdir(exist_ok=True)
    trace_file = OUTDIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(trace_file)
    for metric, entry in metrics.items():
        print(f"metric {metric} = {entry['value']:.6g} {entry['unit']}")
    return wl, stats, [warm, parity, *plain.values()], metrics, {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(tracer.spans)}


def run_workload(args):
    import_run = import_package()
    os.chdir(ROOT)
    import seatlot

    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            wl, stats, extra, metrics, meta = measure_traced(
                args.workload, args.seed)
        else:
            wl, stats, extra, metrics, meta = measure(
                args.workload, args.seed, args.seconds, import_run)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    everything = list(stats.values()) + extra
    attempted = sum(st.attempted for st in everything)
    failed = sum(st.failed for st in everything)
    digest = hashlib.sha256()
    for st in stats.values():
        digest.update(st.digest.digest())
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio")
    print("meta " + json.dumps({
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": seatlot.kernel_backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "ops": {name: len(st.durations) for name, st in stats.items()},
        "replayed": sum(len(st.replays) for st in stats.values()),
        "replay_digest": digest.hexdigest(),
        **meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process; the last line merges their results
    under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
