"""Pinned fixtures: scan-discovered paradox witnesses and counterexample
instances.  Every witness here was found by the brute-force scans in the
test suite and is re-verified by the tests that use it, so a regression in
the methods cannot hide behind a stale fixture."""

from fractions import Fraction

# Largest-remainders loses a seat when the house grows: populations,
# house size before the extra seat, allocations before/after, losing state.
HAMILTON_ALABAMA = {
    "populations": (1, 3, 3),
    "house_before": 3,
    "seats_before": (1, 1, 1),
    "seats_after": (0, 2, 2),
    "loser": 0,
}

# Largest-remainders: every state grows, the fastest-growing of the pair
# loses a seat to the slower.  Found by seeded random search.
HAMILTON_POPULATION = {
    "populations_before": (26, 40, 21, 11),
    "populations_after": (38, 44, 28, 12),
    "seats": 14,
    "loser": 1,          # growth 44/40 = 11/10
    "gainer": 3,         # growth 12/11 < 11/10
}

# Largest-remainders: a new state joins with its fair share of extra seats,
# and two original states' allocations change.
HAMILTON_NEW_STATE = {
    "base_populations": (26, 24, 29, 17, 9),
    "base_seats": 6,
    "new_population": 29,
    "extra_seats": 2,
    "changed_states": (0, 4),
}

# Greatest-divisors awards a state more than its upper quota.
JEFFERSON_UPPER_QUOTA = {
    "populations": (2, 1, 1),
    "seats": 2,
    "allocation": (2, 0, 0),
    "violator": 0,
}

# Conditioned distinct-index sampling: selection probabilities drift from
# the fractional quotas (exact law computed by tuple enumeration).
CONDITIONAL_UNFAIR = {
    "fractional": (Fraction(9, 10), Fraction(9, 10), Fraction(1, 5)),
    "residual": 2,
    "selection_law": (Fraction(11, 13), Fraction(11, 13), Fraction(4, 13)),
}

# Rerun-until-quota on offender-bearing values: the accepted law is the
# point mass (3, 2), so conditional means differ from the values by 1/5.
RESAMPLE_UNFAIR = {
    "values": (Fraction(14, 5), Fraction(11, 5)),
    "original_floors": (3, 2),
    "original_ceilings": (4, 3),
    "conditional_means": (Fraction(3), Fraction(2)),
    "acceptance_probability": Fraction(4, 5),
}

# Published 1950/2000 offender rows: original quota, rescaled quota, and the
# gap below the lower quota.
TABLE_OFFENDER_PAIRS = [
    ("NewYork", Fraction("43.038"), Fraction("42.962"), Fraction("0.038")),
    ("Pennsylvania", Fraction("19.013"), Fraction("18.999"), Fraction("0.001")),
]

# Pinned inputs of the CLI output contract (``test_cli.py::test_cli_golden``):
# a 50-state census with five states below one seat of quota, an 8-state
# census, and two quota tables for ``bound-check``.
CENSUS_50 = tuple((f"S{i + 1:02d}", p) for i, p in enumerate((
    36109780, 9003064, 8058000, 5079288, 328811, 8619563, 4447650, 27304815,
    3220839, 8156219, 1823367, 3467323, 6374636, 156524, 19677232, 2660434,
    2255872, 6536794, 8296035, 1626227, 4700633, 30902494, 200778, 5557810,
    8124405, 1452087, 5940095, 4735762, 11810693, 5454908, 5616801, 529794,
    9306757, 7391441, 3303421, 28960486, 806946, 3372353, 4489596, 3971881,
    191609, 3225821, 21181177, 8058522, 1037132, 2359317, 999723, 4264743,
    1354737, 554611)))

CENSUS_8 = tuple((f"S{i + 1}", p) for i, p in enumerate((
    46391, 49469, 54972, 71334, 84395, 69742, 16722, 68305)))

# label,quota rows summing to 20 seats; with bound 1 the last state falls
# below its lower quota when the others are rescaled.
QUOTAS_RESCALE = "state,quota\nA,1/4\nB,0.5\nC,9/4\nD,7.95\nE,9.05\n"

# label,quota,adjusted rows of a published table.
QUOTAS_AUDIT = ("state,quota,adjusted\nNewYork,43.038,42.962\n"
                "Pennsylvania,19.013,18.999\nNevada,0.4,1\n")

# (exit code, sha256 of stdout, sha256 of stderr) of each run in
# ``test_cli.py::GOLDEN_RUNS``, recorded once and the same on both kernel
# backends.  A change here is a change to the CLI output contract.
CLI_GOLDEN = {
    'apportion-csv': (0, '7930b764f8c3cac89e8a52113cfe5a9506a1d7d4319f592fd3f714cfcbd56d6f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-csv-bound1': (0, '767e0f05e81d7da783381a6f8e131a79a827beaea023450f9a056cca07a4ba4d',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-json-lines': (0, 'dd6a6c0d2dc5f67d3930fc78837a2cc4f812962cd74e296ab3be83781f118db3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-json-lines-bound1': (0, 'c3ebe42811b47d588f67b95ffd16d7af033cc4111fba2ebc2db26de5ed0f19a3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-table': (0, 'ab927bf13bf7e3976db62c2477c68f7a862b44780b02b37cdeb5df7dde3ca272',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-table-bound1': (0, 'ce0fc8649f3c659055fc11a570ee55a2a5fd96ff05690f9176b8ef5a222f284b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-webster-bound1': (0, 'a40a450ea3e2f18e1101e54abaedb04881e782284bd689969cae207f93245149',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-adams-1e9': (0, '1ca173dc010035e020f1a5532303c3597f77ee980c3f6a7b031f11b8ba7e7741',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-dean-1e9': (0, '6e9d37ba20d406daa9b5f44727a4945788fd29288b71ea9bb2e49d91ae766da0',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-hill-1e9': (0, '92ba6437bf4ca3ac88070a5559b8aab04959fbee636f707670a4ea72bfa5700b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-webster-1e9': (0, '16d5d600c3d798cb0bae4bece86781bb29e87fa09ec5201c20c66da37fdb2be7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-jefferson-1e9': (0, '3df585e9926a8c6a7dbb05ce55f4a3537cad32611f06922b503749fc4135927f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-hill-1e5-bound1': (0, '394ca67ab224d8a1d7ff9d241d19505c45a7a5486338ed42750348da112ccae0',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bound-check-audit': (0, 'db6378be1ae8721f59b30353c9ef8d8a77094c7986848c9120f9a5bd49d32850',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'bound-check-rescale': (0, '4bf80782f79c5d9e3083ffabe5279973d839d42b89135719c4ef1b0a436f30a7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distribution-50-refused': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0fc4cfba0971fa76ee7cac3983383c9d41fc9bbf723a909cf94c0e881fc19fe2'),
    'distribution-8': (0, '54e16b9aaeca5b09287edc467d0fbab08aa4a3958464d65ca16e57ea6388e625',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'distribution-8-bound1': (0, 'edb793b70268736187b0fc1f003976a1fa7687811a756c883e64a4acc733f16f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'simulate': (0, '0a19c26a31b45049fb6ed91cca5a83b7a74e80a8a5b0002e161db3f0ac37b22f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'simulate-bound1': (0, '26bc36b879667ef58cd71f72236c00d9b9fce841b987b7e39b08fe1c1a6f9672',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'table1': (0, '925852ce3c053bf7c50ff1f094a528f67ac266fab63353b4108406178b23ec04',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-hamilton': (0, '56bc087dbd2c92a008e5c2fd08b7849245d1284570dfd9423ab1f36b2938d464',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-webster': (0, '46fe7ad696443a926be56fe04b7515e04da1778f095466411781fed9b4b92393',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-adams': (0, '8706a24fa17c84f8d0a6096121470829ddad926fdb858470537c75afd37a3908',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-dean': (0, 'aed74648288b486bc09385cb782279ac9c94bb1fc7c917c1b1591bc13958855c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-jefferson': (0, '3f7da68c603ace3f7c1bc065c2f48df52189b581647e5beecc0dc2ae2e3645cc',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-hamilton-wide': (0, 'dec009f0746181d0bfe6bc6e33eb4d061f1b64dfbe114d6c90bbe7a7c9b05d6f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-alabama-hill': (0, 'f62e4b386853d0a2c3011685c674b9c2a96c1e9ebec10f9f9bd722e1f9060c2a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-new-state': (0, '87297fc0c937d1623ce09bb04511ffb58e2b77ee3b44abfea9b4313282561232',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'paradox-population': (0, 'e77b79fd898e7c2294651c848908c8d7dcccbd0229ed8bc1c206bf0b9e8ca61a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}

# (exit code, sha256 of stdout, sha256 of stderr) of each run in
# ``test_cli.py::PARSER_RUNS`` at 80 columns: the parser's help text and one
# usage error, recorded when the parser was rebuilt on every call.
CLI_PARSER_GOLDEN = {
    'help': (0, '9c932f2eb0767304b4ddcd7941a372639e23484c2295dccd313226a6871c3956',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-help': (0, 'e578632e9374409aad3894c446ff49b84fdfd4d948a86db4a1f06f8b626cf8cd',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'apportion-bad-method': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'f7ab9a9748c5fe1129327867a517cab5056e924707b6d4e2176aae29f02d04a9'),
}
