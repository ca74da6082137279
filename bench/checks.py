"""Correctness gates for the CLI outputs, independent of the program's own
expected values: each returns a list of problems, empty when the output is
right.  The counts are the paper's (168, 1344, 16 = 8 + 8, 8, 21 x 21, 8, 64).
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "claim_ids.json")) as _fh:
    SEED_CLAIM_IDS = frozenset(json.load(_fh))


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_verify_report(text, claim_ids=SEED_CLAIM_IDS):
    """`verify ... --json`: parses, every check passes, no seed claim is lost."""
    try:
        report = json.loads(text)
        checks = [c for s in report["suites"] for c in s["checks"]]
        ids = {c["claim"] for c in checks}
    except (ValueError, KeyError, TypeError) as exc:
        return ["verify report does not parse: %s" % exc]
    problems = ["check %s does not pass" % c["claim"] for c in checks if c.get("pass") is not True]
    if report.get("pass") is not True:
        problems.append("report does not pass overall")
    missing = sorted(claim_ids - ids)
    if missing:
        problems.append("claims missing from the report: %s" % ", ".join(missing))
    return problems


def _check_aut(text):
    perms = [rec["perm"] for rec in _json_lines(text)]
    problems = []
    if len(perms) != 168 or len(set(perms)) != 168:
        problems.append("expected 168 distinct collineations, got %d lines, %d distinct" % (len(perms), len(set(perms))))
    if any(sorted(p) != list("1234567") for p in perms):
        problems.append("a collineation is not a permutation of the 7 points")
    return problems


def _check_aug_aut(text):
    recs = [(rec["perm"], rec["sign_mask"]) for rec in _json_lines(text)]
    problems = []
    if len(recs) != 1344 or len(set(recs)) != 1344:
        problems.append("expected 1344 distinct signed automorphisms, got %d lines, %d distinct" % (len(recs), len(set(recs))))
    bases = {}
    for perm, mask in recs:
        bases[perm] = bases.get(perm, 0) + 1
    if len(bases) != 168 or set(bases.values()) != {8}:
        problems.append("expected 8 lifts of each of 168 collineations")
    if any(not 0 <= mask < 128 for _, mask in recs):
        problems.append("a sign mask is outside 0..127")
    return problems


def _check_comp_factors(text):
    recs = _json_lines(text)
    sides = [rec["side"] for rec in recs]
    problems = []
    if len(recs) != 16 or len({rec["table"] for rec in recs}) != 16:
        problems.append("expected 16 distinct composition factors, got %d" % len(recs))
    if sorted(sides.count(s) for s in set(sides)) != [8, 8]:
        problems.append("sides do not split 8/8: %s" % sorted(sides))
    return problems


def _check_oriented_maps(text):
    recs = _json_lines(text)
    if len(recs) != 8 or len({json.dumps(rec, sort_keys=True) for rec in recs}) != 8:
        return ["expected 8 distinct oriented maps, got %d" % len(recs)]
    return []


def _check_octonion_table(text):
    """7x7 imaginary table: e_i e_i = -1, and row i is a signed permutation
    of the other six units (e_i e_j = +-e_k with k distinct from i and j)."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    units = ["e%d" % i for i in range(1, 8)]
    if len(rows) != 8 or rows[0] != units:
        return ["octonion table is not 7x7"]
    problems = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 8 or row[0] != "e%d" % i or row[i] != "-1":
            problems.append("octonion table row e%d is malformed" % i)
            continue
        others = [cell.lstrip("-") for j, cell in enumerate(row[1:], start=1) if j != i]
        if sorted(others) != sorted(u for u in units if u != "e%d" % i):
            problems.append("octonion table row e%d is not a signed permutation" % i)
    return problems


def _check_brackets(text):
    """21x21 bracket table with zero diagonal and [a, b] = -[b, a]."""
    try:
        data = json.loads(text)
        basis, table = data["basis"], data["table"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["bracket table does not parse: %s" % exc]
    if len(basis) != 21 or len(table) != 21 or any(len(row) != 21 for row in table):
        return ["bracket table is not 21x21"]
    problems = []
    for a in range(21):
        if table[a][a]["coeff"] != 0:
            problems.append("bracket of generator %d with itself is not 0" % a)
        for b in range(a + 1, 21):
            ab, ba = table[a][b], table[b][a]
            if ab["coeff"] != -ba["coeff"] or (ab["coeff"] and ab["result"] != ba["result"]):
                problems.append("bracket table is not antisymmetric at (%d, %d)" % (a, b))
    return problems


def _check_delta_star(text):
    graphs = [line for line in text.splitlines() if line.startswith("graph ")]
    if len(graphs) != 8 or text.count("}") != 8:
        return ["expected 8 delta-star graphs, got %d" % len(graphs)]
    return []


def _check_delta(text):
    rows = [line for line in text.splitlines() if line.strip()]
    problems = []
    if len(rows) != 64 or len(set(rows)) != 64:
        problems.append("expected 64 distinct delta rows, got %d" % len(rows))
    signs = {"P%d:%s" % (p, s) for p in range(1, 8) for s in "+-"}
    if any(len(row.split()) != 7 or not set(row.split()) <= signs for row in rows):
        problems.append("a delta row is not 7 point signs")
    return problems


def _check_verify_text(text):
    lines = text.splitlines()
    problems = []
    if not lines or not lines[-1].endswith("overall PASS"):
        problems.append("verify summary line does not read 'overall PASS'")
    if any("[FAIL]" in line for line in lines):
        problems.append("a check reads FAIL")
    return problems


# The artifacts-warm batch: argv (before --cache-dir) and its checker.
ARTIFACTS = (
    (("enumerate", "aut"), _check_aut),
    (("enumerate", "aug-aut"), _check_aug_aut),
    (("enumerate", "comp-factors"), _check_comp_factors),
    (("enumerate", "oriented-maps"), _check_oriented_maps),
    (("table", "octonion"), _check_octonion_table),
    (("table", "brackets", "--json"), _check_brackets),
    (("diagram", "delta-star", "--format", "dot"), _check_delta_star),
    (("diagram", "delta", "--format", "text"), _check_delta),
    (("verify", "lifting"), _check_verify_text),
)
CHECKERS = dict(ARTIFACTS)


def check_artifact(argv, text):
    try:
        return CHECKERS[tuple(argv)](text)
    except (ValueError, KeyError, TypeError) as exc:
        return ["output of %s does not parse: %s" % (" ".join(argv), exc)]
