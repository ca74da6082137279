"""Acceptance gate: every claim of the `fanog2 verify` suites.

Each claim is one row of a suite in `cli.SUITES`: its id, its description,
its expected value and the function of the module it is about that
computes its observed value.  This module runs `fanog2 verify all --json`
once, and each acceptance criterion ACn reads the checks of the suite
holding its claims from that report and prints one
`<claim> PASS|FAIL: <description>` line per check, so that
`pytest -s tests/test_acceptance.py` reads as a certificate.  The report's
bytes are pinned by their sha256; a change to a claim's text or value
updates the digest in the same diff.  The claim ids of the report, in
order, are those that the benchmark checks its reports against.

Three more tests run `verify all` in process.  One runs it twice, the
second time on warm memos, and pins both reports.  Another counts the
values that `verify all` builds once per process (see MEMOS), so that a
change that rebuilds them per call fails here, and the last counts its
calls into the package (see CALL_BUDGET), so that a sweep that goes back
to a helper call per element fails too.
"""

import hashlib
import json
import os
import re
import sys

import pytest

import fanog2
from fanog2 import cli, compfactor, fano, forms, g2, lifting, octonion, radon

# Acceptance criterion number -> the verify suite that holds its claims.
CRITERION_SUITE = {
    1: "fano", 2: "fano", 3: "compfactor", 4: "radon", 5: "lifting",
    6: "lifting", 7: "g2", 8: "g2", 9: "g2", 10: "g2", 11: "g2", 12: "g2",
    13: "forms", 14: "octonion",
}

REPORT_SHA256 = "2bd4861fd053d7df9480972b1a0fed11de631552e70c3dc881f37db1f6c8ee7c"


@pytest.fixture(scope="module")
def report_bytes(tmp_path_factory):
    # the exit code is not asserted here, so that a failing claim is named
    # by its criterion below rather than erroring every test
    out = tmp_path_factory.mktemp("report") / "all.json"
    cli.main(["verify", "all", "--json", "--out", str(out)])
    return out.read_bytes()


@pytest.fixture(scope="module")
def suite_checks(report_bytes):
    suites = {s["suite"]: s["checks"] for s in json.loads(report_bytes)["suites"]}
    return suites.__getitem__


def test_report_bytes_are_pinned(report_bytes):
    assert len(report_bytes) == 22178
    assert hashlib.sha256(report_bytes).hexdigest() == REPORT_SHA256


def test_claim_ids_are_the_benchmark_list(report_bytes):
    # bench/claim_ids.json is kept by hand; the benchmark requires each of
    # its ids in every verify report
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "claim_ids.json")) as fh:
        listed = json.load(fh)
    suites = json.loads(report_bytes)["suites"]
    assert [c["claim"] for s in suites for c in s["checks"]] == listed


def _verify_all(path):
    cli.main(["verify", "all", "--json", "--out", str(path)])
    return path.read_bytes()


def test_verify_all_is_unchanged_on_warm_memos(tmp_path):
    first = _verify_all(tmp_path / "first.json")
    second = _verify_all(tmp_path / "second.json")
    assert first == second
    assert hashlib.sha256(second).hexdigest() == REPORT_SHA256
    # each call hands out its own dict, so a caller that edits one leaves
    # the memo behind X intact
    x = g2.X(1, 1)
    want = dict(x)
    x.clear()
    assert g2.X(1, 1) == want != {}


# the memos that verify all fills, and the number of distinct values of each:
# a value that several claims read is built once per process
MEMOS = {
    g2._generator: 21,  # the generators X(P, D)
    compfactor.rules_hold: 2,  # the 128 line orientations, and the 8 exponentials
    forms._derivation_table: 1,  # how each pair moves the basis 3- and 4-forms
    g2.cartan_dimension: 7,  # the rank of each h_P
    g2.g2_basis: 1,  # the independent X's, whose number is the rank of the 21
    g2.point_subalgebra_dimension: 7,  # the rank of each s_P
    forms._form: 2,  # omega and Omega
    compfactor.isotropy: 1,
    compfactor.orbit_decomposition: 1,
    g2.chevalley_report: 1,  # over Z[i], for every field containing sqrt(-1)
    g2.delta_hat_claims: 1,  # the 1344 deltas behind the AC10 claims
    lifting.order_profiles: 1,
    g2.law: 1,  # the law table of the 441 brackets and its 14 coordinates
    fano._product_table: 1,  # the codes of all 168^2 products, read by AC1 and AC2
    g2._delta_hat_tables: 1,  # the sign words of all 168 collineations and 128 sign vectors
    lifting._delta_star_words: 1,  # the line words of all 168 collineations
    fano._group_columns: 1,  # the group as columns, read by every sweep
    compfactor.off_diagonal_words: 2,  # as compfactor.rules_hold
    radon.radon: 128,  # every mask, read by the kernel and image sweeps
    radon.preimages: 16,  # the image members, whose preimages the lifts read too
    octonion._label_plan: 1,  # the 128 line orientations share their labels
    fano._pair_columns: 1,  # 8 hP + hQ over the group for each pair, read by the AC3 and AC5 sweeps
    octonion._associator_table: 1,  # the 512 basis associators of the four AC14 identities
}


def test_verify_all_builds_each_memoized_value_once(tmp_path):
    for memo in MEMOS:
        memo.cache_clear()
    _verify_all(tmp_path / "all.json")
    assert {memo.__name__: memo.cache_info().misses for memo in MEMOS} == {
        memo.__name__: n for memo, n in MEMOS.items()}


# the calls into code in src/fanog2 that one verify all --json makes on fresh
# memos, as sys.setprofile counts them (a generator counts each time it
# resumes): 101 978 while the sweeps called a helper per element, and this
# many once they read the tables above
CALL_BUDGET = 46351


def test_verify_all_stays_within_its_call_budget(tmp_path, fresh_memos):
    package = os.path.dirname(fanog2.__file__)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        _verify_all(tmp_path / "all.json")
    finally:
        sys.setprofile(None)
    print("calls into fanog2:", calls)
    assert calls <= CALL_BUDGET


def _criterion(n):
    return int(re.match(r"AC(\d+)\.", n).group(1))


def _check_criterion(suite_checks, n):
    name = CRITERION_SUITE[n]
    checks = suite_checks(name)
    # Every claim of the suite belongs to one of the criteria mapped to it.
    assert {_criterion(c["claim"]) for c in checks} == {
        k for k, s in CRITERION_SUITE.items() if s == name}
    mine = [c for c in checks if _criterion(c["claim"]) == n]
    assert mine
    for c in mine:
        print("%s %s: %s" % (c["claim"], "PASS" if c["pass"] else "FAIL", c["description"]))
    assert [c["claim"] for c in mine if not c["pass"]] == []


def test_criterion_01_collineation_group(suite_checks):
    _check_criterion(suite_checks, 1)


def test_criterion_02_order7_classes(suite_checks):
    _check_criterion(suite_checks, 2)


def test_criterion_03_composition_factors(suite_checks):
    _check_criterion(suite_checks, 3)


def test_criterion_04_radon(suite_checks):
    _check_criterion(suite_checks, 4)


def test_criterion_05_delta_star(suite_checks):
    _check_criterion(suite_checks, 5)


def test_criterion_06_augmented_group(suite_checks):
    _check_criterion(suite_checks, 6)


def test_criterion_07_dimension(suite_checks):
    _check_criterion(suite_checks, 7)


def test_criterion_08_bracket_law(suite_checks):
    _check_criterion(suite_checks, 8)


def test_criterion_09_orbit_census(suite_checks):
    _check_criterion(suite_checks, 9)


def test_criterion_10_delta(suite_checks):
    _check_criterion(suite_checks, 10)


def test_criterion_11_subalgebras(suite_checks):
    _check_criterion(suite_checks, 11)


def test_criterion_12_root_system(suite_checks):
    _check_criterion(suite_checks, 12)


def test_criterion_13_forms(suite_checks):
    _check_criterion(suite_checks, 13)


def test_criterion_14_octonions(suite_checks):
    _check_criterion(suite_checks, 14)
