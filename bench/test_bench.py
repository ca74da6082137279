"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

import copy
import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import kernels  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402


def _report(ids):
    checks_ = [{"claim": c, "description": "", "expected": 1, "observed": 1, "pass": True} for c in ids]
    return {"suites": [{"suite": "all", "pass": True, "checks": checks_}], "pass": True}


def test_verify_checker_accepts_a_passing_report():
    assert checks.check_verify_report(json.dumps(_report(sorted(checks.SEED_CLAIM_IDS)))) == []


def test_verify_checker_flags_a_flipped_check():
    report = _report(sorted(checks.SEED_CLAIM_IDS))
    report["suites"][0]["checks"][17]["pass"] = False
    problems = checks.check_verify_report(json.dumps(report))
    assert any(report["suites"][0]["checks"][17]["claim"] in p for p in problems)


def test_verify_checker_flags_a_lost_claim_and_bad_json():
    ids = sorted(checks.SEED_CLAIM_IDS)
    assert checks.check_verify_report(json.dumps(_report(ids[1:])))
    assert checks.check_verify_report('{"suites": [')


def _aug_aut_output():
    perms = ["".join(p) for p in itertools.islice(itertools.permutations("1234567"), 168)]
    lines = [
        json.dumps({"order": 1, "perm": p, "sign_mask": m}, sort_keys=True)
        for p in perms
        for m in (0, 29, 39, 58, 78, 83, 105, 116)
    ]
    return "\n".join(lines) + "\n"


def test_aug_aut_checker_flags_truncated_output():
    argv = ("enumerate", "aug-aut")
    text = _aug_aut_output()
    assert checks.check_artifact(argv, text) == []
    assert checks.check_artifact(argv, text[: len(text) // 2])  # cut mid-line
    lines = text.splitlines()
    assert checks.check_artifact(argv, "\n".join(lines[:-8]))  # cut at a line end
    assert checks.check_artifact(argv, "\n".join(lines[:-1] + lines[:1]))  # a duplicate


def test_percentiles_on_fixed_samples():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([10, 20, 30, 40], 25) == 17.5
    assert stats.percentile([10, 20, 30, 40], 100) == 40
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 99


def test_host_speed_factor_on_fixed_samples():
    ref = hostspeed.REFERENCE_S
    slow = [(t * 0.1, 2 * ref) for t in range(100)]  # 0.0 .. 9.9 s at half speed
    fast = [(10 + t * 0.1, ref / 2) for t in range(100)]  # 10.0 .. 19.9 s at double speed
    samples = slow + fast
    assert hostspeed.factor(samples, 1.0, 5.0) == 0.5
    assert hostspeed.factor(samples, 12.0, 15.0) == 2.0
    assert abs(hostspeed.factor(samples, 8.0, 12.0) - ref / ((20 * 2 * ref + 21 * ref / 2) / 41)) < 1e-12
    # a short interval takes the samples nearest its middle
    assert hostspeed.factor(samples, 15.01, 15.02) == 2.0
    assert hostspeed.factor([], 0.0, 1.0) == 1.0


def test_host_speed_sampler_collects_samples():
    sampler = hostspeed.Sampler(period=0.01).start()
    deadline = time.monotonic() + 10
    try:
        while len(sampler.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(cpu > 0 for _, cpu in sampler.samples)
    assert 0 < sampler.factor(0, float("inf"))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(7, 0, None, "op", 0.0, 10.0, 1, 10.0),
        Span(7, 1, 0, "cli.main", 0.5, 9.5, 1, 9.0),
        Span(7, 2, 1, "g2.delta_hat", 1.0, 7.0, 1, 6.0),
        Span(7, 3, 2, "scalars.Fraction.__mul__", 1.0, 6.0, 400, 2.5),  # merged leaves
        Span(7, 4, 2, "fano.apply", 6.0, 6.5, 1, 0.5),
        Span(7, 5, 1, "linalg.rank", 7.0, 8.0, 1, 1.0),
        Span(8, 2, None, "op", 0.0, 1.0, 1, 1.0),  # another operation, same span id
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(7, 0)] == 1.0
    assert selfs[(7, 1)] == 2.0
    assert selfs[(7, 2)] == 3.0
    assert selfs[(7, 3)] == 2.5
    assert selfs[(8, 2)] == 1.0
    by_layer = tracing.layer_self_seconds(spans)
    assert by_layer == {"op": 2.0, "cli": 2.0, "g2": 3.0, "scalars": 2.5, "fano": 0.5, "linalg": 1.0}
    assert tracing.inclusive_seconds(spans, "g2.delta_hat") == 6.0


def test_tracer_counts_spans_and_restores_the_library():
    from fanog2 import linalg
    from fanog2.scalars import QQ

    original = linalg.rank
    tracer = tracing.Tracer(op=3)
    tracer.install()
    try:
        assert linalg.rank([[1, 2], [2, 4]], QQ) == 1
    finally:
        tracer.uninstall()
    spans = tracer.finish()
    assert linalg.rank is original
    assert tracer.calls["linalg.rank"] == 1 and tracer.calls["linalg.rref"] == 1
    assert tracer.calls["scalars.Fraction.__new__"] > 0
    assert {s.op for s in spans} == {3}
    root = next(s for s in spans if s.parent is None)
    assert abs(sum(tracing.self_times(spans).values()) - root.busy) < 1e-9


def test_kernel_checks_flag_a_wrong_result():
    fields, batches = kernels.setup(5)
    batch = batches[0]
    out = kernels.run_batch(fields, batch)
    assert kernels.check_batch(fields, batch, out) == []
    bad = copy.deepcopy(out)
    nx, ny, nxy = bad["oct"]["fp"][0]
    bad["oct"]["fp"][0] = (nx, ny, nxy + 1)
    _, null = bad["mat"]["q"][0]
    null[0][0] += 1
    bad["g2"][0] = (bad["g2"][0][0], bad["g2"][0][0]) + bad["g2"][0][2:]
    assert len(kernels.check_batch(fields, batch, bad)) == 3
