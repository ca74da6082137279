import json

import pytest

from fanog2 import cli, fano, radon


def _run(args):
    return cli.main(args)


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.txt"
    assert _run(["verify", "fano", "--out", str(out)]) == 0
    text = _read(out)
    assert "overall PASS" in text
    assert "AC1.size" in text


def test_verify_json_structure(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["verify", "radon", "--json", "--out", str(out)]) == 0
    data = json.loads(_read(out))
    assert data["pass"] is True
    suite = data["suites"][0]
    assert suite["suite"] == "radon"
    for check in suite["checks"]:
        assert check["pass"] is True
        assert check["claim"].startswith("AC")
        assert check["description"]


def test_verify_all_deterministic_with_cache(tmp_path):
    cache = tmp_path / "cache"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert _run(["verify", "lifting", "--json", "--cache-dir", str(cache),
                 "--out", str(a)]) == 0
    assert (cache / "aug-group.json").exists()
    assert _run(["verify", "lifting", "--json", "--cache-dir", str(cache),
                 "--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_enumerate_counts(tmp_path):
    expected = {"aut": 168, "comp-factors": 16, "oriented-maps": 8}
    for target, count in expected.items():
        out = tmp_path / (target + ".jsonl")
        assert _run(["enumerate", target, "--out", str(out)]) == 0
        lines = _read(out).strip().splitlines()
        assert len(lines) == count
        for line in lines:
            json.loads(line)


def test_enumerate_aug_aut(tmp_path):
    out = tmp_path / "aug.jsonl"
    cache = tmp_path / "cache"
    assert _run(["enumerate", "aug-aut", "--cache-dir", str(cache),
                 "--out", str(out)]) == 0
    lines = _read(out).strip().splitlines()
    assert len(lines) == 1344
    rec = json.loads(lines[0])
    assert set(rec) == {"perm", "sign_mask", "order"}


def test_tables(tmp_path):
    out = tmp_path / "oct.txt"
    assert _run(["table", "octonion", "--out", str(out)]) == 0
    assert "e1" in _read(out)
    assert _run(["table", "brackets", "--json", "--out", str(out)]) == 0
    json.loads(_read(out))


def test_diagrams(tmp_path):
    out = tmp_path / "d.txt"
    assert _run(["diagram", "delta-star", "--format", "dot",
                 "--out", str(out)]) == 0
    assert _read(out).count("graph ") == 8
    assert _run(["diagram", "delta", "--format", "text",
                 "--out", str(out)]) == 0
    assert len(_read(out).strip().splitlines()) == 64
    assert _run(["diagram", "delta", "--format", "dot",
                 "--out", str(out)]) == 0
    assert _read(out).count("graph ") == 64


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        _run(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(["frobnicate"])
    assert exc.value.code == 2
    assert _run([]) == 2


def test_truncated_cache_is_recomputed(tmp_path):
    cold = tmp_path / "cold.json"
    assert _run(["verify", "lifting", "--json", "--out", str(cold)]) == 0
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "aug-group.json").write_text('{"key": {"version": 1}, "elem')
    warm = tmp_path / "warm.json"
    assert _run(["verify", "lifting", "--json", "--cache-dir", str(cache),
                 "--out", str(warm)]) == 0
    assert _read(warm) == _read(cold)
    assert [p.name for p in cache.iterdir()] == ["aug-group.json"]


def test_field_descriptor_gate():
    assert _run(["verify", "fano", "--field", "zzz", "--out", "/dev/null"]) == 2
    assert _run(["verify", "fano", "--field", "fp:%d" % (2**64 + 13),
                 "--out", "/dev/null"]) == 2
    assert _run(["verify", "fano", "--field", "fp:11",
                 "--out", "/dev/null"]) == 0


def _duplicate_first(elements):
    elements[1] = elements[0]


def _flip_one_sign(elements):
    # still 1344 distinct elements, 8 over each collineation, but the
    # element's sign function is no lift of its collineation
    elements[0][1] ^= 1


@pytest.mark.parametrize("tamper", [_duplicate_first, _flip_one_sign])
def test_tampered_cache_is_recomputed(tmp_path, tamper):
    cache = tmp_path / "cache"
    assert _run(["enumerate", "aug-aut", "--cache-dir", str(cache),
                 "--out", "/dev/null"]) == 0
    path = cache / "aug-group.json"
    data = json.loads(path.read_text())
    tamper(data["elements"])
    path.write_text(json.dumps(data))
    for suite in ("lifting", "g2"):
        out = tmp_path / (suite + ".txt")
        assert _run(["verify", suite, "--cache-dir", str(cache),
                     "--out", str(out)]) == 0
        assert "overall PASS" in _read(out)
    assert len(set(map(tuple, json.loads(path.read_text())["elements"]))) == 1344


def test_out_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    assert _run(["verify", "fano", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out")
    assert err.count("\n") == 1


def test_radon_claim_fails_instead_of_raising(monkeypatch):
    # T_D broken to the line indicator: the kernel no longer has the shape
    # that AC4.kernel-shape claims, which must come out as a FAIL record
    monkeypatch.setattr(radon, "t_line", radon.line_indicator)
    radon.kernel.cache_clear()
    opts = cli.build_parser().parse_args(["verify", "radon"])
    checks = {c["claim"]: c for c in cli.suite_radon(opts)}
    assert checks["AC4.kernel-shape"]["pass"] is False
    assert checks["AC4.kernel"]["pass"] is True
    assert {radon.t_line(d) for d in fano.LINES}.isdisjoint(radon.kernel())
