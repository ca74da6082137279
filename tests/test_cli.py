import hashlib
import json
import os
import subprocess
import sys

import pytest

import fanog2
from fanog2 import cli, fano, g2, lifting, linalg, radon
from fanog2.scalars import PrimeField


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


def test_cache_dir_has_no_effect(tmp_path):
    # accepted for compatibility, never read: a path below a regular file
    # neither fails nor gets created
    plain = tmp_path / "plain.txt"
    assert _run(["verify", "lifting", "--out", str(plain)]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = tmp_path / "with-flag.txt"
    assert _run(["verify", "lifting", "--cache-dir", str(blocker / "sub"),
                 "--out", str(out)]) == 0
    assert _read(out) == _read(plain)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "file", "plain.txt", "with-flag.txt"]
    assert blocker.read_text() == ""


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
    assert _run(["enumerate", "aug-aut", "--out", str(out)]) == 0
    lines = _read(out).strip().splitlines()
    assert len(lines) == 1344
    rec = json.loads(lines[0])
    assert set(rec) == {"perm", "sign_mask", "order"}


# sha256 of each artifact command's output, pinned like the `verify all --json`
# report in test_acceptance.py, so no change to the layers behind them can
# alter their bytes unnoticed
ARTIFACT_SHA256 = {
    ("table", "octonion"): "947ad6e091592a0269d33120816e8ae73606823e35d5b66d44d138009f8e303c",
    ("table", "octonion", "--json"): "65fd303aceaebfd8af16c5ca6df3a09bdff7b6a2b45cbeb6377cb6784dfa10f1",
    ("table", "brackets"): "b719b32b9f5569612a9911b6f4db52f88891ef0135995ecbe6fb19161be59373",
    ("table", "brackets", "--json"): "6c40dfef22ec40156d59e2c759a1b05a5fd13e3feafb16d92a29b7b6e7bbdbb2",
    ("diagram", "delta", "--format", "dot"): "6de33a58989c8d722c4110df0b2a57b0ad81067333912a8a859cc4f953ed41e6",
    ("diagram", "delta", "--format", "text"): "696b7b353de2fd65ca9ce730ec3f1ead966f3c154d0db71aa50a8c087fd56a17",
    ("diagram", "delta-star", "--format", "dot"): "d7c16360928a512b39e07f1e51a6ab874ad41dda7e7afb03a10ea538526e80ec",
    ("diagram", "delta-star", "--format", "text"): "2eb04df132639cf57c97621bde72e14b66e51d66cb3071b33fc00054de47290b",
    ("enumerate", "aut"): "acf94365f8de97495d79561f05fb5b6c7cb62b2c5e881508a76b5141a058326c",
    ("enumerate", "aug-aut"): "91d1be6f87a528129b4b19544165dac970d72909eb023fc24533931e0583a6ef",
    ("enumerate", "comp-factors"): "a1b3bf9b6963a0d521496793c49b726bb9fafeebd0bfebc01bb1f8967e53cf8f",
    ("enumerate", "oriented-maps"): "2340dfb318c3fc40a3f07565295b4ff488ef3a810b2c280384c9132115f684d9",
}


@pytest.mark.parametrize("argv", sorted(ARTIFACT_SHA256), ids=" ".join)
def test_artifact_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "artifact"
    assert _run(list(argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ARTIFACT_SHA256[argv]


# sha256 of verify outputs that the pin of `verify all --json` does not
# cover: the text report, a single suite, and the g2 suite over other fields
VERIFY_SHA256 = {
    ("verify", "all"): "9bd797372f4da393e5858a41cca34d15e220603b0e6f78621d6c6077cee0599e",
    ("verify", "lifting"): "8f9a473a1adf6a59321523d1b0ff1b524bdef57dcb8a700e18438d1061e5cecc",
    ("verify", "g2", "--json", "--field", "qi"): "b7c341bca0ec185d6c088caf251d9c2b4cdc8da8a10bfa53b5617d0b7c698b16",
    ("verify", "g2", "--json", "--field", "fp:5"): "124d4dcaa6eba4d056c8e963f9c307787b0319b05b593bf39bde4416c6817c35",
    ("verify", "g2", "--json", "--field", "fp:3"): "74866141a89b2a605386183d07b533cdbb4b51a0976eab6001e0c8e671c2dde9",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_SHA256), ids=" ".join)
def test_verify_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "report"
    assert _run(list(argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SHA256[argv]


def test_field_claim_names_the_parsed_field(tmp_path):
    # the record names the field that the descriptor parses to
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--field", "fp:05", "--out", str(out)]) == 0
    (suite,) = json.loads(_read(out))["suites"]
    (check,) = [c for c in suite["checks"] if c["claim"] == "AC11.chevalley-field"]
    assert check["expected"] == check["observed"] == ["fp:5", True]


def test_field_claim_reuses_the_memoized_report(tmp_path):
    # AC11.chevalley and --field fp:13 read the one computation over Z[i]
    g2.chevalley_report.cache_clear()
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--field", "fp:13", "--out", str(out)]) == 0
    assert g2.chevalley_report.cache_info().misses == 1


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


def test_options_only_where_read():
    # --field is read by verify alone, --json by verify and table
    for argv in (["table", "octonion", "--field", "q"],
                 ["diagram", "delta", "--json"],
                 ["enumerate", "aut", "--json"]):
        with pytest.raises(SystemExit) as exc:
            _run(argv)
        assert exc.value.code == 2


def test_field_descriptor_gate(capsys):
    assert _run(["verify", "fano", "--field", "zzz", "--out", "/dev/null"]) == 2
    # only ASCII decimal digits after fp:, and the message names the descriptor
    for desc in ("fp: 7", "fp:1_000_003", "fp:\u0661\u0663", "fp:+7", "fp:", "fp:abc"):
        capsys.readouterr()
        assert _run(["verify", "fano", "--field", desc, "--out", "/dev/null"]) == 2
        assert capsys.readouterr().err == "error: unsupported field descriptor: %r\n" % desc
    assert _run(["verify", "fano", "--field", "fp:%d" % (2**64 + 13),
                 "--out", "/dev/null"]) == 2
    assert _run(["verify", "fano", "--field", "fp:11",
                 "--out", "/dev/null"]) == 0


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
    checks = {c["claim"]: c for c in cli.suite_radon()}
    assert checks["AC4.kernel-shape"]["pass"] is False
    assert checks["AC4.kernel"]["pass"] is True
    assert {radon.t_line(d) for d in fano.LINES}.isdisjoint(radon.kernel())
    monkeypatch.undo()
    # the transform broken to the identity: its image of R is no longer the
    # pencil-product set, which must come out as a FAIL record naming the
    # first sign mask in one set but not the other
    memos = (radon.kernel, radon.image, radon.preimages, radon.mult_image)
    monkeypatch.setattr(radon, "radon", lambda f: f)
    for memo in memos:
        memo.cache_clear()
    try:
        checks = {c["claim"]: c for c in cli.suite_radon()}
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()
    assert checks["AC4.mult-domain"]["pass"] is True
    assert checks["AC4.mult-image"]["pass"] is False
    # -1 at P1 and P2: in R, but negative on the pencil through P1
    assert checks["AC4.mult-image"]["observed"] == 0b11
    assert checks["AC4.kernel"]["pass"] is False


def test_concurrency_claim_counts_the_triples(monkeypatch):
    # line addition broken so that no three lines are concurrent: the
    # identity then holds on every triple found, vacuously, and only the
    # count of 7 triples can fail, as a FAIL record rather than a raise
    monkeypatch.setattr(fano, "line_add", lambda d1, d2: 0)
    radon.concurrent_triples.cache_clear()
    try:
        checks = {c["claim"]: c for c in cli.suite_radon()}
        assert radon.concurrent_triples() == ()
    finally:
        radon.concurrent_triples.cache_clear()
    assert checks["AC4.concurrency"]["pass"] is False
    assert all(c["pass"] for k, c in checks.items() if k != "AC4.concurrency")


def test_action_claim_fails_instead_of_raising(monkeypatch):
    # the dual factor of the opposite orientation flips every off-line sign
    # of the incidence formula: AC8.action must come out as a FAIL record
    eps_star = g2.eps_star
    sign, point = g2.action_on_basis(1, 1, 3)
    monkeypatch.setattr(g2, "eps_star", lambda: tuple(tuple(-v for v in row) for row in eps_star()))
    assert g2.action_on_basis(1, 1, 3) == (-sign, point)
    checks = {c["claim"]: c for c in cli.suite_g2(PrimeField(13))}
    assert checks["AC8.action"]["pass"] is False
    assert all(c["pass"] for k, c in checks.items() if k != "AC8.action")


@pytest.fixture
def fresh_delta_hat():
    """Clear the memo of the AC10 sweep over delta_hat_fn before and after a
    test that patches the sign words it reads."""
    g2.delta_hat_claims.cache_clear()
    yield
    g2.delta_hat_claims.cache_clear()


def test_broken_delta_hat_fails_instead_of_raising(monkeypatch, tmp_path, fresh_delta_hat):
    # check bit 7 set for every collineation but the identity: delta_hat_fn
    # raises on the 1336 elements off the kernel, and the AC10 claims that
    # read their values must come out as FAIL records
    word = g2._delta_hat_word
    monkeypatch.setattr(
        g2, "_delta_hat_word", lambda g: word(g) | (g != fano.IDENTITY) << 7
    )
    with pytest.raises(AssertionError, match="conjugate of X_"):
        g2.delta_hat_fn(lifting.enumerate_aug_group()[-1])
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--out", str(out)]) == 1
    (suite,) = json.loads(_read(out))["suites"]
    failed = {c["claim"] for c in suite["checks"] if not c["pass"]}
    assert failed == {"AC10.welldefined", "AC10.count", "AC10.ahat"}


def test_broken_delta_hat_diagram_exits_with_a_message(
    monkeypatch, capsys, tmp_path, fresh_delta_hat
):
    # the same broken sign words: `diagram delta` reads delta_hat_fn on all
    # 1344 elements, and must exit 1 with the first error, not a traceback
    word = g2._delta_hat_word
    monkeypatch.setattr(
        g2, "_delta_hat_word", lambda g: word(g) | (g != fano.IDENTITY) << 7
    )
    out = tmp_path / "delta.txt"
    assert _run(["diagram", "delta", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: conjugate of X_{P1,D1} is not proportional to an X\n"
    )
    assert not out.exists()


@pytest.fixture
def fresh_g2():
    """Clear every memo of g2 before and after a test that patches the
    generators they read."""
    memos = [memo for memo in vars(g2).values() if hasattr(memo, "cache_clear")]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_a_basis_of_the_wrong_size_fails_instead_of_raising(monkeypatch, tmp_path, fresh_g2):
    # one entry of X(1, 1) doubled: the 21 X's span 15 dimensions, and the
    # claims that read the 14-element basis must come out as FAIL records
    generator = g2._generator

    def doubled(p, d):
        x, v = generator(p, d)
        if (p, d) == (1, 1):
            k = next(iter(x))
            x = {**x, k: 2 * x[k]}
            v = tuple(g2.to_vector(x))
        return x, v

    monkeypatch.setattr(g2, "_generator", doubled)
    assert len(g2.g2_basis()) == 15
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--out", str(out)]) == 1
    (suite,) = json.loads(_read(out))["suites"]
    failed = {c["claim"] for c in suite["checks"] if not c["pass"]}
    assert {"AC7.dimension", "AC8.jacobi", "AC11.cartan"} <= failed


def test_an_echelon_that_drops_a_row_fails_instead_of_hanging(monkeypatch, tmp_path, fresh_g2):
    # every Echelon forgets its third stored row but still reports it kept:
    # the ranks come out wrong, a Lie closure would grow without end, and
    # the claims must come out as FAIL records
    store = linalg.Echelon._store

    def forgetful(self, v):
        n = len(self._rows)
        kept = store(self, v)
        if kept and n == 2:
            self._rows.pop()
        return kept

    monkeypatch.setattr(linalg.Echelon, "_store", forgetful)
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--out", str(out)]) == 1
    (suite,) = json.loads(_read(out))["suites"]
    failed = {c["claim"] for c in suite["checks"] if not c["pass"]}
    assert {"AC7.dimension", "AC8.jacobi", "AC11.o3-example"} <= failed


@pytest.mark.parametrize("tags", [("O2",), ("O3", "O3'"), ("O4",)])
def test_a_negated_law_coefficient_fails_jacobi_and_the_bracket_law(
    monkeypatch, tmp_path, capsys, fresh_g2, tags
):
    # one coefficient of the incidence law negated: the law is no longer the
    # so(7) bracket (AC8.bracket-law), nor a Lie algebra (AC8.jacobi); both
    # come out as FAIL records, with exit 1 and nothing on stderr
    case = g2._bracket_case

    def negated(a, b):
        tag, c, f = case(a, b)
        return tag, -c if tag in tags else c, f

    monkeypatch.setattr(g2, "_bracket_case", negated)
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    (suite,) = json.loads(_read(out))["suites"]
    failed = {c["claim"] for c in suite["checks"] if not c["pass"]}
    assert {"AC8.jacobi", "AC8.bracket-law"} <= failed


# EPS_TAU with the pair P1-P2 flipped, set before any other module reads it:
# a line orientation but no composition factor
FLIPPED_PAIR = (
    "import sys\n"
    "from fanog2 import compfactor\n"
    "t = [list(row) for row in compfactor.EPS_TAU]\n"
    "t[0][1], t[1][0] = t[1][0], t[0][1]\n"
    "compfactor.EPS_TAU = tuple(map(tuple, t))\n"
    "from fanog2 import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _run_flipped(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanog2.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", FLIPPED_PAIR] + argv, capture_output=True, text=True, env=env
    )


def test_a_broken_sign_table_fails_the_claims_instead_of_raising(tmp_path):
    # the line signs of b fall outside R*, no line has a cyclic order with
    # three eps of +1, and the terms of Omega depend on the point ordering
    out = tmp_path / "all.json"
    proc = _run_flipped(["verify", "all", "--json", "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (1, "")
    checks = {c["claim"]: c for s in json.loads(_read(out))["suites"] for c in s["checks"]}
    assert len(checks) == 73
    failed = {k for k, c in checks.items() if not c["pass"]}
    assert {"AC5.generator-b", "AC11.lines", "AC13.terms", "AC13.derivations"} <= failed
    assert {"AC13.bilinear", "AC13.volume", "AC13.norms"} <= failed
    assert checks["AC5.generator-b"]["observed"] is None
    assert checks["AC13.terms"]["observed"] == [7, 5]
    # neither coloring exists on such a table, so both diagrams refuse it
    for target in ("delta-star", "delta"):
        for fmt in ("text", "dot"):
            proc = _run_flipped(["diagram", target, "--format", fmt])
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr == "error: the sign table EPS_TAU is not a composition factor\n"


# the fanog2 modules that a fresh interpreter holds after each command: every
# command imports only the layers it runs (g2 brings linalg), and scalars only
# where a layer computes over a field or verify reads --field
BASE = {"fanog2", "fanog2.cli"}
FANO = BASE | {"fanog2.fano"}
COMPFACTOR = FANO | {"fanog2.compfactor"}
LIFTING = COMPFACTOR | {"fanog2.lifting", "fanog2.radon"}
OCTONION = COMPFACTOR | {"fanog2.octonion", "fanog2.scalars"}
G2 = OCTONION | {"fanog2.g2", "fanog2.linalg"}
MODULES_LOADED = (
    ([], BASE),
    (["enumerate", "aut"], FANO),
    (["enumerate", "aug-aut"], LIFTING),
    (["enumerate", "comp-factors"], COMPFACTOR),
    (["enumerate", "oriented-maps"], COMPFACTOR),
    (["table", "octonion"], OCTONION),
    (["table", "brackets", "--json"], G2),
    (["diagram", "delta-star", "--format", "dot"], LIFTING),
    (["diagram", "delta", "--format", "text"], LIFTING | G2),
    (["verify", "lifting"], LIFTING | {"fanog2.scalars"}),
)


@pytest.mark.parametrize(
    "argv, expected", MODULES_LOADED, ids=["-".join(a[:2]) or "import" for a, _ in MODULES_LOADED]
)
def test_each_command_imports_only_its_layers(tmp_path, argv, expected):
    code = (
        "import sys, fanog2.cli\n"
        "rc = fanog2.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'fanog2'))\n"
        "sys.exit(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanog2.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = ["--out", str(tmp_path / "out")] if argv else []
    proc = subprocess.run(
        [sys.executable, "-c", code] + argv + out,
        capture_output=True, text=True, env=env, check=True,
    )
    assert set(proc.stdout.split()) == expected


# the group and the tables the sweeps read, each built on first use: a memo
# filled at import would cost every command, verify-cold set-up included
IMPORT_FREE_MEMOS = (
    "fano.all_collineations",
    "fano.line_perm",
    "fano._group_columns",
    "fano._product_table",
    "compfactor.line_orientations",
    "compfactor.off_diagonal_words",
    "compfactor.rules_hold",
    "octonion.products",
    "octonion._label_plan",
    "lifting._delta_star_words",
    "g2.x_matrix2",
    "g2.law",
    "g2._delta_hat_plan",
    "g2._delta_hat_words",
    "forms._derivation_table",
)


def test_importing_every_module_fills_no_table():
    code = (
        "import importlib, fanog2\n"
        "mods = {m: importlib.import_module('fanog2.' + m) for m in fanog2._MODULES}\n"
        "for name in %r:\n"
        "    module, memo = name.split('.')\n"
        "    print(name, getattr(mods[module], memo).cache_info().misses)\n" % (IMPORT_FREE_MEMOS,)
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanog2.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines() == ["%s 0" % name for name in IMPORT_FREE_MEMOS]


def test_package_attributes_load_each_layer_on_first_use():
    code = (
        "import sys, fanog2, fanog2.cli\n"
        "assert not {'fractions', 'decimal', 'fanog2.scalars'} & set(sys.modules)\n"
        "assert fanog2.QQ is sys.modules['fanog2.scalars'].QQ\n"
        "assert fanog2.field_from_descriptor('qi') is fanog2.QI\n"
        "assert 'fanog2.g2' not in sys.modules\n"
        "assert fanog2.g2.bracket is sys.modules['fanog2.g2'].bracket\n"
        "assert fanog2.octonion.mul((1,) + (0,) * 7, (1,) + (0,) * 7)[0] == 1\n"
        "try:\n"
        "    fanog2.nope\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanog2.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert fanog2.__getattr__("radon") is radon
    with pytest.raises(AttributeError):
        fanog2.__getattr__("nope")
