import atexit
import gc
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


def test_a_very_long_prime_is_refused_before_it_is_read(capsys):
    # 5 000 digits is past the 4 300 that int() reads; the descriptor gets
    # the message of any prime of 2^64 and above, and leading zeros are
    # not digits of the prime
    for desc in ("fp:" + "7" * 5000, "fp:%d" % 2**64, "fp:1" + "0" * 20):
        capsys.readouterr()
        assert _run(["verify", "fano", "--field", desc, "--out", "/dev/null"]) == 2
        assert capsys.readouterr().err == "error: primes of 2^64 and above are not supported\n"
    assert _run(["verify", "fano", "--field", "fp:" + "0" * 5000 + "7", "--out", "/dev/null"]) == 0
    assert _run(["verify", "fano", "--field", "fp:05", "--out", "/dev/null"]) == 0


def test_out_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    assert _run(["verify", "fano", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out")
    assert err.count("\n") == 1


def test_an_empty_out_path_is_unwritable(capsys):
    # "" names no file: the command exits 2 like any path it cannot write,
    # and nothing goes to stdout
    assert _run(["verify", "fano", "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1


def test_radon_claim_fails_instead_of_raising(monkeypatch, fresh_memos):
    # T_D broken to the line indicator: the kernel no longer has the shape
    # that AC4.kernel-shape claims, which must come out as a FAIL record
    monkeypatch.setattr(radon, "t_line", radon.line_indicator)
    checks = {c["claim"]: c for c in cli.suite_radon()}
    assert checks["AC4.kernel-shape"]["pass"] is False
    assert checks["AC4.kernel"]["pass"] is True
    assert {radon.t_line(d) for d in fano.LINES}.isdisjoint(radon.kernel())
    monkeypatch.undo()
    fresh_memos()
    # the transform broken to the identity: its image of R is no longer the
    # pencil-product set, which must come out as a FAIL record naming the
    # first sign mask in one set but not the other
    monkeypatch.setattr(radon, "radon", lambda f: f)
    checks = {c["claim"]: c for c in cli.suite_radon()}
    assert checks["AC4.mult-domain"]["pass"] is True
    assert checks["AC4.mult-image"]["pass"] is False
    # -1 at P1 and P2: in R, but negative on the pencil through P1
    assert checks["AC4.mult-image"]["observed"] == 0b11
    assert checks["AC4.kernel"]["pass"] is False


def test_concurrency_claim_counts_the_triples(monkeypatch, fresh_memos):
    # line addition broken so that no three lines are concurrent: the
    # identity then holds on every triple found, vacuously, and only the
    # count of 7 triples can fail, as a FAIL record rather than a raise
    monkeypatch.setattr(fano, "line_add", lambda d1, d2: 0)
    checks = {c["claim"]: c for c in cli.suite_radon()}
    assert radon.concurrent_triples() == ()
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


def _break_words_off_the_identity(monkeypatch):
    """Set check bit 7 on the sign word of every collineation but the
    identity."""
    tables = g2._delta_hat_tables

    def broken():
        words, flips, errors = tables()
        return {g: w | (g != fano.IDENTITY) << 7 for g, w in words.items()}, flips, errors

    monkeypatch.setattr(g2, "_delta_hat_tables", broken)


def test_broken_delta_hat_fails_instead_of_raising(monkeypatch, tmp_path, fresh_memos):
    # check bit 7 set for every collineation but the identity: the sweep
    # leaves out the 1336 elements off the kernel, and the AC10 claims that
    # read their values must come out as FAIL records
    _break_words_off_the_identity(monkeypatch)
    fns, error = g2.delta_hats()
    assert len(fns) == 8 and error.startswith("conjugate of X_")
    out = tmp_path / "g2.json"
    assert _run(["verify", "g2", "--json", "--out", str(out)]) == 1
    (suite,) = json.loads(_read(out))["suites"]
    failed = {c["claim"] for c in suite["checks"] if not c["pass"]}
    assert failed == {"AC10.welldefined", "AC10.count", "AC10.ahat"}


def test_broken_delta_hat_diagram_exits_with_a_message(
    monkeypatch, capsys, tmp_path, fresh_memos
):
    # the same broken sign words: `diagram delta` reads the sweep over all
    # 1344 elements, and must exit 1 with the first error, not a traceback
    _break_words_off_the_identity(monkeypatch)
    out = tmp_path / "delta.txt"
    assert _run(["diagram", "delta", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: conjugate of X_{P1,D1} is not proportional to an X\n"
    )
    assert not out.exists()


def test_a_basis_of_the_wrong_size_fails_instead_of_raising(monkeypatch, tmp_path, fresh_memos):
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


def test_an_echelon_that_drops_a_row_fails_instead_of_hanging(monkeypatch, tmp_path, fresh_memos):
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
    monkeypatch, tmp_path, capsys, fresh_memos, tags
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


# the group and the tables the sweeps read are each built on first use: a
# memo filled at import would cost every command, verify-cold set-up
# included.  Only these two, which module constants read, are filled.
FILLED_AT_IMPORT = {"fano.lines_through", "fano.order"}


def test_importing_every_module_fills_no_table():
    code = (
        "import importlib, fanog2\n"
        "mods = {m: importlib.import_module('fanog2.' + m) for m in sorted(fanog2._MODULES)}\n"
        "for m, module in mods.items():\n"
        "    for name, memo in vars(module).items():\n"
        "        if hasattr(memo, 'cache_info'):\n"
        "            print('%s.%s' % (m, name), memo.cache_info().misses)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanog2.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    misses = dict(line.split() for line in proc.stdout.splitlines())
    assert {name for name, n in misses.items() if n != "0"} == FILLED_AT_IMPORT
    assert misses["g2._delta_hat_tables"] == misses["fano.all_collineations"] == "0"


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


# ---------------------------------------------------------------------------
# main runs each command as a one-shot process: the cycle collector is off
# while the command runs, and gc.freeze runs at exit


@pytest.fixture
def collector_state():
    """Put the collector back as it was after a test that switches it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_suites_run_with_the_collector_off(monkeypatch, tmp_path, collector_state):
    seen = []

    def suite():
        seen.append(gc.isenabled())
        return []

    monkeypatch.setitem(cli.SUITES, "fano", suite)
    gc.enable()
    assert _run(["verify", "fano", "--out", str(tmp_path / "out")]) == 0
    assert seen == [False]


def _negated_law(monkeypatch):
    case = g2._bracket_case

    def negated(a, b):
        tag, c, f = case(a, b)
        return tag, -c if tag == "O2" else c, f

    monkeypatch.setattr(g2, "_bracket_case", negated)


def test_the_text_report_gives_the_values_of_a_failed_claim(
    monkeypatch, tmp_path, fresh_memos
):
    # each failed claim is marked FAIL and followed by its expected and
    # observed values, one line each
    _negated_law(monkeypatch)
    out = tmp_path / "g2.txt"
    assert _run(["verify", "g2", "--out", str(out)]) == 1
    text = _read(out)
    assert text.startswith("suite g2: FAIL\n")
    assert (
        "  [FAIL] AC8.jacobi: Jacobi identity on all basis triples\n"
        "      expected: True\n"
        "      observed: False\n"
        "  [ok] AC9.census: incidence-orbit census\n"
    ) in text
    assert text.endswith("\n25 checks, overall FAIL\n")


def _raising_suite(monkeypatch):
    def suite():
        raise RuntimeError("a suite raised")

    monkeypatch.setitem(cli.SUITES, "fano", suite)


# each way out of main: its argv, what the test patches first, and the exit
# code it returns or the exception it raises
EXITS = {
    "exit-0": (["verify", "fano"], None, 0),
    "exit-1": (["verify", "g2"], _negated_law, 1),
    "exit-2": (["verify", "g2", "--field", "fp:4"], None, 2),
    "argparse": (["verify", "bogus"], None, SystemExit),
    "raise": (["verify", "fano"], _raising_suite, RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("way", sorted(EXITS))
def test_main_leaves_the_collector_as_it_found_it(
    monkeypatch, tmp_path, fresh_memos, collector_state, way, enabled
):
    argv, patch, outcome = EXITS[way]
    if patch:
        patch(monkeypatch)
    (gc.enable if enabled else gc.disable)()
    argv = argv + ["--out", str(tmp_path / "out")]
    if isinstance(outcome, int):
        assert _run(argv) == outcome
    else:
        with pytest.raises(outcome):
            _run(argv)
    assert gc.isenabled() is enabled


def test_the_exit_hook_is_registered_once(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "_freeze_at_exit", False)
    monkeypatch.setattr(atexit, "register", lambda *args: calls.append(args))
    assert _run([]) == 2
    assert _run(["verify", "fano", "--out", str(tmp_path / "out")]) == 0
    assert _run(["verify", "g2", "--field", "fp:4"]) == 2
    assert calls == [(gc.freeze,)]


# importing fanog2.cli calls none of the names below; the hook registered
# after the import and before main runs at exit after main's, and sees the
# heap frozen
EXIT_HOOK_SCRIPT = (
    "import atexit, gc, sys\n"
    "names = [(atexit, 'register'), (gc, 'disable'), (gc, 'enable'), (gc, 'freeze')]\n"
    "saved = [getattr(m, n) for m, n in names]\n"
    "calls = []\n"
    "for m, n in names:\n"
    "    setattr(m, n, lambda *args, n=n: calls.append(n))\n"
    "import fanog2.cli\n"
    "for (m, n), f in zip(names, saved):\n"
    "    setattr(m, n, f)\n"
    "atexit.register(lambda: print(calls, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "sys.exit(fanog2.cli.main(['verify', 'all', '--json']))\n"
)


def test_the_heap_is_frozen_at_exit_after_the_report_is_written():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanog2.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_HOOK_SCRIPT], capture_output=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, b"[] True True\n")
    # the pin of test_acceptance.py
    assert len(proc.stdout) == 22178
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "2bd4861fd053d7df9480972b1a0fed11de631552e70c3dc881f37db1f6c8ee7c"
    )


# verify all and the nine artifact commands of the artifacts-warm benchmark
ONE_SHOT_COMMANDS = (
    ["verify", "all", "--json"],
    ["enumerate", "aut"],
    ["enumerate", "aug-aut"],
    ["enumerate", "comp-factors"],
    ["enumerate", "oriented-maps"],
    ["table", "octonion"],
    ["table", "brackets", "--json"],
    ["diagram", "delta-star", "--format", "dot"],
    ["diagram", "delta", "--format", "text"],
    ["verify", "lifting"],
)


@pytest.mark.parametrize("argv", ONE_SHOT_COMMANDS, ids=" ".join)
def test_no_command_relies_on_the_cycle_collector(tmp_path, collector_state, fresh_memos, argv):
    # main keeps the collector off, so what a command leaves in reference
    # cycles stays allocated until the process exits; on a cold process
    # (every memo cleared) that must stay a few hundred objects, not a
    # growing share of the heap (203-278 when this guard was written)
    gc.collect()
    gc.disable()
    assert _run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert gc.collect() < 1000
