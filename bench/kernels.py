"""The kernels workload: seeded batches of calls into the library's kernels.

One batch holds, per field Q, Q(i) and F_p (p a prime near 2**31 drawn from
the seed):

- `octonion.mul` and `octonion.norm` on OCT_PAIRS random elements;
- `linalg.rank` and `linalg.nullspace` on dense 14x21 matrices, one for
  each bound r in RANKS: r random rows and 14 - r combinations of them, so
  entries grow during elimination;

and, over the integers and Q,

- `g2.bracket` on BRACKET_TRIPLES random integer combinations of the 21
  generators X(P, D), for antisymmetry and the Jacobi identity;
- `lifting.aug_compose` and `lifting.aug_apply` on AUG_PAIRS random pairs
  from the 1344-element group, with `octonion.mul` for multiplicativity.

Every result is checked by exact identities computed here, not by values the
program reports about itself.  Nothing here calls `PrimeField.sqrt_minus_one`:
it searches linearly and hangs for a large p, a robustness defect rather than
a workload.
"""

import json
import random
import resource
import sys
import time
from fractions import Fraction

OCT_PAIRS = 40
ROWS, COLS = 14, 21
RANKS = (10, 12, 14)
BRACKET_TRIPLES = 30
AUG_PAIRS = 150
BATCHES = 4


def input_size():
    return {
        "batches_per_cycle": BATCHES,
        "octonion_pairs_per_field": OCT_PAIRS,
        "matrix_shape": [ROWS, COLS],
        "matrix_rank_bounds": list(RANKS),
        "bracket_triples": BRACKET_TRIPLES,
        "aug_pairs": AUG_PAIRS,
    }


# -- inputs -----------------------------------------------------------------


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng):
    while True:
        p = rng.randrange(2**30 + 1, 2**31, 2)
        if is_prime(p):
            return p


def make_fields(rng):
    from fanog2.scalars import QI, QQ, PrimeField

    return {"q": QQ, "qi": QI, "fp": PrimeField(random_prime(rng))}


def random_scalar(rng, kind, field):
    from fanog2.scalars import GaussianRational

    if kind == "q":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == "qi":
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        )
    return field.of(rng.randrange(field.p))


def random_matrix(rng, kind, field, rank_bound):
    from fanog2.scalars import GaussianRational

    if kind == "fp":
        entry = lambda: field.of(rng.randrange(field.p))  # noqa: E731
    elif kind == "qi":
        entry = lambda: GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))  # noqa: E731
    else:
        entry = lambda: Fraction(rng.randint(-9, 9))  # noqa: E731
    rows = [[entry() for _ in range(COLS)] for _ in range(rank_bound)]
    while len(rows) < ROWS:
        coeffs = [rng.randint(-3, 3) for _ in range(rank_bound)]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero) for j in range(COLS)])
    rng.shuffle(rows)
    return rank_bound, rows


def random_g2_element(rng, g2):
    x = {}
    for p, d in g2.INCIDENT_PAIRS:
        x = g2.add_elt(x, g2.scale_elt(rng.randint(-3, 3), g2.X(p, d)))
    return x


def random_octonion(rng):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8))


def make_batch(rng, fields, group):
    from fanog2 import g2

    batch = {"oct": {}, "mat": {}}
    for kind, field in fields.items():
        batch["oct"][kind] = [
            (
                tuple(random_scalar(rng, kind, field) for _ in range(8)),
                tuple(random_scalar(rng, kind, field) for _ in range(8)),
            )
            for _ in range(OCT_PAIRS)
        ]
        batch["mat"][kind] = [random_matrix(rng, kind, field, r) for r in RANKS]
    batch["g2"] = [tuple(random_g2_element(rng, g2) for _ in range(3)) for _ in range(BRACKET_TRIPLES)]
    batch["aug"] = [
        (rng.choice(group), rng.choice(group), random_octonion(rng), random_octonion(rng))
        for _ in range(AUG_PAIRS)
    ]
    return batch


def setup(seed):
    """Import the library, fill its first-call caches and draw the inputs."""
    from fanog2 import lifting

    rng = random.Random(seed)
    fields = make_fields(rng)
    group = lifting.enumerate_aug_group()
    return fields, [make_batch(rng, fields, group) for _ in range(BATCHES)]


# -- one batch --------------------------------------------------------------


def run_batch(fields, batch):
    """Call the library on every input of the batch; return the raw results."""
    from fanog2 import g2, lifting, linalg, octonion

    out = {"oct": {}, "mat": {}}
    for kind, field in fields.items():
        res = []
        for x, y in batch["oct"][kind]:
            xy = octonion.mul(x, y, field=field)
            res.append((octonion.norm(x), octonion.norm(y), octonion.norm(xy)))
        out["oct"][kind] = res
        out["mat"][kind] = [
            (linalg.rank(rows, field), linalg.nullspace(rows, field)) for _, rows in batch["mat"][kind]
        ]
    out["g2"] = [
        (
            g2.bracket(x, y),
            g2.bracket(y, x),
            g2.bracket(x, g2.bracket(y, z)),
            g2.bracket(y, g2.bracket(z, x)),
            g2.bracket(z, g2.bracket(x, y)),
        )
        for x, y, z in batch["g2"]
    ]
    res = []
    for a, b, x, y in batch["aug"]:
        c = lifting.aug_compose(a, b)
        res.append(
            (
                lifting.aug_apply(c, x),
                lifting.aug_apply(a, lifting.aug_apply(b, x)),
                lifting.aug_apply(c, octonion.mul(x, y)),
                octonion.mul(lifting.aug_apply(c, x), lifting.aug_apply(c, y)),
            )
        )
    out["aug"] = res
    return out


# -- checks (the benchmark's own arithmetic) --------------------------------


def _dict_sum(*xs):
    out = {}
    for x in xs:
        for k, v in x.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def check_batch(fields, batch, out):
    """Return a list of problems; empty when every identity holds."""
    problems = []
    for kind in fields:
        for n, (nx, ny, nxy) in enumerate(out["oct"][kind]):
            if nxy != nx * ny:
                problems.append("octonion %s pair %d: N(xy) != N(x)N(y)" % (kind, n))
        for n, ((rank_bound, rows), (rank, null)) in enumerate(zip(batch["mat"][kind], out["mat"][kind])):
            if rank + len(null) != COLS or rank > rank_bound:
                problems.append("linalg %s matrix %d: rank %d, nullity %d" % (kind, n, rank, len(null)))
            for v in null:
                if any(sum((a * b for a, b in zip(row, v)), fields[kind].zero) != 0 for row in rows):
                    problems.append("linalg %s matrix %d: A v != 0" % (kind, n))
                    break
    for n, (xy, yx, j1, j2, j3) in enumerate(out["g2"]):
        if _dict_sum(xy, yx):
            problems.append("g2 triple %d: [x,y] != -[y,x]" % n)
        if _dict_sum(j1, j2, j3):
            problems.append("g2 triple %d: Jacobi sum != 0" % n)
    for n, (cx, abx, cxy, cxcy) in enumerate(out["aug"]):
        if cx != abx:
            problems.append("aug pair %d: apply(a*b) != apply(a) apply(b)" % n)
        if cxy != cxcy:
            problems.append("aug pair %d: composite does not preserve mul" % n)
    return problems


# -- worker process ---------------------------------------------------------


def _emit(**record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _timed_batch(fields, batch):
    t0, w0, c0 = time.monotonic(), time.perf_counter(), time.process_time()
    out = run_batch(fields, batch)
    wall, cpu, t1 = time.perf_counter() - w0, time.process_time() - c0, time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out, {"wall": wall, "cpu": cpu, "rss_mb": rss_mb, "t0": t0, "t1": t1}


def worker(opts):
    """Run cycles over the batches until --seconds have passed.

    One iteration is one pass over all BATCHES batches.  Each batch is timed,
    then checked, and written as one JSON line.  With --trace, one untraced
    cycle is followed by one traced cycle, so traced counts repeat exactly
    for a given seed.
    """
    t0 = time.perf_counter()
    fields, batches = setup(opts.seed)
    _emit(kind="setup", seconds=time.perf_counter() - t0, p=fields["fp"].p)
    if opts.setup_only:
        return 0
    start = time.perf_counter()
    traces = []
    cycle = 0
    while True:
        traced = bool(opts.trace) and cycle == 1
        for index, batch in enumerate(batches):
            if traced:
                import tracer as tracing

                tracer = tracing.Tracer(index)
                tracer.install()
                try:
                    out, stats = _timed_batch(fields, batch)
                finally:
                    tracer.uninstall()
                traces.append({"calls": tracer.calls, "spans": tracer.finish()})
            else:
                out, stats = _timed_batch(fields, batch)
            problems = check_batch(fields, batch, out)
            _emit(kind="batch", cycle=cycle, index=index, traced=traced, problems=problems, **stats)
        cycle += 1
        if cycle == 2 if opts.trace else time.perf_counter() - start >= opts.seconds:
            break
    if opts.trace:
        with open(opts.trace, "w") as fh:
            json.dump({"batches": traces}, fh)
    return 0
