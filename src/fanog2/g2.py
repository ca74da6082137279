"""The Lie algebra g2 inside so(7), built from the incidence geometry.

Elements of so(7) are sparse dicts {(i,j): coefficient} over the 21-element
pair basis e_{PiPj} (i < j), with e_{PjPi} = -e_{PiPj}.  Two independent
evaluation paths are maintained throughout: structure constants on the pair
basis, and 8x8 spinor matrices acting on the octonion coordinates.  A
spinor matrix is kept as its nonzero entries {(row, col): value}, and
_product is the one matrix product; commutators, J^2 and J^T J go through
it.  g2 is
the annihilator of the unit octonion; its generators X_{P,D} are indexed by
the 21 incident point-line pairs.  The generators, and so every sign below,
are those of the canonical composition factor compfactor.EPS_TAU.

Sums of sparse terms go through combine: elt, _product, matrix2 and the
wedge, contract and so7_derivation of forms.  add_elt and bracket keep their
own loops: the kernels benchmark draws its inputs with add_elt and times
bracket.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
import json

from . import compfactor, fano, linalg, octonion
from .scalars import QI, QQ, PrimeField

PAIRS = tuple((i, j) for i in range(1, 8) for j in range(i + 1, 8))
PAIR_INDEX = {p: n for n, p in enumerate(PAIRS)}

INCIDENT_PAIRS = tuple(
    (p, d) for p in fano.POINTS for d in fano.lines_through(p)
)


# ---------------------------------------------------------------------------
# sparse so(7) elements over the pair basis


def combine(terms):
    """The sum of (key, coefficient) terms as a new dict, without the keys
    whose coefficients sum to zero, for coefficients of any supported field;
    keys keep the order in which they first occur."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def elt(*terms):
    """Build an element from (coeff, i, j) terms; e_{ji} folds to -e_{ij}."""
    if any(i == j for _, i, j in terms):
        raise ValueError("no diagonal pair basis element")
    return combine(((i, j), c) if i < j else ((j, i), -c) for c, i, j in terms)


def add_elt(x, y):
    out = dict(x)
    for k, v in y.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def scale_elt(c, x):
    if not c:
        return {}
    return {k: c * v for k, v in x.items()}


def to_vector(x):
    return [x.get(p, 0) for p in PAIRS]


@lru_cache(maxsize=None)
def structure_constants():
    """The so(7) structure constants on pairs, memoized:

    [e_{ij}, e_{kl}] = d_ik e_{jl} - d_jk e_{il} + d_il e_{kj} - d_jl e_{ki}.

    Two pairs bracket to zero unless they share exactly one index (e_{ii} =
    0), and then exactly one delta is 1.  So each e_{ij} has a row of 10
    entries, 210 in all.  Pairs are named by their index in PAIRS: row r maps
    the index of e_{kl} to (s, index of e_{mn}), where [PAIRS[r], e_{kl}] =
    s e_{mn} and m < n.
    """
    table = []
    for i, j in PAIRS:
        row = {}
        for k, l in PAIRS:
            for delta, s, m, n in (
                (i == k, 1, j, l),
                (j == k, -1, i, l),
                (i == l, 1, k, j),
                (j == l, -1, k, i),
            ):
                if delta and m != n:
                    s, mn = (s, (m, n)) if m < n else (-s, (n, m))
                    row[PAIR_INDEX[(k, l)]] = (s, PAIR_INDEX[mn])
        table.append(row)
    return tuple(table)


def bracket(x, y):
    """[x, y] read off structure_constants(), for coefficients of any of the
    supported fields.  Each term of x meets the 10 constants of its row.
    When y has fewer terms than that, the loop runs over y and looks each
    term up in the row; otherwise it runs over the row and reads y as a
    dense vector.
    """
    table = structure_constants()
    if len(y) < 10:
        ys = [(PAIR_INDEX[l], b) for l, b in y.items()]
        out = {}
        for k, a in x.items():
            row = table[PAIR_INDEX[k]]
            for l, b in ys:
                sm = row.get(l)
                if sm:
                    s, m = sm
                    c = out.get(m, 0)
                    out[m] = c + a * b if s > 0 else c - a * b
        terms = out.items()
    else:
        yv = [0] * len(PAIRS)
        for l, b in y.items():
            yv[PAIR_INDEX[l]] = b
        out = [0] * len(PAIRS)
        for k, a in x.items():
            for l, (s, m) in table[PAIR_INDEX[k]].items():
                b = yv[l]
                if b:
                    if s > 0:
                        out[m] += a * b
                    else:
                        out[m] -= a * b
        terms = enumerate(out)
    return {PAIRS[m]: c for m, c in terms if c}


# ---------------------------------------------------------------------------
# spinor matrices, each kept as its nonzero entries {(row, col): value}


@lru_cache(maxsize=None)
def rho():
    """rho()[p], p = 1..7: left multiplication by e_p on the octonions."""
    t = octonion.products(compfactor.EPS_TAU)
    return {p: {(k, j): s for j, (s, k) in enumerate(t[p])} for p in fano.POINTS}


def _product(a, b):
    """ab for matrices given by their entries; zeros are dropped."""
    rows = {}
    for (k, j), v in b.items():
        rows.setdefault(k, []).append((j, v))
    return combine(((i, j), u * v) for (i, k), u in a.items() for j, v in rows.get(k, ()))


def _commutator(a, b):
    return add_elt(_product(a, b), scale_elt(-1, _product(b, a)))


@lru_cache(maxsize=None)
def pair_matrix2():
    """2 * rho_hat(e_{PiPj}) = (1/2)[rho_i, rho_j], integer entries."""
    r = rho()
    return {
        (i, j): {k: v // 2 for k, v in _commutator(r[i], r[j]).items()}
        for i, j in PAIRS
    }


def matrix2(x):
    """2 * spinor matrix of a pair-basis element with integer coefficients."""
    pm = pair_matrix2()
    return combine((e, c * v) for k, c in x.items() for e, v in pm[k].items())


@lru_cache(maxsize=None)
def x_matrix2(p, d):
    """2 * spinor matrix of the generator X_{P,D}, memoized (21 in all)."""
    return matrix2(X(p, d))


# ---------------------------------------------------------------------------
# the generators X and Y


def _check_incident(p, d):
    if p not in fano.LINE_POINTS[d]:
        raise ValueError("P%d is not on line D%d" % (p, d))


def X(p, d):
    """The g2 generator of an incident pair, per the three line slots at p:
    a fresh dict on each call, copied from the memo of the 21."""
    return dict(_generator(p, d)[0])


def x_vector(p, d):
    """The pair-basis coordinates of X(p, d), as the tuple kept in its memo."""
    return _generator(p, d)[1]


# the lines through P = P_i in the cycle (D_i, D_{i-1}, D_{i-3}) that the
# generators at P follow
LINE_CYCLE = {i: (i, fano._lab(i - 1), fano._lab(i - 3)) for i in fano.POINTS}


@lru_cache(maxsize=None)
def _generator(p, d):
    """X(p, d) and its pair-basis vector, built once per incident pair;
    callers get copies of the element.  At slot k of the cycle of P = P_i,
    X is e_{pairs[k]} - e_{pairs[k + 1 mod 3]} for the three pairs below."""
    _check_incident(p, d)
    la = fano._lab
    pairs = ((la(p + 2), la(p - 1)), (la(p - 3), la(p - 2)), (la(p + 1), la(p + 3)))
    k = LINE_CYCLE[p].index(d)
    x = elt((1, *pairs[k]), (-1, *pairs[(k + 1) % 3]))
    return x, tuple(to_vector(x))


def Y(p, d):
    """Y_{P,D} = X_{P,next} - X_{P,prev}, where next and prev follow D in
    LINE_CYCLE[P]."""
    _check_incident(p, d)
    cycle = LINE_CYCLE[p]
    k = cycle.index(d)
    return add_elt(X(p, cycle[(k + 1) % 3]), scale_elt(-1, X(p, cycle[k - 1])))


def point_relations_hold():
    """AC7.point-relations: at each point, the three X's sum to zero."""
    return not any(
        combine(t for d in fano.lines_through(p) for t in X(p, d).items())
        for p in fano.POINTS
    )


def span_dimension():
    """Rank of the 21 X's in the pair basis; equals dim g2 = 14."""
    rows = [x_vector(p, d) for p, d in INCIDENT_PAIRS]
    return linalg.rank(rows, QQ)


def annihilator_dimension():
    """Dimension of {x in so(7): rho_hat(x)(1) = 0}, solved as a linear system.

    The map x -> 2*rho_hat(x)(unit) is linear in the 21 pair coordinates.
    """
    pm = pair_matrix2()
    rows = [[pm[k].get((i, 0), 0) for k in PAIRS] for i in range(8)]
    return len(PAIRS) - linalg.rank(rows, QQ)


@lru_cache(maxsize=None)
def g2_basis():
    """A 14-element subset of the X's forming a basis of g2 over Q."""
    echelon = linalg.Echelon(QQ)
    basis = [pd for pd in INCIDENT_PAIRS if echelon.add(x_vector(*pd))]
    assert len(basis) == 14
    return tuple(basis)


# ---------------------------------------------------------------------------
# the dual composition factor and the action on basis octonions


@lru_cache(maxsize=None)
def eps_star():
    """Canonical composition factor of the dual plane, built from the line
    permutation induced by the point shift; a 7x7 sign table on line labels.

    The sign convention is pinned by the exhaustive matrix cross-check in
    action_formula_holds: with this orientation the incidence formula for
    [X_{P,D}, e_Q] reproduces the spinor commutators exactly, while the
    opposite orientation flips every off-line sign.
    """
    return compfactor.canonical_epsilon(fano.line_perm(fano.TAU))


def action_on_basis(p, d, q):
    """[X_{P,D}, e_Q] as a signed point: (sign, point) or (0, 0) if Q in D.

    Predicted by sign = eps_{PQ} * eps*_{P^Q, D}.
    """
    _check_incident(p, d)
    if q in fano.LINE_POINTS[d]:
        return 0, 0
    eps_pq = compfactor.eps_get(compfactor.EPS_TAU, p, q)
    return eps_pq * eps_star()[fano.wedge(p, q) - 1][d - 1], fano.add(p, q)


def action_formula_holds():
    """action_on_basis against the spinor matrices on all 147 cases (P, D, Q):
    the commutator of 2 rho_hat(X_{P,D}) with rho(e_Q) is 2 rho([X_{P,D}, e_Q]).
    """
    r = rho()
    for p, d in INCIDENT_PAIRS:
        for q in fano.POINTS:
            s, k = action_on_basis(p, d, q)
            if _commutator(x_matrix2(p, d), r[q]) != (scale_elt(2 * s, r[k]) if s else {}):
                return False
    return True


# ---------------------------------------------------------------------------
# orbit classification of pairs of incident pairs and the bracket law


@lru_cache(maxsize=None)
def classify_pair(pd1, pd2):
    """Orbit tag of a pair of incident pairs: D, O1, O2, O3, O3', or O4;
    memoized (441 in all)."""
    (p1, d1), (p2, d2) = pd1, pd2
    _check_incident(p1, d1)
    _check_incident(p2, d2)
    if p1 == p2 and d1 == d2:
        return "D"
    if p1 == p2:
        return "O1"
    if d1 == d2:
        return "O2"
    in31 = p1 in fano.LINE_POINTS[d2]
    in32 = p2 in fano.LINE_POINTS[d1]
    if in31 and not in32:
        return "O3"
    if in32 and not in31:
        return "O3'"
    if not in31 and not in32:
        return "O4"
    # both incidences would force d1 == d2 for incident pairs
    raise AssertionError("impossible incidence configuration")


def orbit_census():
    return dict(
        Counter(
            classify_pair(a, b)
            for a in INCIDENT_PAIRS
            for b in INCIDENT_PAIRS
        )
    )


def _bracket_case(pd1, pd2):
    """The closed-form bracket [X_{P,D}, X_{P',D'}] = coeff * X_flag, as
    (orbit tag, coeff, flag); flag is None when the bracket vanishes.
    """
    tag = classify_pair(pd1, pd2)
    (p1, d1), (p2, d2) = pd1, pd2
    if tag in ("D", "O1"):
        return tag, 0, None
    e = compfactor.eps_get(compfactor.EPS_TAU, p1, p2)
    if tag == "O2":
        return tag, 2 * e, (fano.add(p1, p2), fano.wedge(p1, p2))
    if tag in ("O3", "O3'"):
        return tag, -e, (fano.add(p1, p2), fano.wedge(p1, p2))
    return tag, -e, (fano.add(p1, p2), fano.line_add(d1, d2))


@lru_cache(maxsize=None)
def generator_brackets():
    """The table {(a, b): [X_a, X_b]} over all 441 ordered pairs of incident
    pairs, computed by bracket; memoized.  AC8.bracket-law checks every entry,
    and every claim that brackets two generators reads it.  The entries are
    shared, so a reader never edits one."""
    xs = [(pd, _generator(*pd)[0]) for pd in INCIDENT_PAIRS]
    return {(a, b): bracket(x, y) for a, x in xs for b, y in xs}


def check_bracket_law():
    """Three-way agreement over all 441 ordered pairs: the structure-constant
    bracket in generator_brackets() == closed-form law, and == spinor-matrix
    commutator.

    Once the bracket equals the law coeff * X_flag, matrix2 of it is
    coeff * x_matrix2(flag), since matrix2 is linear.  Each matrix product
    AB is formed once and read by both [A, B] and [B, A].
    """
    table = generator_brackets()
    products = {
        (a, b): _product(x_matrix2(*a), x_matrix2(*b))
        for a in INCIDENT_PAIRS
        for b in INCIDENT_PAIRS
    }
    for a in INCIDENT_PAIRS:
        for b in INCIDENT_PAIRS:
            _, coeff, flag = _bracket_case(a, b)
            law = scale_elt(coeff, X(*flag)) if flag else {}
            if table[a, b] != law:
                return False
            # [2A, 2B] = 4[A,B] = 2 * (2[A,B])
            want = scale_elt(2 * coeff, x_matrix2(*flag)) if flag else {}
            if add_elt(products[a, b], scale_elt(-1, products[b, a])) != want:
                return False
    return True


def anchored_brackets_hold():
    """AC8.anchors: three bracket values stated in closed form."""
    return (
        bracket(X(1, 1), X(3, 7)) == scale_elt(-1, X(7, 7))
        and bracket(X(4, 1), X(5, 2)) == scale_elt(-1, X(7, 6))
        and bracket(X(1, 1), X(2, 1)) == scale_elt(2, X(4, 1))
    )


def orbit_tags_preserved():
    """AC9.closure: the standard generators keep all 441 orbit tags."""
    for g in fano.standard_generators():
        lines = fano.line_perm(g)
        image = {(p, d): (g[p - 1], lines[d - 1]) for p, d in INCIDENT_PAIRS}
        for pd1 in INCIDENT_PAIRS:
            for pd2 in INCIDENT_PAIRS:
                if classify_pair(image[pd1], image[pd2]) != classify_pair(pd1, pd2):
                    return False
    return True


def jacobi_check():
    """Jacobi identity on the 14-element basis, certified for all 14^3
    ordered triples from 196 + 364 checks.

    First [x, y] + [y, x] = 0 on all 196 ordered basis pairs.  The bracket is
    bilinear, so it is then antisymmetric on all of g2, and the Jacobi sum
    J(x, y, z) = [x, [y, z]] + [y, [z, x]] + [z, [x, y]], which is cyclic by
    its form, changes sign when two arguments swap:
    J(y, x, z) = -J(x, y, z).  So J is alternating: it vanishes when two
    arguments are equal (2J = 0, characteristic 0), and on any other
    ordered triple it is +-J of the sorted one.  Second, J = 0 on the 364
    triples i < j < k.  The first step reads the 196 brackets off
    generator_brackets(), and the second reads its inner brackets off
    those: the first step has checked [x_k, x_i] = -[x_i, x_k].
    """
    basis = g2_basis()
    table = generator_brackets()
    xs = [X(*pd) for pd in basis]
    inner = {}
    for i, a in enumerate(basis):
        if table[a, a] != {}:
            return False
        for j in range(i + 1, len(basis)):
            inner[i, j] = table[a, basis[j]]
            if add_elt(inner[i, j], table[basis[j], a]) != {}:
                return False
    for i, j, k in combinations(range(len(xs)), 3):
        s = add_elt(
            bracket(xs[i], inner[j, k]),
            add_elt(
                bracket(xs[j], scale_elt(-1, inner[i, k])),
                bracket(xs[k], inner[i, j]),
            ),
        )
        if s != {}:
            return False
    return True


# ---------------------------------------------------------------------------
# Cartan subalgebras and the decomposition


@lru_cache(maxsize=None)
def cartan_dimension(p):
    """The rank of h_P, spanned by the three X's at P; memoized per point."""
    rows = [x_vector(p, d) for d in fano.lines_through(p)]
    return linalg.rank(rows, QQ)


def cartan_is_abelian(p):
    hp = [(p, d) for d in fano.lines_through(p)]
    table = generator_brackets()
    return all(table[a, b] == {} for a in hp for b in hp)


def centralizer_dimension(pds):
    """Dimension of the centralizer inside g2 of the generators X(P, D) for
    the given incident pairs: 14 minus the rank of [X(P, D), sum c_n x_n] = 0
    in the c_n over g2_basis()."""
    basis = g2_basis()
    table = generator_brackets()
    rows = []
    for h in pds:
        cols = [table[h, b] for b in basis]
        for pr in PAIRS:
            rows.append([c.get(pr, 0) for c in cols])
    return len(basis) - linalg.rank(rows, QQ)


def cartan_self_centralizing(p):
    """h_P is abelian, so it lies in its centralizer; equal dimensions then
    make the two equal."""
    hp = [(p, d) for d in fano.lines_through(p)]
    return cartan_is_abelian(p) and centralizer_dimension(hp) == cartan_dimension(p)


def cartans_hold():
    """AC11.cartan: each h_P is 2-dimensional and self-centralizing."""
    return all(cartan_dimension(p) == 2 and cartan_self_centralizing(p) for p in fano.POINTS)


def pair_inner(x, y):
    """Inner product with the keys orthonormal: the pair basis here, the
    sorted subsets of a form in forms."""
    out = 0
    for k, v in x.items():
        out += v * y.get(k, 0)
    return out


def decomposition_check():
    """g2 = direct sum of the seven h_P, pairwise orthogonal, with
    [h_P, h_Q] = h_{P+Q}.
    """
    # direct sum: each summand rank 2, and the 21 X's rank 14
    if any(cartan_dimension(p) != 2 for p in fano.POINTS) or span_dimension() != 14:
        return False
    # orthogonality and bracket law between summands
    table = generator_brackets()
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p == q:
                continue
            hp = [(p, d) for d in fano.lines_through(p)]
            hq = [(q, d) for d in fano.lines_through(q)]
            for a in hp:
                for b in hq:
                    if pair_inner(X(*a), X(*b)) != 0:
                        return False
            # the brackets span h_{P+Q}: as many dimensions, and each X in it
            r = fano.add(p, q)
            span = linalg.Echelon(QQ, [to_vector(table[a, b]) for a in hp for b in hq])
            if len(span) != cartan_dimension(r) or not all(
                x_vector(r, d) in span for d in fano.lines_through(r)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# line subalgebras (so(4)) and point root systems


def eps_cyclic_order(d):
    """The cyclic order (P,Q,R) on a line with all three eps signs +1; None
    when neither order has them, so AC11.lines fails rather than raises."""
    eps = compfactor.EPS_TAU
    pts = sorted(fano.LINE_POINTS[d])
    for order in (pts, [pts[0], pts[2], pts[1]]):
        p, q, r = order
        if (
            compfactor.eps_get(eps, p, q)
            == compfactor.eps_get(eps, q, r)
            == compfactor.eps_get(eps, r, p)
            == 1
        ):
            return tuple(order)
    return None


def line_subalgebra_report(d):
    """Structure checks for g_D = h_P + h_Q + h_R, P,Q,R on D."""
    p, q, r = eps_cyclic_order(d)
    xs = {s: X(s, d) for s in (p, q, r)}
    ys = {s: Y(s, d) for s in (p, q, r)}
    report = {}
    # dimension 6
    rows = []
    for s in (p, q, r):
        for dd in fano.lines_through(s):
            rows.append(x_vector(s, dd))
    report["dimension"] = linalg.rank(rows, QQ)
    # cyclic bracket laws
    cyc = {(p, q): r, (q, r): p, (r, p): q}
    table = generator_brackets()
    report["x_cyclic"] = all(
        table[(a, d), (b, d)] == scale_elt(2, xs[c]) for (a, b), c in cyc.items()
    )
    report["y_cyclic"] = all(
        bracket(ys[a], ys[b]) == scale_elt(-2, ys[c]) for (a, b), c in cyc.items()
    )
    report["xy_commute"] = all(
        bracket(xs[a], ys[b]) == {} for a in (p, q, r) for b in (p, q, r)
    )
    # ideals are 3-dimensional
    report["ix_dim"] = linalg.rank([x_vector(s, d) for s in (p, q, r)], QQ)
    report["iy_dim"] = linalg.rank([to_vector(ys[s]) for s in (p, q, r)], QQ)
    # invariant subspaces of the octonion action: span(e_P: P in D) and its
    # complement in Im(O) are stable, so an entry in the column of a point
    # lies in the row of a point on the same side of D; I_X acts as zero on
    # the first, so its matrices have no entry in the column of a point on D
    line = fano.LINE_POINTS[d]
    xm = [x_matrix2(s, d) for s in (p, q, r)]
    ym = [matrix2(ys[s]) for s in (p, q, r)]
    report["invariant_subspaces"] = all(
        col == 0 or (i != 0 and (i in line) == (col in line))
        for m2 in xm + ym
        for i, col in m2
    )
    report["ix_acts_trivially_on_line"] = all(
        col not in line for m2 in xm for _, col in m2
    )
    return report


def line_subalgebras_hold():
    """AC11.lines: the structure of g_D for each of the seven lines."""
    want = {
        "dimension": 6, "x_cyclic": True, "y_cyclic": True, "xy_commute": True,
        "ix_dim": 3, "iy_dim": 3, "invariant_subspaces": True, "ix_acts_trivially_on_line": True,
    }
    return all(eps_cyclic_order(d) and line_subalgebra_report(d) == want for d in fano.LINES)


def root_system(p):
    """The 12 vectors {+-X, +-Y} at a point, with squared lengths and the
    alpha/beta closure pattern of a G2 root system.
    """
    ds = LINE_CYCLE[p]
    xs = [X(p, d) for d in ds]
    ys = [Y(p, d) for d in ds]
    vectors = []
    for v in xs + ys:
        vectors.append(v)
        vectors.append(scale_elt(-1, v))
    keys = {tuple(sorted(v.items())) for v in vectors}
    report = {"count": len(keys)}
    report["x_lengths"] = sorted(pair_inner(v, v) for v in xs)
    report["y_lengths"] = sorted(pair_inner(v, v) for v in ys)
    alpha = X(p, ds[0])
    beta = Y(p, ds[1])
    combos = [
        alpha,
        beta,
        add_elt(alpha, beta),
        add_elt(beta, scale_elt(2, alpha)),
        add_elt(beta, scale_elt(3, alpha)),
        add_elt(scale_elt(2, beta), scale_elt(3, alpha)),
    ]
    closure = set()
    ok = True
    for v in combos:
        for w in (v, scale_elt(-1, v)):
            k = tuple(sorted(w.items()))
            if k not in keys:
                ok = False
            closure.add(k)
    report["closure_matches"] = ok and closure == keys
    return report


def root_systems_hold():
    """AC12.roots: the root system at each of the seven points."""
    want = {"count": 12, "x_lengths": [2, 2, 2], "y_lengths": [6, 6, 6], "closure_matches": True}
    return all(root_system(p) == want for p in fano.POINTS)


# ---------------------------------------------------------------------------
# the sign delta of augmented automorphisms acting on the X's


_POINT_BIT = (0,) + tuple(1 << (q - 1) for q in fano.POINTS)


@lru_cache(maxsize=None)
def _delta_hat_word(g):
    """The sign word of (g, +1), memoized per collineation, in one pass over
    the entries of the 21 matrices 2 rho_hat(X_{P,D}).

    ghat = (g, s) fixes e_0 and sends e_Q to s_Q e_{gQ}, so conjugating a
    spinor matrix moves its entry (a, b) to (ga, gb) times s_a s_b (with
    g0 = 0 and s_0 = 1).  A nonzero entry v of 2 rho_hat(X_{P,D}) lands on
    sign times the entry t of 2 rho_hat(X_{gP,gD}) at (ga, gb) iff t = +-v
    and sign = (t/v) s_a s_b.  With -1 written as the bit 1, that sign is an
    affine form over Z_2 in the bits of s: its constant, the bit t = -v,
    depends on g, and its coefficient of s_Q does not.

    Bits 0..6 of the word hold the sign at each point, read off its first
    entry.  Each higher bit is a check that passes iff it reads 0.  Per
    (P, D): each further entry agrees with the first; then a bit set if some
    entry lands on no +-v or the two matrices differ in their number of
    entries.  Per P, after its lines: the other two lines agree with the
    first.  This word holds the constants of those forms; the parts that
    depend on s are in _delta_hat_layout.
    """
    img = (0,) + g
    lines = fano.line_perm(g)
    word, k = 0, 7
    for p in fano.POINTS:
        leads = []
        for d in fano.lines_through(p):
            source = x_matrix2(p, d)
            target = x_matrix2(g[p - 1], lines[d - 1])
            first, lands = None, len(source) == len(target)
            for (a, b), v in source.items():
                t = target.get((img[a], img[b]))
                flip = t == -v
                lands = lands and (flip or t == v)
                if first is None:
                    first = flip
                else:
                    word |= (flip ^ first) << k
                    k += 1
            word |= (not lands) << k
            k += 1
            leads.append(first)
        word |= leads[0] << (p - 1)
        for lead in leads[1:]:
            word |= (lead ^ leads[0]) << k
            k += 1
    return word


@lru_cache(maxsize=None)
def _delta_hat_layout():
    """What the sign words share for every g, laid out as in _delta_hat_word:
    for each sign vector s, the word XORed into that of (g, +1) to give the
    word of (g, s); and the error message of each check bit.

    The coefficients of the forms come from the entries (a, b) of the
    source matrices alone: s_a s_b, the bits of a and b.  Bit k of the word
    for s_Q = -1 is the coefficient of s_Q in bit k, and the word of any s
    is the XOR of those of its -1 points.
    """
    from . import lifting

    coeffs, errors = [0] * 7, []
    for p in fano.POINTS:
        leads = []
        for d in fano.lines_through(p):
            forms = [_POINT_BIT[a] ^ _POINT_BIT[b] for a, b in x_matrix2(p, d)]
            leads.append(forms[0])
            coeffs += [f ^ forms[0] for f in forms[1:]] + [0]
            errors += [
                "conjugate of X_{P%d,D%d} is not proportional to an X" % (p, d)
            ] * len(forms)
        coeffs[p - 1] = leads[0]
        coeffs += [lead ^ leads[0] for lead in leads[1:]]
        errors += ["delta depends on the line at P%d" % p] * (len(leads) - 1)
    cols = [sum((c >> q & 1) << k for k, c in enumerate(coeffs)) for q in range(7)]
    # the word of the sign mask m: that of m without its lowest bit, XOR the
    # column of that bit
    words = [0]
    for m in range(1, 128):
        low = m & -m
        words.append(words[m ^ low] ^ cols[low.bit_length() - 1])
    return dict(zip(lifting.SIGNS, words)), tuple(errors)


def delta_hat_fn(aug):
    """The signs delta(P), P = P1..P7, with ghat X_{P,D} ghat^-1 =
    delta(P) X_{gP,gD} for every line D through P, as the mask of the
    points where delta is -1: the low seven bits of the word.

    The word of (g, s) is that of (g, +1) XOR the word of s, so every entry
    and agreement of all 21 generators is evaluated at once.  The first set
    check bit raises AssertionError naming the first (P, D) whose conjugate
    is no signed X, or the first P whose sign depends on the line.
    """
    g, s = aug
    flips, errors = _delta_hat_layout()
    word = _delta_hat_word(g) ^ flips[s]
    failed = word >> 7
    if failed:
        raise AssertionError(errors[(failed & -failed).bit_length() - 1])
    return word


@lru_cache(maxsize=None)
def delta_hat_claims():
    """The observed value of each AC10 claim by name, from one sweep of
    delta_hat_fn over the 1344 signed automorphisms; memoized.  An element
    whose delta fails its checks gets no value, so those claims fail
    rather than raise."""
    from . import lifting, radon

    group = lifting.enumerate_aug_group()
    fns = {}
    for aug in group:
        try:
            fns[aug] = delta_hat_fn(aug)
        except AssertionError:
            pass
    counts = Counter(fns.values())
    return {
        "welldefined": len(fns) == len(group),
        "count": (len(counts), set(counts.values())),
        # R: an even number of -1 points
        "in-R": all(not fn.bit_count() % 2 for fn in counts),
        # the transform of each delta against the line signs of the base
        "radon": all(
            radon.radon(fn) == lifting.delta_star_fn(aug[0]) for aug, fn in fns.items()
        ),
        # the +1 points of the delta of ahat; none when ahat has no delta
        "ahat": {
            p for p in fano.POINTS if not radon.evaluate(fns.get(lifting.AHAT, radon.ONE), p)
        },
    }


# ---------------------------------------------------------------------------
# point subalgebras (sl(3)/su(3)) and the almost-complex structure


def point_subalgebra_generators(p):
    """The nine X's annihilating e_P (eight independent): for each line D
    through P, the three X_{Q,D} with Q on D.
    """
    gens = []
    for d in fano.lines_through(p):
        for q in sorted(fano.LINE_POINTS[d]):
            gens.append((q, d))
    return tuple(gens)


@lru_cache(maxsize=None)
def point_subalgebra_dimension(p):
    """The rank of the nine generators of s_P; memoized per point."""
    rows = [x_vector(q, d) for q, d in point_subalgebra_generators(p)]
    return linalg.rank(rows, QQ)


def point_subalgebra_annihilates(p):
    """Each generator's spinor matrix kills both the unit and e_P."""
    return all(
        col not in (0, p)
        for q, d in point_subalgebra_generators(p)
        for _, col in x_matrix2(q, d)
    )


def point_subalgebra_closed(p):
    """The span of the nine generators contains all 81 of their brackets,
    read off generator_brackets(); each distinct bracket is tested once."""
    gens = point_subalgebra_generators(p)
    table = generator_brackets()
    span = linalg.Echelon(QQ, [x_vector(*pd) for pd in gens])
    brackets = {frozenset(table[a, b].items()): table[a, b] for a in gens for b in gens}
    return all(to_vector(z) in span for z in brackets.values())


def point_subalgebras_hold():
    """AC11.point-subalgebras: each s_P has dimension 8, kills 1 and e_P and
    is closed."""
    return all(
        point_subalgebra_dimension(p) == 8
        and point_subalgebra_annihilates(p)
        and point_subalgebra_closed(p)
        for p in fano.POINTS
    )


def chevalley_report(field):
    """The rank-2 presentation of s_P1 over a field containing sqrt(-1).

    Checks every displayed relation: the h-eigenvalues, [e+,e-] = -4h,
    cross terms zero, [e+-_{D1}, e+-_{D7}] = -2 e+-_{D5} and the D5 ladder.
    The eigenvalues h1_ep1, h1_ep7, h2_ep1 and h2_ep7 are the four entries
    of the Cartan matrix ((2,-1),(-1,2)).
    """
    if not field.has_sqrt_minus_one():
        raise ValueError("the Chevalley presentation needs sqrt(-1) in the field")
    i_ = field.sqrt_minus_one()

    def F(x):
        return {k: field.of(v) for k, v in x.items()}

    h1 = scale_elt(-i_, F(X(1, 1)))
    h2 = scale_elt(-i_, F(X(1, 7)))
    ep1 = add_elt(F(X(2, 1)), scale_elt(-i_, F(X(4, 1))))
    em1 = add_elt(F(X(2, 1)), scale_elt(i_, F(X(4, 1))))
    ep7 = add_elt(F(X(3, 7)), scale_elt(-i_, F(X(7, 7))))
    em7 = add_elt(F(X(3, 7)), scale_elt(i_, F(X(7, 7))))
    # the D5 ladder pair: e+- = X_{P5,D5} +- i X_{P6,D5}, pinned by requiring
    # [e+-_{D1}, e+-_{D7}] = -2 e+-_{D5} below
    ep5 = add_elt(F(X(5, 5)), scale_elt(i_, F(X(6, 5))))
    em5 = add_elt(F(X(5, 5)), scale_elt(-i_, F(X(6, 5))))

    two = field.of(2)
    four = field.of(4)
    checks = {
        "h1_ep1": bracket(h1, ep1) == scale_elt(two, ep1),
        "h1_em1": bracket(h1, em1) == scale_elt(-two, em1),
        "h1_ep7": bracket(h1, ep7) == scale_elt(field.of(-1), ep7),
        "h1_em7": bracket(h1, em7) == scale_elt(field.one, em7),
        "h2_ep1": bracket(h2, ep1) == scale_elt(field.of(-1), ep1),
        "h2_em1": bracket(h2, em1) == scale_elt(field.one, em1),
        "h2_ep7": bracket(h2, ep7) == scale_elt(two, ep7),
        "h2_em7": bracket(h2, em7) == scale_elt(-two, em7),
        "ep1_em1": bracket(ep1, em1) == scale_elt(-four, h1),
        "ep7_em7": bracket(ep7, em7) == scale_elt(-four, h2),
        "ep1_em7": bracket(ep1, em7) == {},
        "ep7_em1": bracket(ep7, em1) == {},
        "ep1_ep7": bracket(ep1, ep7) == scale_elt(-two, ep5),
        "em1_em7": bracket(em1, em7) == scale_elt(-two, em5),
        "h1_ep5": bracket(h1, ep5) == ep5,
        "h2_ep5": bracket(h2, ep5) == ep5,
        "h1_em5": bracket(h1, em5) == scale_elt(field.of(-1), em5),
        "h2_em5": bracket(h2, em5) == scale_elt(field.of(-1), em5),
        "ep5_em5": bracket(ep5, em5) == scale_elt(-four, add_elt(h1, h2)),
    }
    return checks


@lru_cache(maxsize=None)
def chevalley_gate(field):
    """Whether every relation holds when -1 is a square in field, and
    chevalley_report raises ValueError otherwise; memoized per field, and
    PrimeField objects of one p are one field."""
    if not field.has_sqrt_minus_one():
        try:
            chevalley_report(field)
        except ValueError:
            return True
        return False
    return all(v is True for v in chevalley_report(field).values())


def chevalley_gates():
    """AC11.chevalley: the outcome over Q(i), over F_5, and over Q and F_3."""
    return (
        chevalley_gate(QI),
        chevalley_gate(PrimeField(5)),
        chevalley_gate(QQ) and chevalley_gate(PrimeField(3)),
    )


def almost_complex_report(p):
    """J(e_Q) = e_Q e_P = eps_{QP} e_{P+Q} on V = span(e_Q : Q != P):
    J^2 = -Id, J isometry, J commutes with all of s_P.

    J has entries 0 and +-1, and it commutes with rho_hat(X) iff it commutes
    with the integer matrix 2 rho_hat(X), so all of it is integer arithmetic.
    """
    v = [q for q in fano.POINTS if q != p]
    # column Q of J is e_Q e_P, column P of rho(e_Q)
    J = {(k, q): s for q in v for (k, j), s in rho()[q].items() if j == p}
    ident = {(q, q): 1 for q in v}
    report = {"j_squared_minus_id": _product(J, J) == scale_elt(-1, ident)}
    # isometry for the standard form: columns orthonormal
    jt = {(j, i): s for (i, j), s in J.items()}
    report["isometry"] = _product(jt, J) == ident
    # commutation with the restrictions to V of the spinor matrices of the
    # s_P generators
    report["commutes_with_s_p"] = True
    for q, d in point_subalgebra_generators(p):
        r = {(i, j): c for (i, j), c in x_matrix2(q, d).items() if i in v and j in v}
        if _product(r, J) != _product(J, r):
            report["commutes_with_s_p"] = False
    report["s_p_dimension"] = point_subalgebra_dimension(p)
    return report


def almost_complex_structures_hold():
    """AC11.almost-complex: the structure J at each of the seven points."""
    want = {
        "j_squared_minus_id": True, "isometry": True, "commutes_with_s_p": True, "s_p_dimension": 8,
    }
    return all(almost_complex_report(p) == want for p in fano.POINTS)


# ---------------------------------------------------------------------------
# Lie closures generated by two X's


def lie_closure(gens):
    """A basis of the Lie algebra generated by the given elements, by a
    worklist.

    Each kept element is bracketed once with every element kept before it,
    and a bracket outside the span so far is kept too.  When the list ends,
    [b_j, b_i] lies in the span for all j < i, and so, by antisymmetry, for
    all j and i (AC8.jacobi certifies it on g2).  The span is then closed
    under the bracket, by bilinearity, and it is the smallest such.
    """
    echelon = linalg.Echelon(QQ)
    basis_elts = [x for x in gens if echelon.add(to_vector(x))]
    for i, x in enumerate(basis_elts):
        for y in basis_elts[:i]:
            z = bracket(y, x)
            if z and echelon.add(to_vector(z)):
                basis_elts.append(z)
    return basis_elts


def pair_closure_dimensions():
    """AC11.pair-closures: the closure dimensions of the O4 and the O2
    pairs.  O4 closes on the bracket-law triple of dimension 3, forced by
    the verified law: the third generator cycles back onto the first two.
    Both orders of a pair list the same two generators, so each is closed
    once."""
    dims = {"O4": set(), "O2": set()}
    closure_of = {}
    for pd1 in INCIDENT_PAIRS:
        for pd2 in INCIDENT_PAIRS:
            found = dims.get(classify_pair(pd1, pd2))
            if found is not None:
                pair = frozenset((pd1, pd2))
                if pair not in closure_of:
                    closure_of[pair] = len(lie_closure([X(*pd1), X(*pd2)]))
                found.add(closure_of[pair])
    return dims["O4"], dims["O2"]


def triangle_closure_dimension():
    """AC11.triangle-generation: the closure of h_P1 + h_P2 + h_P3."""
    return len(lie_closure([X(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]))


def o3_example_report():
    """Structure of the algebra generated by the O3 pair (X_{P1,D1}, X_{P7,D7}):
    dimension 4, -1/2 Y_{P1,D7} central, derived ideal spanned by the three
    X_{.,D7}.
    """
    g1 = X(1, 1)
    g2_ = X(7, 7)
    basis_elts = lie_closure([g1, g2_])
    center_elt = scale_elt(Fraction(-1, 2), Y(1, 7))
    report = {"dimension": len(basis_elts)}
    report["center_elt_in_algebra"] = to_vector(center_elt) in linalg.Echelon(
        QQ, map(to_vector, basis_elts)
    )
    report["center_elt_central"] = all(
        bracket(center_elt, x) == {} for x in basis_elts
    )
    derived = linalg.Echelon(
        QQ, [to_vector(bracket(x, y)) for x in basis_elts for y in basis_elts]
    )
    expected = [x_vector(q, 7) for q in sorted(fano.LINE_POINTS[7])]
    # the spans are equal: the same dimension, and expected inside derived
    report["derived_ideal_matches"] = len(derived) == linalg.rank(expected, QQ) and all(
        v in derived for v in expected
    )
    report["derived_dimension"] = len(derived)
    return report


# ---------------------------------------------------------------------------
# bracket table export


def bracket_table():
    """21x21 table over incident pairs: orbit tag, sign/coefficient and the
    resulting incident pair (or None for zero brackets).
    """
    out = []
    for a in INCIDENT_PAIRS:
        row = []
        for b in INCIDENT_PAIRS:
            tag, coeff, flag = _bracket_case(a, b)
            result = ["P%d" % flag[0], "D%d" % flag[1]] if flag else None
            row.append({"orbit": tag, "coeff": coeff, "result": result})
        out.append(row)
    return out


def bracket_table_json():
    return json.dumps(
        {
            "basis": [["P%d" % p, "D%d" % d] for p, d in INCIDENT_PAIRS],
            "table": bracket_table(),
        },
        indent=2,
    )


def bracket_table_text():
    names = ["X(P%d,D%d)" % pd for pd in INCIDENT_PAIRS]
    width = max(len(n) for n in names) + 2
    lines = [" " * width + "".join("%-12s" % n for n in names)]
    tab = bracket_table()
    for name, row in zip(names, tab):
        cells = []
        for cell in row:
            if cell["coeff"] == 0:
                cells.append("%-12s" % "0")
            else:
                c = cell["coeff"]
                pref = {1: "", -1: "-", 2: "2", -2: "-2"}[c]
                cells.append(
                    "%-12s" % ("%sX(%s,%s)" % (pref, cell["result"][0], cell["result"][1]))
                )
        lines.append("%-*s" % (width, name) + "".join(cells))
    return "\n".join(lines)
