"""The Lie algebra g2, read off the incidence law, and inside so(7).

g2 is the annihilator of the unit octonion; its generators X_{P,D} are
indexed by the 21 incident point-line pairs, the flags.  The incidence law
gives every [X_a, X_b] as c X_f; law() holds it as integer tables, with
the X's over 14 basis flags, and the claims about g2 alone (Jacobi, the
Cartan, decomposition, line and point subalgebra claims, Lie closures)
read it.  AC8.bracket-law bridges three paths on all 441 pairs: the law,
so(7) structure constants on the pair basis e_{PiPj} (i < j, sparse dicts
{(i,j): coefficient} with e_{PjPi} = -e_{PiPj}), and 8x8 spinor matrices,
kept as their nonzero entries {(row, col): value}; _product is the one
matrix product.  so(7) and the matrices serve the claims about the
embedding.  AC8.action certifies against the matrices the incidence
formula [X_{P,D}, e_Q] = sigma e_{P+Q} of lifting.action_signs, from which
lifting.delta_hats reads the point sign delta of the 1344 signed
automorphisms; the AC10 claims read that sweep.  The generators, and so
every sign, are those of the canonical composition factor
compfactor.EPS_TAU; coefficients are in Z, or in Z[i] in the Chevalley
presentation.

Sums of sparse terms go through combine: elt, law elements, _product,
matrix2 and the wedge, contract and derive of forms.  add_elt and bracket
keep their own loops: the kernels benchmark draws its inputs with add_elt
and times bracket.
"""

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations
import json
from operator import itemgetter
from types import SimpleNamespace

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
    v = [0] * len(PAIRS)
    for k, c in x.items():
        v[PAIR_INDEX[k]] = c
    return v


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


def _by_row(m):
    """A matrix's entries grouped by row, {row: [(col, value)]}, for _product."""
    rows = {}
    for (k, j), v in m.items():
        rows.setdefault(k, []).append((j, v))
    return rows


def _product_terms(a, b_rows, s):
    """The terms ((i, j), s a_ik b_kj) of s ab, with b grouped by _by_row."""
    return (((i, j), s * u * v) for (i, k), u in a.items() for j, v in b_rows.get(k, ()))


def _product(a, b_rows):
    """ab for matrices given by their entries, with b grouped by _by_row;
    zeros are dropped."""
    return combine(_product_terms(a, b_rows, 1))


def _commutator(a, a_rows, b, b_rows):
    """ab - ba, with each matrix also given grouped by _by_row, as one sum."""
    return combine(chain(_product_terms(a, b_rows, 1), _product_terms(b, a_rows, -1)))


@lru_cache(maxsize=None)
def pair_matrix2():
    """2 * rho_hat(e_{PiPj}) = (1/2)[rho_i, rho_j], integer entries."""
    r = rho()
    rows = {p: _by_row(m) for p, m in r.items()}
    return {
        (i, j): {k: v // 2 for k, v in _commutator(r[i], rows[i], r[j], rows[j]).items()}
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
    (_, nxt), (_, prev) = y_terms(p, d)
    return add_elt(X(*nxt), scale_elt(-1, X(*prev)))


def y_terms(p, d):
    """Y_{P,D} as the terms (1, (P, next)) and (-1, (P, prev)) of law_element."""
    _check_incident(p, d)
    cycle = LINE_CYCLE[p]
    k = cycle.index(d)
    return (1, (p, cycle[(k + 1) % 3])), (-1, (p, cycle[k - 1]))


def point_relations_hold():
    """AC7.point-relations: at each point, the three X's sum to zero."""
    return not any(
        combine(t for d in fano.lines_through(p) for t in X(p, d).items())
        for p in fano.POINTS
    )


def span_dimension():
    """Rank of the 21 X's in the pair basis, the size of g2_basis(); equals
    dim g2 = 14."""
    return len(g2_basis())


def annihilator_dimension():
    """Dimension of {x in so(7): rho_hat(x)(1) = 0}, solved as a linear system.

    The map x -> 2*rho_hat(x)(unit) is linear in the 21 pair coordinates.
    """
    pm = pair_matrix2()
    rows = [[pm[k].get((i, 0), 0) for k in PAIRS] for i in range(8)]
    return len(PAIRS) - linalg.rank(rows, QQ)


@lru_cache(maxsize=None)
def g2_basis():
    """The X's independent of those before them: a basis of their span over Q."""
    echelon = linalg.Echelon(QQ)
    return tuple(pd for pd in INCIDENT_PAIRS if echelon.add(x_vector(*pd)))


# ---------------------------------------------------------------------------
# the action on basis octonions


def action_formula_holds():
    """AC8.action: the incidence formula lifting.action_signs against the
    spinor matrices on all 147 cases (P, D, Q): the commutator of
    2 rho_hat(X_{P,D}) with rho(e_Q) is 2 rho([X_{P,D}, e_Q]), with
    [X_{P,D}, e_Q] = sigma e_{P+Q}.  Each matrix is grouped by row once.
    """
    from . import lifting

    r = rho()
    r_rows = {q: _by_row(m) for q, m in r.items()}
    mats = {pd: x_matrix2(*pd) for pd in INCIDENT_PAIRS}
    m_rows = {pd: _by_row(m) for pd, m in mats.items()}
    return all(
        _commutator(mats[p, d], m_rows[p, d], r[q], r_rows[q])
        == (scale_elt(2 * s, r[fano.add(p, q)]) if s else {})
        for (p, d, q), s in lifting.action_signs().items()
    )


# ---------------------------------------------------------------------------
# orbit classification of pairs of incident pairs and the bracket law


@lru_cache(maxsize=None)
def classify_pair(pd1, pd2):
    """Orbit tag of a pair of incident pairs: D, O1, O2, O3, O3', or O4;
    memoized (441 in all)."""
    (p1, d1), (p2, d2) = pd1, pd2
    _check_incident(p1, d1)
    _check_incident(p2, d2)
    if p1 == p2:
        return "D" if d1 == d2 else "O1"
    if d1 == d2:
        return "O2"
    in31, in32 = p1 in fano.LINE_POINTS[d2], p2 in fano.LINE_POINTS[d1]
    if in31 and in32:
        # both incidences would force d1 == d2 for incident pairs
        raise AssertionError("impossible incidence configuration")
    return "O3" if in31 else "O3'" if in32 else "O4"


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
    e = (2 if tag == "O2" else -1) * compfactor.eps_get(compfactor.EPS_TAU, p1, p2)
    return tag, e, (fano.add(p1, p2), fano.line_add(d1, d2) if tag == "O4" else fano.wedge(p1, p2))


@lru_cache(maxsize=None)
def law():
    """The incidence law as integer tables, memoized: table[a, b] = (coeff,
    flag) of [X_a, X_b] = coeff X_flag over the 441 ordered pairs of flags,
    read off _bracket_case (flag None for 0).  The law algebra has the 14
    basis flags: at each point P the first two lines of LINE_CYCLE[P], whose
    third X is minus their sum (AC7.point-relations).  An element is
    {basis index: coefficient}: coords[f] is flag f (empty for None),
    vectors[f] its 14 coordinates, and tensor[i][j], of at most two terms,
    is [b_i, b_j].
    """
    coords, basis = {}, []
    for n, p in enumerate(fano.POINTS):
        a, b, c = ((p, d) for d in LINE_CYCLE[p])
        basis += a, b
        coords[a], coords[b], coords[c] = {2 * n: 1}, {2 * n + 1: 1}, {2 * n: -1, 2 * n + 1: -1}
    coords[None] = {}
    vectors = {f: tuple(x.get(n, 0) for n in range(len(basis))) for f, x in coords.items()}
    table = {(a, b): _bracket_case(a, b)[1:] for a in INCIDENT_PAIRS for b in INCIDENT_PAIRS}
    tensor = [[scale_elt(c, coords[f]) for c, f in (table[a, b] for b in basis)] for a in basis]
    return SimpleNamespace(table=table, coords=coords, vectors=vectors, basis=basis, tensor=tensor)


def law_element(terms):
    """The law-algebra element sum c X_f of (c, f) terms."""
    coords = law().coords
    return combine((m, c * v) for c, f in terms for m, v in coords[f].items())


def law_bracket(x, y):
    """[x, y] of sums of X's, as (c, f) terms, read off the law table."""
    table = law().table
    return law_element((a * b * c, f) for a, g in x for b, h in y for c, f in [table[g, h]])


def check_bracket_law():
    """Three-way agreement over all 441 ordered pairs: the law table of law()
    == the structure-constant bracket of the X's, and == the spinor-matrix
    commutator.  Each unordered pair is bracketed once: [B, A] = -[A, B]
    for AB - BA, and for the so(7) bracket once its constants are checked
    antisymmetric; both orders then agree with the law iff it is
    antisymmetric there, as the X's at distinct flags are independent.
    matrix2 is linear, so matrix2(coeff X_flag) = coeff x_matrix2(flag).
    """
    table, sc = law().table, structure_constants()
    if any(sc[l].get(k) != (-s, m) for k, row in enumerate(sc) for l, (s, m) in row.items()):
        return False
    xs = {pd: _generator(*pd)[0] for pd in INCIDENT_PAIRS}
    mats = {pd: x_matrix2(*pd) for pd in INCIDENT_PAIRS}
    rows = {pd: _by_row(m) for pd, m in mats.items()}
    for a, b in combinations_with_replacement(INCIDENT_PAIRS, 2):
        coeff, flag = table[a, b]
        # [2A, 2B] = 4[A,B] = 2 * (2[A,B])
        if (
            table[b, a] != (-coeff, flag)
            or bracket(xs[a], xs[b]) != (scale_elt(coeff, xs[flag]) if flag else {})
            or _commutator(mats[a], rows[a], mats[b], rows[b])
            != (scale_elt(2 * coeff, mats[flag]) if flag else {})
        ):
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
    """Jacobi identity of the law on its 14 basis flags, certified for all
    14^3 ordered triples from 196 + 364 checks; False when the 21 X's span
    other than 14 dimensions, as the basis flags are then no basis of g2.

    First [x, y] + [y, x] = 0 on all 196 ordered basis pairs, each unordered
    pair read once.  The bracket is bilinear, so it is then antisymmetric on
    all of g2, and the Jacobi sum J(x, y, z) = [x, [y, z]] + [y, [z, x]] +
    [z, [x, y]], which is cyclic by its form, changes sign when two
    arguments swap: J(y, x, z) = -J(x, y, z).  So J is alternating: it
    vanishes when two arguments are equal (2J = 0, characteristic 0), and
    on any other ordered triple it is +-J of the sorted one.  Second, J = 0
    on the 364 triples i < j < k.  Both read the structure tensor: an inner
    bracket has at most two terms, and each J sums at most six outer
    brackets, each of them packed into one integer with a field of `width`
    bits per coordinate.  Every coordinate of such a sum is below
    2^(width - 1) in size, so the sum is 0 iff each coordinate is.
    """
    tensor = law().tensor
    n = range(len(tensor))
    top = max((abs(c) for row in tensor for t in row for c in t.values()), default=0)
    width = 2 + (12 * top**2).bit_length()
    packed = [[sum(c << width * m for m, c in t.items()) for t in row] for row in tensor]
    return (
        len(g2_basis()) == 14
        and all(packed[i][j] == -packed[j][i] for i in n for j in n[i:])
        and not any(
            sum(
                c * packed[x][l]
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
                for l, c in tensor[y][z].items()
            )
            for i, j, k in combinations(n, 3)
        )
    )


# ---------------------------------------------------------------------------
# Cartan subalgebras and the decomposition


@lru_cache(maxsize=None)
def cartan_dimension(p):
    """The rank of h_P, spanned by the three X's at P; memoized per point."""
    rows = [x_vector(p, d) for d in fano.lines_through(p)]
    return linalg.rank(rows, QQ)


def cartan_is_abelian(p):
    hp = [(p, d) for d in fano.lines_through(p)]
    table = law().table
    return not any(table[a, b][0] for a in hp for b in hp)


def centralizer_dimension(pds):
    """Dimension of the centralizer inside the law algebra of the X's of the
    given flags: 14 minus the rank of [X_h, sum c_n b_n] = 0 in the c_n over
    the basis flags b_n."""
    law_ = law()
    # column b: the coordinates of [X_h, b] = c X_f over the h; the rank
    # reads each distinct column that is not zero once
    cols = {
        tuple(c * v for h in pds for c, f in [law_.table[h, b]] for v in law_.vectors[f])
        for b in law_.basis
    }
    return len(law_.basis) - linalg.rank([col for col in cols if any(col)], QQ)


def cartan_self_centralizing(p):
    """h_P is abelian, so it lies in its centralizer; equal dimensions then
    make the two equal."""
    hp = [(p, d) for d in fano.lines_through(p)]
    return cartan_is_abelian(p) and centralizer_dimension(hp) == cartan_dimension(p)


def cartans_hold():
    """AC11.cartan: each h_P is 2-dimensional and self-centralizing in g2."""
    cartans = (cartan_dimension(p) == 2 and cartan_self_centralizing(p) for p in fano.POINTS)
    return len(g2_basis()) == 14 and all(cartans)


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
    # orthogonality, symmetric, on each pair of summands once
    h = {p: [(p, d) for d in fano.lines_through(p)] for p in fano.POINTS}
    pairs = list(combinations(fano.POINTS, 2))
    xs = {pd: _generator(*pd)[0] for pd in INCIDENT_PAIRS}
    if any(pair_inner(xs[a], xs[b]) for p, q in pairs for a in h[p] for b in h[q]):
        return False
    # the brackets c X_f of h_P and h_Q span h_{P+Q}: as many dimensions,
    # and each X in it; each set of flags f is spanned once
    table, vectors = law().table, law().vectors
    spans = {
        (fano.add(p, q), frozenset(table[a, b][1] for a in h[p] for b in h[q]))
        for p, q in permutations(fano.POINTS, 2)
    }
    for r, flags in spans:
        span = linalg.Echelon(QQ, [vectors[f] for f in flags])
        if len(span) != cartan_dimension(r) or not all(vectors[f] in span for f in h[r]):
            return False
    return True


# ---------------------------------------------------------------------------
# line subalgebras (so(4)) and point root systems


def eps_cyclic_order(d):
    """The cyclic order (P,Q,R) on a line with all three eps signs +1; None
    when neither order has them, so AC11.lines fails rather than raises."""
    eps = compfactor.EPS_TAU
    a, b, c = sorted(fano.LINE_POINTS[d])
    for p, q, r in ((a, b, c), (a, c, b)):
        if eps[p - 1][q - 1] == eps[q - 1][r - 1] == eps[r - 1][p - 1] == 1:
            return p, q, r
    return None


def line_subalgebra_report(d):
    """Structure checks for g_D = h_P + h_Q + h_R, P,Q,R on D."""
    p, q, r = eps_cyclic_order(d)
    ys = {s: Y(s, d) for s in (p, q, r)}
    cyc = {(p, q): r, (q, r): p, (r, p): q}
    table, yt = law().table, {s: y_terms(s, d) for s in (p, q, r)}
    # invariant subspaces of the octonion action: span(e_P: P in D) and its
    # complement in Im(O) are stable, so an entry in the column of a point
    # lies in the row of a point on the same side of D; I_X acts as zero on
    # the first, so its matrices have no entry in the column of a point on D
    line = fano.LINE_POINTS[d]
    xm = [x_matrix2(s, d) for s in (p, q, r)]
    ym = [matrix2(ys[s]) for s in (p, q, r)]
    return {
        # dimension 6
        "dimension": linalg.rank(
            [x_vector(s, e) for s in (p, q, r) for e in fano.lines_through(s)], QQ
        ),
        # cyclic bracket laws, read off the law
        "x_cyclic": all(table[(a, d), (b, d)] == (2, (c, d)) for (a, b), c in cyc.items()),
        "y_cyclic": all(
            law_bracket(yt[a], yt[b]) == scale_elt(-2, law_element(yt[c]))
            for (a, b), c in cyc.items()
        ),
        "xy_commute": not any(law_bracket([(1, (a, d))], yt[b]) for a in yt for b in yt),
        # ideals are 3-dimensional
        "ix_dim": linalg.rank([x_vector(s, d) for s in (p, q, r)], QQ),
        "iy_dim": linalg.rank([to_vector(ys[s]) for s in (p, q, r)], QQ),
        "invariant_subspaces": all(
            col == 0 or (i != 0 and (i in line) == (col in line)) for m2 in xm + ym for i, col in m2
        ),
        "ix_acts_trivially_on_line": all(col not in line for m2 in xm for _, col in m2),
    }


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
    alpha, beta = xs[0], ys[1]
    combos = [
        alpha,
        beta,
        add_elt(alpha, beta),
        add_elt(beta, scale_elt(2, alpha)),
        add_elt(beta, scale_elt(3, alpha)),
        add_elt(scale_elt(2, beta), scale_elt(3, alpha)),
    ]
    keys = {tuple(sorted(w.items())) for v in xs + ys for w in (v, scale_elt(-1, v))}
    closure = {tuple(sorted(w.items())) for v in combos for w in (v, scale_elt(-1, v))}
    return {
        "count": len(keys),
        "x_lengths": sorted(pair_inner(v, v) for v in xs),
        "y_lengths": sorted(pair_inner(v, v) for v in ys),
        "closure_matches": closure == keys,
    }


def root_systems_hold():
    """AC12.roots: the root system at each of the seven points."""
    want = {"count": 12, "x_lengths": [2, 2, 2], "y_lengths": [6, 6, 6], "closure_matches": True}
    return all(root_system(p) == want for p in fano.POINTS)


# ---------------------------------------------------------------------------
# the sign delta of augmented automorphisms acting on the X's


@lru_cache(maxsize=None)
def delta_hat_claims():
    """The observed value of each AC10 claim by name, read off
    lifting.delta_hats; memoized.  An element whose delta fails its checks
    gets no value, so those claims fail rather than raise."""
    from . import lifting, radon

    fns, error = lifting.delta_hats()
    counts = Counter(fns.values())
    # each delta with the line word of its base, read once per collineation,
    # once per distinct pair: the 8 deltas over each delta* class
    group = fano.all_collineations()
    words = dict(zip(group, map(lifting.delta_star_fn, group)))
    pairs = set(zip(map(words.get, map(itemgetter(0), fns)), fns.values()))
    return {
        "welldefined": error is None,
        "count": (len(counts), set(counts.values())),
        # R: an even number of -1 points
        "in-R": all(not fn.bit_count() % 2 for fn in counts),
        # the transform of each delta against the line word of its base
        "radon": all(radon.radon(fn) == word for word, fn in pairs),
        # the +1 points of the delta of ahat; none when ahat has no delta
        "ahat": {
            p for p in fano.POINTS if not radon.evaluate(fns.get(lifting.AHAT, radon.ONE), p)
        },
    }


def delta_hat_welldefined():
    """AC10.welldefined: every delta passes its checks."""
    return delta_hat_claims()["welldefined"]


def delta_hat_count():
    """AC10.count: the number of distinct deltas and the set of their
    multiplicities."""
    return delta_hat_claims()["count"]


def delta_hat_in_r():
    """AC10.in-R: every delta has an even number of -1 points."""
    return delta_hat_claims()["in-R"]


def delta_hat_radon():
    """AC10.radon: the transform of each delta is the line word of its
    base."""
    return delta_hat_claims()["radon"]


def delta_hat_ahat():
    """AC10.ahat: the +1 points of the delta of AHAT."""
    return delta_hat_claims()["ahat"]


# ---------------------------------------------------------------------------
# point subalgebras (sl(3)/su(3)) and the almost-complex structure


def point_subalgebra_generators(p):
    """The nine X's annihilating e_P (eight independent): for each line D
    through P, the three X_{Q,D} with Q on D.
    """
    return tuple((q, d) for d in fano.lines_through(p) for q in sorted(fano.LINE_POINTS[d]))


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
    """The span of the nine generators contains all 81 of their brackets
    c X_f, read off the law; each flag f is tested once."""
    gens = point_subalgebra_generators(p)
    table, vectors = law().table, law().vectors
    span = linalg.Echelon(QQ, [vectors[f] for f in gens])
    return all(vectors[f] in span for f in {table[a, b][1] for a in gens for b in gens})


def point_subalgebras_hold():
    """AC11.point-subalgebras: each s_P has dimension 8, kills 1 and e_P and
    is closed."""
    return all(
        point_subalgebra_dimension(p) == 8
        and point_subalgebra_annihilates(p)
        and point_subalgebra_closed(p)
        for p in fano.POINTS
    )


# the displayed relations of s_P1: name x_y, and [x, y] = c z
CHEVALLEY_RELATIONS = (
    ("h1_ep1", 2, "ep1"), ("h1_em1", -2, "em1"), ("h1_ep7", -1, "ep7"), ("h1_em7", 1, "em7"),
    ("h2_ep1", -1, "ep1"), ("h2_em1", 1, "em1"), ("h2_ep7", 2, "ep7"), ("h2_em7", -2, "em7"),
    ("ep1_em1", -4, "h1"), ("ep7_em7", -4, "h2"), ("ep1_em7", 0, "h1"), ("ep7_em1", 0, "h1"),
    ("ep1_ep7", -2, "ep5"), ("em1_em7", -2, "em5"), ("h1_ep5", 1, "ep5"), ("h2_ep5", 1, "ep5"),
    ("h1_em5", -1, "em5"), ("h2_em5", -1, "em5"), ("ep5_em5", -4, "h"),
)


def _chevalley_elements():
    """h1, h2, e+-_{D1,D7,D5} of s_P1 and h = h1 + h2, each as the pair
    (real part, imaginary part) of integer so(7) elements."""
    x11, x17 = scale_elt(-1, X(1, 1)), scale_elt(-1, X(1, 7))
    elts = {"h1": ({}, x11), "h2": ({}, x17), "h": ({}, add_elt(x11, x17))}
    # e+- = X_a -+ i X_b; the D5 ladder pair is X_{P5,D5} +- i X_{P6,D5},
    # pinned by requiring [e+-_{D1}, e+-_{D7}] = -2 e+-_{D5}
    for line, a, b, s in ((1, 2, 4, -1), (7, 3, 7, -1), (5, 5, 6, 1)):
        im = scale_elt(s, X(b, line))
        elts["ep%d" % line] = (X(a, line), im)
        elts["em%d" % line] = (X(a, line), scale_elt(-1, im))
    return elts


def _gaussian_bracket(u, v):
    """[a + ib, c + id] = [a, c] + [d, b] + i([a, d] + [b, c]), as its parts."""
    (a, b), (c, d) = u, v
    return (
        combine(chain(bracket(a, c).items(), bracket(d, b).items())),
        combine(chain(bracket(a, d).items(), bracket(b, c).items())),
    )


@lru_cache(maxsize=None)
def chevalley_report():
    """The rank-2 presentation of s_P1, computed once over Z[i].

    Checks every displayed relation of CHEVALLEY_RELATIONS: the
    h-eigenvalues, [e+,e-] = -4h, cross terms zero, [e+-_{D1}, e+-_{D7}] =
    -2 e+-_{D5} and the D5 ladder.  The eigenvalues h1_ep1, h1_ep7, h2_ep1
    and h2_ep7 are the four entries of the Cartan matrix ((2,-1),(-1,2)).

    The X's are integral and h, e+- are Z[i]-combinations of them, so every
    coefficient here lies in Z[i]: each element is kept as its real and
    imaginary parts, two integer elements, and each relation is an identity
    of those parts.  A field F that contains a square root r of -1 gets
    the ring map Z[i] -> F, i -> r, which preserves the brackets and the
    integer constants, so the relations hold over F when they hold here.
    """
    elts = _chevalley_elements()
    return {
        name: _gaussian_bracket(*(elts[e] for e in name.split("_")))
        == tuple(scale_elt(c, part) for part in elts[z])
        for name, c, z in CHEVALLEY_RELATIONS
    }


def chevalley_gate(field):
    """Whether every relation holds over field: vacuously when -1 is not a
    square in it, else by the one computation over Z[i]."""
    return not field.has_sqrt_minus_one() or all(
        v is True for v in chevalley_report().values()
    )


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
    j_rows = _by_row(J)
    # the restrictions to V of the spinor matrices of the s_P generators
    rs = [
        {(i, j): c for (i, j), c in x_matrix2(*qd).items() if i in v and j in v}
        for qd in point_subalgebra_generators(p)
    ]
    return {
        "j_squared_minus_id": _product(J, j_rows) == scale_elt(-1, ident),
        # isometry for the standard form: columns orthonormal
        "isometry": _product({(j, i): s for (i, j), s in J.items()}, j_rows) == ident,
        "commutes_with_s_p": all(_product(r, j_rows) == _product(J, _by_row(r)) for r in rs),
        "s_p_dimension": point_subalgebra_dimension(p),
    }


def almost_complex_structures_hold():
    """AC11.almost-complex: the structure J at each of the seven points."""
    want = {
        "j_squared_minus_id": True, "isometry": True, "commutes_with_s_p": True, "s_p_dimension": 8,
    }
    return all(almost_complex_report(p) == want for p in fano.POINTS)


# ---------------------------------------------------------------------------
# Lie closures generated by two X's


def lie_closure(flags):
    """A basis of the Lie algebra generated by the X's of the given flags, as
    flags: the bracket of two flags is c X_flag, so the worklist keeps only
    flags, and the same flag never twice, so a wrong rank cannot hang.

    Each kept flag is bracketed once with every flag kept before it, by one
    lookup in the law table, and a result outside the span so far is kept
    too.  When the list ends, [b_j, b_i] lies in the span for all j < i, and
    so, by antisymmetry, for all j and i (the law is the so(7) bracket on
    all 441 pairs, AC8.bracket-law).  The span is then closed under the
    bracket, by bilinearity, and it is the smallest such.
    """
    table, vectors = law().table, law().vectors
    echelon = linalg.Echelon(QQ)
    kept = [f for f in flags if echelon.add(vectors[f])]
    for i, x in enumerate(kept):
        for y in kept[:i]:
            c, f = table[y, x]
            if c and f not in kept and echelon.add(vectors[f]):
                kept.append(f)
    return kept


def pair_closure_dimensions():
    """AC11.pair-closures: the closure dimensions of the O4 and the O2
    pairs.  O4 closes on the bracket-law triple of dimension 3, forced by
    the verified law: the third generator cycles back onto the first two.
    Both orders of a pair, of the same tag, list the same two generators,
    so each is closed once."""
    dims = {"O4": set(), "O2": set()}
    for pair in combinations(INCIDENT_PAIRS, 2):
        found = dims.get(classify_pair(*pair))
        if found is not None:
            found.add(len(lie_closure(pair)))
    return dims["O4"], dims["O2"]


def triangle_closure_dimension():
    """AC11.triangle-generation: the closure of h_P1 + h_P2 + h_P3."""
    return len(lie_closure([(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]))


def o3_example_report():
    """Structure of the algebra generated by the O3 pair (X_{P1,D1}, X_{P7,D7}):
    dimension 4, -1/2 Y_{P1,D7} central, derived ideal spanned by the three
    X_{.,D7}.  Lying in the span and being central do not change under a
    nonzero scalar, so Y_{P1,D7} itself is tested, over Z.  All of it is
    read off the law.
    """
    law_ = law()
    flags = lie_closure([(1, 1), (7, 7)])
    (_, nxt), (_, prev) = center_elt = y_terms(1, 7)
    center = [a - b for a, b in zip(law_.vectors[nxt], law_.vectors[prev])]
    brackets = {law_.table[x, y][1] for x in flags for y in flags}
    derived = linalg.Echelon(QQ, [law_.vectors[f] for f in brackets])
    expected = [law_.vectors[q, 7] for q in sorted(fano.LINE_POINTS[7])]
    return {
        "dimension": len(flags),
        "center_elt_in_algebra": center in linalg.Echelon(QQ, [law_.vectors[f] for f in flags]),
        "center_elt_central": not any(law_bracket(center_elt, [(1, f)]) for f in flags),
        # the spans are equal: the same dimension, and expected inside derived
        "derived_ideal_matches": len(derived) == linalg.rank(expected, QQ)
        and all(v in derived for v in expected),
        "derived_dimension": len(derived),
    }


# ---------------------------------------------------------------------------
# bracket table export


def bracket_table():
    """21x21 table over incident pairs: orbit tag, sign/coefficient and the
    resulting incident pair (or None for zero brackets).
    """
    return [
        [
            {"orbit": tag, "coeff": coeff, "result": flag and ["P%d" % flag[0], "D%d" % flag[1]]}
            for tag, coeff, flag in (_bracket_case(a, b) for b in INCIDENT_PAIRS)
        ]
        for a in INCIDENT_PAIRS
    ]


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
    width = max(map(len, names)) + 2
    lines = [" " * width + "".join("%-12s" % n for n in names)]
    prefix = {1: "", -1: "-", 2: "2", -2: "-2"}
    for name, row in zip(names, bracket_table()):
        cells = [c["coeff"] and "%sX(%s,%s)" % (prefix[c["coeff"]], *c["result"]) for c in row]
        lines.append("%-*s" % (width, name) + "".join("%-12s" % (c or 0) for c in cells))
    return "\n".join(lines)
