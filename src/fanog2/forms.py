"""Exterior algebra on seven generators and the invariant 3- and 4-forms.

A k-form is a dict mapping sorted k-tuples of point labels to exact scalars;
wedge products resolve signs by inversion parity.  The distinguished forms

    omega = sum over lines {P,Q,R} of eps_PQ eps_QR eps_RP e^P^e^Q^e^R
    Omega = sum over quadrilaterals {P,Q,R,S} of eps_PQ eps_RS e^P^e^Q^e^R^e^S

are each a sum of 7 terms with ordering-independent coefficients, and are
killed by the derivation action of every generator X_{P,D}.  Forms are
sparse dicts like the so(7) elements of g2: wedge, contract and derive sum
their terms with g2.combine, and g2.pair_inner pairs them.
"""

from functools import lru_cache
from itertools import chain, combinations, permutations, starmap
from math import prod
from operator import gt, neg

from . import compfactor, fano, g2, linalg
from .scalars import QQ

VOL_KEY = (1, 2, 3, 4, 5, 6, 7)


def _sort_with_sign(idx):
    """Sort a tuple of labels, with the parity of the permutation, read off
    the number of pairs out of order.  A repeated label gives (None, 0)."""
    if len(set(idx)) < len(idx):
        return None, 0
    return tuple(sorted(idx)), (-1) ** sum(starmap(gt, combinations(idx, 2)))


def wedge(a, b):
    return g2.combine(
        (key, s * va * vb)
        for ka, va in a.items()
        for kb, vb in b.items()
        for key, s in (_sort_with_sign(ka + kb),)
        if s
    )


def contract(v, a):
    """Interior product i_v with a vector given as {label: coeff}."""
    return g2.combine(
        (key[:pos] + key[pos + 1 :], (-1 if pos % 2 else 1) * v[p] * c)
        for key, c in a.items()
        for pos, p in enumerate(key)
        if p in v
    )


def omega(eps=compfactor.EPS_TAU):
    """The invariant 3-form: one term eps_PQ eps_QR eps_RP e^P^e^Q^e^R per
    line {P,Q,R}.  Memoized per table, as big_omega is: callers share the
    dict and only read it.
    """
    return _form(eps, "line")


def big_omega(eps=compfactor.EPS_TAU):
    """The invariant 4-form: one term eps_PQ eps_RS e^P^e^Q^e^R^e^S per
    quadrilateral {P,Q,R,S}."""
    return _form(eps, "quadrilateral")


# the blocks of each form, and the pairs of positions in a block whose eps
# multiply to the coefficient of its term
_BLOCKS = {
    "line": (fano.LINE_POINTS, ((0, 1), (1, 2), (2, 0))),
    "quadrilateral": (fano.QUADRILATERALS, ((0, 1), (2, 3))),
}

# the orderings of the n positions of a block, each with its sign: the sign
# of e^P^... in the order of the ordering, against the sorted key
_ORDERINGS = {n: tuple((o, _sort_with_sign(o)[1]) for o in permutations(range(n))) for n in (3, 4)}


@lru_cache(maxsize=None)
def _form(eps, block):
    """The form with one term per block whose coefficient is the same over
    all orderings of the block.  A block where they disagree has no term, so
    the form has fewer than 7 and the AC13 claims that read it fail."""
    blocks, pairs = _BLOCKS[block]
    out = {}
    for d in fano.LINES:
        key = tuple(sorted(blocks[d]))
        values = {
            s * prod([eps[key[o[i]] - 1][key[o[j]] - 1] for i, j in pairs])
            for o, s in _ORDERINGS[len(key)]
        }
        if len(values) == 1:
            out[key] = values.pop()
    return out


def term_counts():
    """AC13.terms: the number of terms of omega and of Omega."""
    return len(omega()), len(big_omega())


@lru_cache(maxsize=None)
def _derivation_table():
    """How each pair e_ij moves the basis 3- and 4-forms, memoized:
    table[i, j][K] is the one term (key, sign) of e_ij e^K, for each K that
    holds exactly one of i and j (every other K goes to zero).

    [e_ij, e_k] = d_ik e_j - d_jk e_i, and on a dual form the action is minus
    the transpose, slot by slot: e^i becomes e^j and e^j becomes -e^i.
    Moving the new label from position pos to its sorted place n takes
    |pos - n| transpositions.
    """
    table = {pair: {} for pair in g2.PAIRS}
    for key in chain(combinations(fano.POINTS, 3), combinations(fano.POINTS, 4)):
        for pos, p in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            n = 0  # the labels of rest below q
            for q in fano.POINTS:
                if q in key:
                    n += q != p
                else:
                    out = rest[:n] + (q,) + rest[n:]
                    table[(p, q) if p < q else (q, p)][key] = (out, (-1) ** (pos + n + (p > q)))
    return table


def derive(x, a):
    """The derivation action of an so(7) element x on a 3- or 4-form a, read
    off _derivation_table."""
    table = _derivation_table()
    return g2.combine(
        (out, c * s * w)
        for pair, c in x.items()
        for key, w in a.items()
        if key in table[pair]
        for out, s in (table[pair][key],)
    )


def derivation_kills_forms():
    forms_ = (omega(), big_omega())
    return not any(derive(g2.X(*pd), a) for pd in g2.INCIDENT_PAIRS for a in forms_)


def invariant_three_form_dimension():
    """Dimension of the space of 3-forms killed by all of g2: 35 minus the
    rank of the rows (X, K'), the coefficients of e^K' in X e^K over the 35
    K, for the 14 basis X's; each distinct row that is not zero is read once,
    up to sign."""
    keys = list(combinations(fano.POINTS, 3))
    table = _derivation_table()
    rows = set()
    for pd in g2.g2_basis():
        image = g2.combine(
            ((out, n), c * s)
            for pair, c in g2.X(*pd).items()
            for n, key in enumerate(keys)
            if key in table[pair]
            for out, s in (table[pair][key],)
        )
        stacked = {}
        for (out, n), v in image.items():
            stacked.setdefault(out, [0] * len(keys))[n] = v
        # a row and its negative have one rank: each is read with its first
        # nonzero entry positive
        for row in stacked.values():
            rows.add(tuple(row) if next(filter(None, row)) > 0 else tuple(map(neg, row)))
    return len(keys) - linalg.rank(rows, QQ)


def bilinear_identity_check():
    """i_v omega ^ i_w omega ^ omega = -6 B(v,w) vol on all basis pairs; the
    wedge is associative, so each i_w omega ^ omega is formed once."""
    om = omega()
    cs = {p: contract({p: 1}, om) for p in fano.POINTS}
    tails = {q: wedge(c, om) for q, c in cs.items()}
    return all(
        wedge(cs[p], tails[q]) == ({VOL_KEY: -6} if p == q else {})
        for p in fano.POINTS
        for q in fano.POINTS
    )


def volume_identity_check(eps=compfactor.EPS_TAU):
    """Omega ^ omega = -7 vol."""
    return wedge(big_omega(eps), omega(eps)) == {VOL_KEY: -7}


def norm_report():
    """<omega,omega> and <Omega,Omega> under the orthonormal-subset
    convention; both come out 7 since each form is 7 terms of +-1.
    """
    om = omega()
    Om = big_omega()
    return {"omega": g2.pair_inner(om, om), "Omega": g2.pair_inner(Om, Om)}
