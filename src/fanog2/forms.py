"""Exterior algebra on seven generators and the invariant 3- and 4-forms.

A k-form is a dict mapping sorted k-tuples of point labels to exact scalars;
wedge products resolve signs by inversion parity.  The distinguished forms

    omega = sum over lines {P,Q,R} of eps_PQ eps_QR eps_RP e^P^e^Q^e^R
    Omega = sum over quadrilaterals {P,Q,R,S} of eps_PQ eps_RS e^P^e^Q^e^R^e^S

are each a sum of 7 terms with ordering-independent coefficients, and are
killed by the derivation action of every generator X_{P,D}.  Forms are
sparse dicts like the so(7) elements of g2: wedge, contract and
so7_derivation sum their terms with g2.combine, and g2.pair_inner pairs them.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import prod

from . import compfactor, fano, g2, linalg
from .scalars import QQ

VOL_KEY = (1, 2, 3, 4, 5, 6, 7)


@lru_cache(maxsize=None)
def _sort_with_sign(idx):
    """Sort a tuple of labels, tracking the permutation parity; memoized per
    tuple.  A repeated label gives (None, 0)."""
    lst = list(idx)
    sign = 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    if len(set(lst)) != len(lst):
        return None, 0
    return tuple(lst), sign


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


@lru_cache(maxsize=None)
def _form(eps, block):
    """The form with one term per block whose coefficient is the same over
    all orderings of the block.  A block where they disagree has no term, so
    the form has fewer than 7 and the AC13 claims that read it fail."""
    blocks, pairs = _BLOCKS[block]
    out = {}
    for d in fano.LINES:
        results = set()
        for pts in permutations(sorted(blocks[d])):
            c = prod(eps[pts[i] - 1][pts[j] - 1] for i, j in pairs)
            key, s = _sort_with_sign(pts)
            results.add((key, c * s))
        if len(results) == 1:
            key, c = results.pop()
            out[key] = c
    return out


def term_counts():
    """AC13.terms: the number of terms of omega and of Omega."""
    return len(omega()), len(big_omega())


def so7_derivation(x, a):
    """Derivation action of a pair-basis so(7) element on a form on Im(O).

    The vector action is e_{ij}: e_i -> e_j... concretely [e_{PiPj}, e_Pk] =
    d_ik e_Pj - d_jk e_Pi; on a dual k-form the action is minus the
    transpose, applied as a derivation slot by slot.
    """
    # x e_i = v e_j + ... and x e_j = -v e_i + ..., so the slot e^p becomes
    # -w e^q for each q whose image x e_q has e_p-coefficient w: image[p]
    # holds those (q, -w)
    image = {}
    for (i, j), v in x.items():
        image.setdefault(j, []).append((i, -v))
        image.setdefault(i, []).append((j, v))
    return g2.combine(
        (skey, s * w * c)
        for key, c in a.items()
        for pos, p in enumerate(key)
        for q, w in image.get(p, ())
        for skey, s in (_sort_with_sign(key[:pos] + (q,) + key[pos + 1 :]),)
        if s
    )


def derivation_kills_forms():
    om = omega()
    Om = big_omega()
    for p, d in g2.INCIDENT_PAIRS:
        x = g2.X(p, d)
        if so7_derivation(x, om) != {}:
            return False
        if so7_derivation(x, Om) != {}:
            return False
    return True


def invariant_three_form_dimension():
    """Dimension of the space of 3-forms killed by all of g2."""
    keys = list(combinations(range(1, 8), 3))
    key_index = {k: n for n, k in enumerate(keys)}
    rows = []
    for p, d in g2.g2_basis():
        x = g2.X(p, d)
        # columns: coefficients of a generic 3-form; constraint rows per
        # output key of the derivation
        images = [so7_derivation(x, {k: 1}) for k in keys]
        for out_key in keys:
            rows.append([img.get(out_key, 0) for img in images])
    return len(keys) - linalg.rank(rows, QQ)


def bilinear_identity_check():
    """i_v omega ^ i_w omega ^ omega = -6 B(v,w) vol on all basis pairs."""
    om = omega()
    for p in fano.POINTS:
        for q in fano.POINTS:
            lhs = wedge(
                wedge(contract({p: 1}, om), contract({q: 1}, om)),
                om,
            )
            want = -6 if p == q else 0
            if lhs != ({VOL_KEY: want} if want else {}):
                return False
    return True


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
