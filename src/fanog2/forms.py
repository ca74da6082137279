"""Exterior algebra on seven generators and the invariant 3- and 4-forms.

A k-form is a dict mapping sorted k-tuples of point labels to exact scalars;
wedge products resolve signs by inversion parity.  The distinguished forms

    omega = sum over lines {P,Q,R} of eps_PQ eps_QR eps_RP e^P^e^Q^e^R
    Omega = sum over quadrilaterals {P,Q,R,S} of eps_PQ eps_RS e^P^e^Q^e^R^e^S

are each a sum of 7 terms with ordering-independent coefficients, and are
killed by the derivation action of every generator X_{P,D}.  Forms are
sparse dicts like the so(7) elements of g2, so g2.add_elt, g2.scale_elt and
g2.pair_inner add, scale and pair them.
"""

from functools import lru_cache
from itertools import combinations, permutations

from . import compfactor, fano, g2, linalg
from .scalars import QQ

VOL_KEY = (1, 2, 3, 4, 5, 6, 7)


@lru_cache(maxsize=None)
def _sort_with_sign(idx):
    """Sort a tuple of distinct labels, tracking the permutation parity;
    memoized per tuple."""
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
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key, s = _sort_with_sign(ka + kb)
            if key is None:
                continue
            v = out.get(key, 0) + s * va * vb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def contract(v, a):
    """Interior product i_v with a vector given as {label: coeff}."""
    out = {}
    for key, c in a.items():
        for pos, p in enumerate(key):
            vp = v.get(p, 0)
            if not vp:
                continue
            rest = key[:pos] + key[pos + 1 :]
            s = -1 if pos % 2 else 1
            w = out.get(rest, 0) + s * vp * c
            if w:
                out[rest] = w
            else:
                out.pop(rest, None)
    return out


def basis_vector(p):
    return {p: 1}


def omega(eps=compfactor.EPS_TAU):
    """The invariant 3-form; each line contributes one term whose coefficient
    is recomputed over all orderings of the line and must agree.
    """
    out = {}
    for d in fano.LINES:
        pts = sorted(fano.LINE_POINTS[d])
        results = set()
        for p, q, r in permutations(pts):
            c = (
                compfactor.eps_get(eps, p, q)
                * compfactor.eps_get(eps, q, r)
                * compfactor.eps_get(eps, r, p)
            )
            key, s = _sort_with_sign((p, q, r))
            results.add((key, c * s))
        if len(results) != 1:
            raise AssertionError("line term depends on the point ordering")
        key, c = results.pop()
        out[key] = c
    return out


def big_omega(eps=compfactor.EPS_TAU):
    """The invariant 4-form over the seven quadrilaterals."""
    out = {}
    for d in fano.LINES:
        pts = sorted(fano.QUADRILATERALS[d])
        results = set()
        for p, q, r, s_ in permutations(pts):
            c = compfactor.eps_get(eps, p, q) * compfactor.eps_get(eps, r, s_)
            key, s = _sort_with_sign((p, q, r, s_))
            results.add((key, c * s))
        if len(results) != 1:
            raise AssertionError("quadrilateral term depends on the point ordering")
        key, c = results.pop()
        out[key] = c
    return out


def so7_derivation(x, a):
    """Derivation action of a pair-basis so(7) element on a form on Im(O).

    The vector action is e_{ij}: e_i -> e_j... concretely [e_{PiPj}, e_Pk] =
    d_ik e_Pj - d_jk e_Pi; on a dual k-form the action is minus the
    transpose, applied as a derivation slot by slot.
    """
    out = {}
    for key, c in a.items():
        for pos, p in enumerate(key):
            # replace e^p by -e^q for each q with (x e_q) having e_p-component
            for (i, j), v in x.items():
                comps = []
                # x e_i = v e_j + ..., x e_j = -v e_i
                if p == j:
                    comps.append((i, v))  # x e_i has e_j-coefficient v
                if p == i:
                    comps.append((j, -v))  # x e_j has e_i-coefficient -v
                for q, coeff in comps:
                    newkey = key[:pos] + (q,) + key[pos + 1 :]
                    skey, s = _sort_with_sign(newkey)
                    if skey is None:
                        continue
                    w = out.get(skey, 0) - s * coeff * c
                    if w:
                        out[skey] = w
                    else:
                        out.pop(skey, None)
    return out


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
        images = []
        for k in keys:
            images.append(so7_derivation(x, {k: 1}))
        for out_key in keys:
            rows.append([img.get(out_key, 0) for img in images])
    return len(keys) - linalg.rank(rows, QQ)


def bilinear_identity_check():
    """i_v omega ^ i_w omega ^ omega = -6 B(v,w) vol on all basis pairs."""
    om = omega()
    for p in fano.POINTS:
        for q in fano.POINTS:
            lhs = wedge(
                wedge(contract(basis_vector(p), om), contract(basis_vector(q), om)),
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
