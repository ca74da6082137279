"""Line-orientation signs of collineations and the order-1344 covering group.

For a collineation g and a line D = {P,Q,R} the sign

    delta_star(g, D) = eps_PQ * eps_{gP,gQ}

does not depend on the pair chosen in D.  An augmented automorphism is a
pair (g, signs) with signs: points -> {+1,-1} acting by e_P -> signs(P) *
e_{gP}; it is an algebra automorphism of the 8-dimensional algebra exactly
when the product of the three signs on every line equals delta_star(g, D).
There are 8 lifts per collineation, 1344 in all.
"""

import json
import os
import tempfile
from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import mul

from . import compfactor, fano, radon

CACHE_VERSION = 1


def delta_star(g, d, eps=compfactor.EPS_TAU, check=False):
    pts = sorted(fano.LINE_POINTS[d])
    values = {
        compfactor.eps_get(eps, p, q)
        * compfactor.eps_get(eps, fano.apply(g, p), fano.apply(g, q))
        for p, q in combinations(pts, 2)
    }
    if check and len(values) != 1:
        raise AssertionError("delta_star depends on the pair for g=%r D=%d" % (g, d))
    return next(iter(values))


def delta_star_fn(g, eps=compfactor.EPS_TAU):
    """The sign function D -> delta_star(g, D) as a 7-tuple."""
    return tuple(delta_star(g, d, eps) for d in fano.LINES)


def det(g, eps=compfactor.EPS_TAU):
    """Product of delta_star(g, D) over all seven lines; always +1."""
    out = 1
    for v in delta_star_fn(g, eps):
        out *= v
    return out


def delta_star_properties(eps=compfactor.EPS_TAU):
    """Check the global identities of delta_star over the whole group.

    - det g = +1 for all 168 collineations;
    - pencil products: the three lines through any point multiply to +1;
    - the multiplier identity delta*(g2 g1, D) = delta*(g2, g1 D) delta*(g1, D)
      for all 168^2 pairs (g1, g2) and all seven lines D.
    """
    group = fano.all_collineations()
    fns = {g: delta_star_fn(g, eps) for g in group}
    for g in group:
        fn = fns[g]
        if det(g, eps) != 1:
            return False
        for p in fano.POINTS:
            prod = 1
            for d in fano.lines_through(p):
                prod *= fn[d - 1]
            if prod != 1:
                return False
    for g1 in group:
        f1 = fns[g1]
        # index of the line g1 D for each D
        moved = tuple(d - 1 for d in fano.line_perm(g1))
        for g2 in group:
            f2 = fns[g2]
            if fns[fano.compose(g2, g1)] != tuple(
                map(mul, map(f2.__getitem__, moved), f1)
            ):
                return False
    return True


def classify_delta_star(eps=compfactor.EPS_TAU):
    """Partition of the 168 collineations by their delta_star function."""
    classes = {}
    for g in fano.all_collineations():
        classes.setdefault(delta_star_fn(g, eps), []).append(g)
    return classes


def distinguished_point(fn):
    """The point attached to a member of R*: the unique P whose three lines
    carry +1, for a non-constant member; 0 for the constant function 1.
    """
    if all(v == 1 for v in fn):
        return 0
    plus = [d for d in fano.LINES if fn[d - 1] == 1]
    if len(plus) != 3:
        raise ValueError("not a member of R*: %r" % (fn,))
    common = set.intersection(*(set(fano.LINE_POINTS[d]) for d in plus))
    if len(common) != 1:
        raise ValueError("not a member of R*: %r" % (fn,))
    return common.pop()


# ---------------------------------------------------------------------------
# augmented automorphisms: (base permutation, sign 7-tuple)


def aug_apply(aug, coeffs):
    """Apply an augmented automorphism to an 8-coefficient vector."""
    g, s = aug
    out = [coeffs[0]] + [None] * 7
    for p in fano.POINTS:
        v = coeffs[p]
        out[fano.apply(g, p)] = v if s[p - 1] == 1 else -v
    return tuple(out)


def aug_compose(a2, a1):
    """(g2, s2) after (g1, s1): base g2 g1, signs s(P) = s2(g1 P) s1(P)."""
    g2, s2 = a2
    g1, s1 = a1
    g = fano.compose(g2, g1)
    s = tuple(s2[fano.apply(g1, p) - 1] * s1[p - 1] for p in fano.POINTS)
    return (g, s)


AUG_IDENTITY = (fano.IDENTITY, (1,) * 7)


def aug_inverse(aug):
    g, s = aug
    ginv = fano.inverse(g)
    return (ginv, tuple(s[fano.apply(ginv, p) - 1] for p in fano.POINTS))


def aug_order(aug):
    n = 1
    h = aug
    while h != AUG_IDENTITY:
        h = aug_compose(aug, h)
        n += 1
    return n


# (P, Q, P+Q) as 0-based indices, for the 42 ordered pairs of distinct points
_PRODUCTS = tuple(
    (p - 1, q - 1, fano.add(p, q) - 1)
    for p in fano.POINTS
    for q in fano.POINTS
    if p != q
)


def is_algebra_automorphism(aug, eps=compfactor.EPS_TAU):
    """Check multiplicativity on all imaginary basis pairs:
    eps(P,Q) s(P+Q) = s(P) s(Q) eps(gP,gQ) for every P != Q.
    """
    g, s = aug
    for p, q, r in _PRODUCTS:
        if eps[p][q] * s[r] != s[p] * s[q] * eps[g[p] - 1][g[q] - 1]:
            return False
    return True


def t_map(d):
    """The kernel element t_D: identity base, +1 on D and -1 off D."""
    return (
        fano.IDENTITY,
        tuple(1 if p in fano.LINE_POINTS[d] else -1 for p in fano.POINTS),
    )


@lru_cache(maxsize=None)
def _radon_preimages():
    """Each multiplicative Radon image of the 128 sign functions, mapped to
    its preimages in the order of radon.all_sign_functions().
    """
    table = {}
    for s in radon.all_sign_functions():
        table.setdefault(radon.radon_mult(s), []).append(s)
    return table


def lifts(g, eps=compfactor.EPS_TAU):
    """The sign functions lifting g (eight of them), via Radon preimages.

    A sign tuple s lifts g iff its multiplicative Radon transform equals
    delta_star(g, .); only candidates validated as algebra automorphisms are
    returned, and the claims compare the count.
    """
    return tuple(
        (g, s)
        for s in _radon_preimages().get(delta_star_fn(g, eps), ())
        if is_algebra_automorphism((g, s), eps)
    )


def aug_serialize(aug):
    g, s = aug
    mask = 0
    for i, v in enumerate(s):
        if v == -1:
            mask |= 1 << i
    return [fano.serialize(g), mask]


def aug_deserialize(rec):
    g = fano.deserialize(rec[0])
    mask = rec[1]
    s = tuple(-1 if (mask >> i) & 1 else 1 for i in range(7))
    return (g, s)


def _cache_key(eps):
    return {
        "version": CACHE_VERSION,
        "coordinates": [fano.MASK[p] for p in fano.POINTS],
        "eps": compfactor.serialize(eps),
    }


def _read_cache(path, eps):
    """The cached group, or None when the file is missing, was written for
    another key, does not decode to the {key, elements} shape, or does not
    hold 1344 distinct algebra automorphisms, eight over each collineation.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["key"] != _cache_key(eps):
            return None
        group = tuple(aug_deserialize(r) for r in data["elements"])
    except (OSError, ValueError, LookupError, TypeError):
        return None
    fibers = Counter(g for g, _ in group)
    if (
        len(set(group)) != 1344
        or fibers != dict.fromkeys(fano.all_collineations(), 8)
        or not all(is_algebra_automorphism(a, eps) for a in group)
    ):
        return None
    return group


def enumerate_aug_group(eps=compfactor.EPS_TAU, cache_dir=None):
    """All 1344 augmented automorphisms, optionally cached as JSON on disk."""
    if cache_dir is None:
        return _enumerate_aug_group_uncached(eps)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "aug-group.json")
    group = _read_cache(path, eps)
    if group is not None:
        return group
    group = _enumerate_aug_group_uncached(eps)
    data = {"key": _cache_key(eps), "elements": [aug_serialize(a) for a in group]}
    # a private temporary name, so concurrent writers never share a file
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return group


@lru_cache(maxsize=None)
def _enumerate_aug_group_uncached(eps=compfactor.EPS_TAU):
    out = []
    for g in fano.all_collineations():
        out.extend(lifts(g, eps))
    return tuple(out)


def kernel_elements():
    """ker(projection): the identity and the seven t_D."""
    return (AUG_IDENTITY,) + tuple(t_map(d) for d in fano.LINES)


def fiber_order_profile(g, eps=compfactor.EPS_TAU):
    return tuple(sorted(aug_order(a) for a in lifts(g, eps)))


def order7_same_orientation(tau_prime, tau=fano.TAU):
    """Whether an order-7 collineation induces tau's cyclic order on each line.

    True exactly for tau, tau^2 and tau^4.
    """
    if fano.order(tau_prime) != 7:
        raise ValueError("an orientation must have order 7")
    if fano.orientation_type(tau_prime) != fano.orientation_type(tau):
        return False
    for d in fano.LINES:
        if not fano.cyclic_equal(
            fano.induced_line_orientation(tau, d),
            fano.induced_line_orientation(tau_prime, d),
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# diagram emitters for the eight delta_star colorings


def delta_star_diagram_text(eps=compfactor.EPS_TAU):
    """Text grid: one section per R* member, lines tagged +/-, with the
    distinguished point (or '-' for the constant function).
    """
    classes = classify_delta_star(eps)
    sections = []
    for fn in sorted(classes, key=lambda f: (distinguished_point(f), f)):
        p = distinguished_point(fn)
        head = (
            "distinguished point: none (constant +1)"
            if p == 0
            else "distinguished point: P%d" % p
        )
        rows = [head]
        rows.append(
            "  " + "  ".join(
                "%s:%s" % (fano.line_name(d), "+" if fn[d - 1] == 1 else "-")
                for d in fano.LINES
            )
        )
        rows.append("  class size: %d" % len(classes[fn]))
        sections.append("\n".join(rows))
    return "\n\n".join(sections)


def delta_star_diagram_dot(eps=compfactor.EPS_TAU):
    """DOT graphs: incidence graph of the plane, one graph per coloring,
    line nodes colored by the sign.
    """
    classes = classify_delta_star(eps)
    out = []
    for idx, fn in enumerate(
        sorted(classes, key=lambda f: (distinguished_point(f), f))
    ):
        p0 = distinguished_point(fn)
        lines = ["graph deltastar_%d {" % idx]
        lines.append('  label="distinguished point %s";' % ("none" if p0 == 0 else "P%d" % p0))
        for p in fano.POINTS:
            shape = "doublecircle" if p == p0 else "circle"
            lines.append('  P%d [shape=%s];' % (p, shape))
        for d in fano.LINES:
            color = "green" if fn[d - 1] == 1 else "red"
            lines.append(
                '  D%d [shape=box, color=%s, sign="%s"];'
                % (d, color, "+1" if fn[d - 1] == 1 else "-1")
            )
            for p in sorted(fano.LINE_POINTS[d]):
                lines.append("  P%d -- D%d;" % (p, d))
        lines.append("}")
        out.append("\n".join(lines))
    return "\n".join(out)
