"""Line-orientation signs of collineations and the order-1344 covering group.

For a collineation g and a line D = {P,Q,R} the sign

    delta_star(g, D) = eps_PQ * eps_{gP,gQ}

does not depend on the pair chosen in D.  An augmented automorphism is a
pair (g, signs) with signs: points -> {+1,-1} acting by e_P -> signs(P) *
e_{gP}; it is an algebra automorphism of the 8-dimensional algebra exactly
when the product of the three signs on every line equals delta_star(g, D).
There are 8 lifts per collineation, 1344 in all.
"""

from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from . import compfactor, fano, radon


def _pair_sign(g, p, q):
    """eps_PQ * eps_{gP,gQ}."""
    eps = compfactor.EPS_TAU
    return eps[p - 1][q - 1] * eps[g[p - 1] - 1][g[q - 1] - 1]


def delta_star(g, d):
    """The line sign delta_star(g, D), read from the first pair P < Q of D;
    delta_star_properties certifies that the other two pairs agree.
    """
    p, q = sorted(fano.LINE_POINTS[d])[:2]
    return _pair_sign(g, p, q)


@lru_cache(maxsize=None)
def delta_star_fn(g):
    """The sign function D -> delta_star(g, D) as a 7-tuple; memoized per
    collineation."""
    return tuple(delta_star(g, d) for d in fano.LINES)


def det(g):
    """Product of delta_star(g, D) over all seven lines; always +1."""
    out = 1
    for v in delta_star_fn(g):
        out *= v
    return out


def delta_star_properties():
    """Check the global identities of delta_star over the whole group.

    - well defined: all three pairs of every line D give the same sign, for
      all 168 collineations g;
    - det g = +1 for all 168 collineations;
    - pencil products: the three lines through any point multiply to +1;
    - the multiplier identity delta*(g2 g1, D) = delta*(g2, g1 D) delta*(g1, D)
      for all 168^2 pairs (g1, g2) and all seven lines D, on 7-bit masks
      with bit D - 1 set where the sign is -1.
    """
    group = fano.all_collineations()
    for g in group:
        for d in fano.LINES:
            pairs = combinations(sorted(fano.LINE_POINTS[d]), 2)
            if len({_pair_sign(g, p, q) for p, q in pairs}) != 1:
                return False
    fns = {g: delta_star_fn(g) for g in group}
    for g in group:
        fn = fns[g]
        if det(g) != 1:
            return False
        for p in fano.POINTS:
            prod = 1
            for d in fano.lines_through(p):
                prod *= fn[d - 1]
            if prod != 1:
                return False
    masks = {g: radon.from_values(v < 0 for v in fn) for g, fn in fns.items()}
    listed = [masks[g] for g in group]
    values = set(listed)
    for g1 in group:
        after_g1 = itemgetter(*(p - 1 for p in g1))  # g2 -> g2 g1
        # m(g1 D) at bit D - 1, times delta*(g1, D), for each mask m that occurs
        m1 = masks[g1]
        moved = {
            m: radon.from_values(m >> (e - 1) for e in fano.line_perm(g1)) ^ m1
            for m in values
        }
        # the masks of g2 g1 against the moved masks of g2, for all g2 at once
        if list(map(masks.__getitem__, map(after_g1, group))) != list(
            map(moved.__getitem__, listed)
        ):
            return False
    return True


def classify_delta_star():
    """Partition of the 168 collineations by their delta_star function."""
    classes = {}
    for g in fano.all_collineations():
        classes.setdefault(delta_star_fn(g), []).append(g)
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
    s = tuple(s2[q - 1] * x for q, x in zip(g1, s1))
    return (g, s)


AUG_IDENTITY = (fano.IDENTITY, (1,) * 7)


def aug_inverse(aug):
    g, s = aug
    ginv = fano.inverse(g)
    return (ginv, tuple(s[fano.apply(ginv, p) - 1] for p in fano.POINTS))


def aug_order(aug):
    """The order of (g, s), in closed form: n or 2n, for n = ord(g).

    By aug_compose, (g, s)^k = (g^k, s_k) with s_k(P) = s(P) s(gP) ...
    s(g^(k-1) P).  The order is a multiple of n, since (g, s) -> g is a
    homomorphism, and (g, s)^n = (1, s_n).  So it is n if s_n is +1 at every
    P; otherwise (1, s_n) has order 2, and the order of (g, s) is 2n.
    """
    g, s = aug
    n = fano.order(g)
    for p in fano.POINTS:
        sign, q = 1, p
        for _ in range(n):
            sign *= s[q - 1]
            q = g[q - 1]
        if sign < 0:
            return 2 * n
    return n


# (P, Q, P+Q) as 0-based indices, for the 42 ordered pairs of distinct points
_PRODUCTS = tuple(
    (p - 1, q - 1, fano.add(p, q) - 1)
    for p in fano.POINTS
    for q in fano.POINTS
    if p != q
)


def is_algebra_automorphism(aug):
    """Check multiplicativity on all imaginary basis pairs: g(P+Q) = gP + gQ
    (g is a collineation) and eps(P,Q) s(P+Q) = s(P) s(Q) eps(gP,gQ) for
    every P != Q.
    """
    eps = compfactor.EPS_TAU
    g, s = aug
    if not fano.is_additive(g):
        return False
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


@lru_cache(maxsize=None)
def lifts(g):
    """The sign functions lifting g (eight of them), via Radon preimages;
    memoized per collineation, so each (g, s) is checked once.

    A sign tuple s lifts g iff its multiplicative Radon transform equals
    delta_star(g, .); only candidates validated as algebra automorphisms are
    returned, and the claims compare the count.
    """
    return tuple(
        (g, s)
        for s in _radon_preimages().get(delta_star_fn(g), ())
        if is_algebra_automorphism((g, s))
    )


def aug_serialize(aug):
    g, s = aug
    mask = 0
    for i, v in enumerate(s):
        if v == -1:
            mask |= 1 << i
    return [fano.serialize(g), mask]


@lru_cache(maxsize=None)
def enumerate_aug_group():
    """All 1344 augmented automorphisms: the lifts of the 168 collineations."""
    out = []
    for g in fano.all_collineations():
        out.extend(lifts(g))
    return tuple(out)


def kernel_elements():
    """ker(projection): the identity and the seven t_D."""
    return (AUG_IDENTITY,) + tuple(t_map(d) for d in fano.LINES)


def fiber_order_profile(g):
    return tuple(sorted(aug_order(a) for a in lifts(g)))


def order7_same_orientation(tau_prime):
    """Whether an order-7 collineation induces the cyclic order of the shift
    fano.TAU on each line.

    True exactly for tau, tau^2 and tau^4.
    """
    if fano.order(tau_prime) != 7:
        raise ValueError("an orientation must have order 7")
    if fano.orientation_type(tau_prime) != fano.orientation_type(fano.TAU):
        return False
    for d in fano.LINES:
        if not fano.cyclic_equal(
            fano.induced_line_orientation(fano.TAU, d),
            fano.induced_line_orientation(tau_prime, d),
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# diagram emitters for the eight delta_star colorings


def delta_star_diagram_text():
    """Text grid: one section per R* member, lines tagged +/-, with the
    distinguished point (or '-' for the constant function).
    """
    classes = classify_delta_star()
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


def delta_star_diagram_dot():
    """DOT graphs: incidence graph of the plane, one graph per coloring,
    line nodes colored by the sign.
    """
    classes = classify_delta_star()
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
