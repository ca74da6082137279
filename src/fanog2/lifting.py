"""Line-orientation signs of collineations and the order-1344 covering group.

For a collineation g and a line D = {P,Q,R} the sign

    delta_star(g, D) = eps_PQ * eps_{gP,gQ}

does not depend on the pair chosen in D.  An augmented automorphism is a
pair (g, signs) with signs: points -> {+1,-1} acting by e_P -> signs(P) *
e_{gP}; it is an algebra automorphism of the 8-dimensional algebra exactly
when the product of the three signs on every line equals delta_star(g, D).
There are 8 lifts per collineation, 1344 in all.

Sign functions on points and lines are radon masks: bit P - 1 (or D - 1) is
set where the sign is -1.  Only the s of an augmented automorphism is a sign
tuple, and SIGNS and MASK_OF convert between the two forms.
"""

from functools import lru_cache
from operator import itemgetter

from . import compfactor, fano, radon


def delta_star(g, d):
    """The line sign eps_PQ * eps_{gP,gQ} of D, read from the first pair
    P < Q of D; delta_star_properties certifies that the other pairs agree.
    """
    eps = compfactor.EPS_TAU
    p, q = sorted(fano.LINE_POINTS[d])[:2]
    return eps[p - 1][q - 1] * eps[g[p - 1] - 1][g[q - 1] - 1]


@lru_cache(maxsize=None)
def delta_star_fn(g):
    """The sign function D -> delta_star(g, D) as a mask; memoized per
    collineation."""
    return sum(1 << (d - 1) for d in fano.LINES if delta_star(g, d) < 0)


def delta_star_properties():
    """Check the global identities of delta_star over the whole group, on
    the line words of _line_word as the delta_star masks: bit D - 1 set
    where the sign of D is -1.

    - well defined: all six ordered pairs of every line D give the same
      sign, for all 168 collineations g, read off their line words; and
      delta_star_fn, which reads the first pair, gives that sign;
    - det g = +1 for all 168 collineations: an even number of lines of
      sign -1;
    - pencil products: the three lines through any point multiply to +1,
      an even number of them in the mask;
    - the multiplier identity delta*(g2 g1, D) = delta*(g2, g1 D) delta*(g1, D)
      for all 168^2 pairs (g1, g2) and all seven lines D.
    """
    group = fano.all_collineations()
    masks = {g: _line_word(g) for g in group}
    if any(m is None or delta_star_fn(g) != m for g, m in masks.items()):
        return False
    # det g reads all seven lines, a pencil product the three through a point
    if any(
        (m & lines).bit_count() % 2
        for m in masks.values()
        for lines in (radon.ONE,) + radon.PENCILS
    ):
        return False
    listed = [masks[g] for g in group]
    values = set(listed)
    for g1 in group:
        after_g1 = itemgetter(*(p - 1 for p in g1))  # g2 -> g2 g1
        # m(g1 D) at bit D - 1, times delta*(g1, D), for each mask m that occurs
        m1 = masks[g1]
        bits = tuple(enumerate(e - 1 for e in fano.line_perm(g1)))
        moved = {m: sum((m >> e & 1) << d for d, e in bits) ^ m1 for m in values}
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


def class_sizes():
    """AC5.classes: the sizes of the classes, sorted."""
    return sorted(len(v) for v in classify_delta_star().values())


def constant_class_is_isotropy():
    """AC5.constant-class: the class of the constant +1 is the isotropy of
    compfactor.EPS_TAU."""
    return frozenset(classify_delta_star()[radon.ZERO]) == compfactor.isotropy()


# the point attached to each member of R*: the unique P whose three lines
# carry +1, for a non-constant member; 0 for the constant function 1
_POINT_OF = {radon.ONE ^ lines: p for p, lines in enumerate(radon.PENCILS, 1)}
_POINT_OF[radon.ZERO] = 0


def distinguished_point(fn):
    """The point attached to the member fn of R*; ValueError for a sign
    function outside R*."""
    if fn not in _POINT_OF:
        raise ValueError("not a member of R*: %r" % (fn,))
    return _POINT_OF[fn]


def generator_points():
    """AC5.generator-a and AC5.generator-b: the distinguished points of the
    delta_star functions of the standard generators a and b; None for one
    outside R*, so the claim fails rather than raises."""
    return tuple(_POINT_OF.get(delta_star_fn(g)) for g in fano.standard_generators())


# ---------------------------------------------------------------------------
# augmented automorphisms: (base permutation, sign 7-tuple)

# SIGNS[m]: the sign tuple with -1 at the set bits of the mask m; MASK_OF
# inverts it
SIGNS = tuple(tuple(-1 if m >> i & 1 else 1 for i in range(7)) for m in radon.ALL_FUNCTIONS)
MASK_OF = {s: m for m, s in enumerate(SIGNS)}


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

# the explicit signed lift a-hat of the order-2 standard generator a
AHAT = (fano.standard_generators()[0], (1, 1, 1, 1, -1, 1, -1))


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


# (P, Q, D) as 0-based indices, for the 42 ordered pairs of distinct points
# and the line D through them
_PRODUCTS = tuple(
    (p - 1, q - 1, fano.wedge(p, q) - 1)
    for p in fano.POINTS
    for q in fano.POINTS
    if p != q
)


@lru_cache(maxsize=None)
def _line_word(g):
    """The 7-bit word of the line condition for a collineation g, memoized;
    None when no sign vector lifts g.

    (g, s) is multiplicative on e_P e_Q = eps(P,Q) e_{P+Q} iff g is additive
    and eps(P,Q) s(P+Q) = s(P) s(Q) eps(gP,gQ) for every P != Q, that is
    s(P) s(Q) s(P+Q) = eps(P,Q) eps(gP,gQ).  The left side is the product of
    s over the line D through P and Q, the same for all six ordered pairs of
    D.  So s lifts g iff the six pairs of each line D agree and the product
    of s over D is that common sign: bit D - 1 of the word is set where it
    is -1, and s lifts g iff the Radon transform of its mask is the word.
    None means g is not additive, or some line's pairs disagree.
    """
    if not fano.is_additive(g):
        return None
    eps = compfactor.EPS_TAU
    signs = [0] * 7
    for p, q, d in _PRODUCTS:
        v = eps[p][q] * eps[g[p] - 1][g[q] - 1]
        if signs[d] != v:
            if signs[d]:
                return None
            signs[d] = v
    return sum(1 << d for d, v in enumerate(signs) if v < 0)


def is_algebra_automorphism(aug):
    """Multiplicativity of (g, s) on all imaginary basis pairs, as one
    comparison of line words (see _line_word): g is a collineation whose
    ordered pairs agree on each line, and s has the product those pairs
    give on every line.
    """
    g, s = aug
    word = _line_word(g)
    return word is not None and s in MASK_OF and radon.radon(MASK_OF[s]) == word


def t_map(d):
    """The kernel element t_D: identity base, +1 on D and -1 off D."""
    return (fano.IDENTITY, SIGNS[radon.t_line(d)])


@lru_cache(maxsize=None)
def lifts(g):
    """The lifts (g, s) of g, memoized per collineation, in mask order: by
    the lifting theorem, s lifts g iff the Radon transform of the mask of s
    is the line word of g, which is delta_star(g, .) as a mask.

    radon.preimages tests all 128 masks against the word, so AC6.fibers
    certifies both halves of the theorem on every collineation: the lifts
    are exactly the preimages, and there are eight of them.
    """
    return tuple((g, SIGNS[m]) for m in radon.preimages(_line_word(g)))


def aug_serialize(aug):
    g, s = aug
    return [fano.serialize(g), MASK_OF[s]]


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


def kernel_is_t_maps():
    """AC6.kernel: the lifts of the identity are the kernel elements."""
    return set(lifts(fano.IDENTITY)) == set(kernel_elements())


def fibers_have_eight():
    """AC6.fibers: every collineation has exactly eight lifts."""
    return all(len(lifts(g)) == 8 for g in fano.all_collineations())


def fiber_order_profile(g):
    return tuple(sorted(aug_order(a) for a in lifts(g)))


@lru_cache(maxsize=None)
def order_profiles():
    """AC6.profile-n: the lift order profile over a base of each order n =
    2, 3, 7 and 4; memoized.  The bases are the standard generators a and
    b, the shift, and the commutator a b a^-1 b^-1, whose profile is the
    non-splitness witness."""
    a, b = fano.standard_generators()
    c = fano.compose(a, fano.compose(b, fano.compose(fano.inverse(a), fano.inverse(b))))
    bases = {2: a, 3: b, 7: fano.TAU, 4: c}
    return {n: fiber_order_profile(g) for n, g in bases.items()}


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


def orientation_power_count():
    """AC6.orientation-powers: the number of order-7 collineations that
    induce the line orientations of the shift."""
    return sum(
        1
        for g in fano.all_collineations()
        if fano.order(g) == 7 and order7_same_orientation(g)
    )


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
                "%s:%s" % (fano.line_name(d), "-" if radon.evaluate(fn, d) else "+")
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
            minus = radon.evaluate(fn, d)
            lines.append(
                '  D%d [shape=box, color=%s, sign="%s"];'
                % (d, "red" if minus else "green", "-1" if minus else "+1")
            )
            for p in sorted(fano.LINE_POINTS[d]):
                lines.append("  P%d -- D%d;" % (p, d))
        lines.append("}")
        out.append("\n".join(lines))
    return "\n".join(out)
