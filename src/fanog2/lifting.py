"""Line-orientation signs of collineations and the order-1344 covering group.

For a collineation g and a line D = {P,Q,R} the sign

    delta_star(g, D) = eps_PQ * eps_{gP,gQ}

does not depend on the pair chosen in D.  An augmented automorphism is a
pair (g, signs) with signs: points -> {+1,-1} acting by e_P -> signs(P) *
e_{gP}; it is an algebra automorphism of the 8-dimensional algebra exactly
when the product of the three signs on every line equals delta_star(g, D).
There are 8 lifts per collineation, 1344 in all.

delta_star_fn(g) is this sign as a mask, read off all six pairs of each line
for all of the group at once; the lifts, AC5, AC10.radon and diagrams read it.

AC6.orientation-powers compares fano.oriented_lines of each order-7
collineation with that of the shift.

The point sign delta of each lift, with which it conjugates every X_{P,D}
of g2 to delta(P) X_{gP,gD}, is read off the incidence formula for the
action of the X's on the units, action_signs; delta_hats sweeps the 1344.

Sign functions on points and lines are radon masks: bit P - 1 (or D - 1) is
set where the sign is -1.  Only the s of an augmented automorphism is a sign
tuple, and SIGNS and MASK_OF convert between the two forms.
"""

from functools import lru_cache
from itertools import chain, compress, repeat
from operator import not_

from . import compfactor, fano, radon

def delta_star_fn(g):
    """delta_star(g, .) as a mask, the 7-bit word of the line condition for
    a collineation g, from _delta_star_words; None when no sign vector lifts g.

    (g, s) is multiplicative on e_P e_Q = eps(P,Q) e_{P+Q} iff g is additive
    and eps(P,Q) s(P+Q) = s(P) s(Q) eps(gP,gQ) for every P != Q, that is
    s(P) s(Q) s(P+Q) = eps(P,Q) eps(gP,gQ).  The left side is the product of
    s over the line D through P and Q, the same for all six ordered pairs of
    D.  So s lifts g iff the six pairs of each line D agree and the product
    of s over D is that common sign: bit D - 1 of the word is set where it
    is -1, and s lifts g iff the Radon transform of its mask is the word.
    None means g is no collineation, or some line's pairs disagree.
    """
    return _delta_star_words().get(g)


@lru_cache(maxsize=None)
def _delta_star_words():
    """The word of delta_star_fn for each collineation, memoized: per pair
    P != Q, the -1 flags of eps(gP, gQ) eps(P, Q) for all g, from
    compfactor.moved_flags, as an integer with bit D - 1 of a byte per g;
    their OR, or None where a pair of a line differs from the first."""
    group = fano.all_collineations()
    eps = compfactor.EPS_TAU
    ones = int.from_bytes(b"\1" * len(group), "little")
    word, bad, first = 0, 0, {}
    for (p, q), col in compfactor.moved_flags(eps).items():
        d = fano.wedge(p, q)
        col = (int.from_bytes(col, "little") ^ ones * (eps[p - 1][q - 1] == -1)) << d - 1
        bad |= first.setdefault(d, col) ^ col
        word |= col
    rows = zip(group, word.to_bytes(len(group), "little"), bad.to_bytes(len(group), "little"))
    return {g: None if b else w for g, w, b in rows}


def delta_star_properties():
    """Check the global identities of delta_star over the whole group, on
    the masks of delta_star_fn: bit D - 1 set where the sign of D is -1.

    - well defined: all six ordered pairs of every line D give the same
      sign, for all 168 collineations g: no word is None;
    - det g = +1 for all 168 collineations: an even number of lines of
      sign -1;
    - pencil products: the three lines through any point multiply to +1,
      an even number of them in the mask;
    - the multiplier identity delta*(g2 g1, D) = delta*(g2, g1 D) delta*(g1, D)
      for all 168^2 pairs (g1, g2) and all seven lines D.
    """
    group = fano.all_collineations()
    listed = list(map(delta_star_fn, group))
    if None in listed:
        return False
    values = set(listed)
    # det g reads all seven lines, a pencil product the three through a point
    if any(
        (m & lines).bit_count() % 2 for m in values for lines in (radon.ONE,) + radon.PENCILS
    ):
        return False
    # the masks by position; 255 where a product outside the group lands
    by_position = bytes(listed).ljust(256, b"\xff")
    # bit k of the mask of each g2, a byte per g2 of an integer
    planes = [int.from_bytes(bytes([m >> k & 1 for m in listed]), "little") for k in range(7)]
    ones = int.from_bytes(b"\1" * len(group), "little")
    for g1, m1, products in zip(group, listed, fano._product_table()):
        # the masks of g2 g1, by the positions in the row of g1 of the
        # product table, against m(g1 D) at bit D - 1 times delta*(g1, D),
        # for the mask m of each g2
        moved = sum([planes[e - 1] << d for d, e in enumerate(fano.line_perm(g1))])
        if int.from_bytes(products.translate(by_position), "little") != moved ^ ones * m1:
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


def generator_a_point():
    """AC5.generator-a: the distinguished point of the delta_star function
    of the standard generator a; None for one outside R*, so the claim
    fails rather than raises."""
    return _POINT_OF.get(delta_star_fn(fano.standard_generators()[0]))


def generator_b_point():
    """AC5.generator-b: as generator_a_point, for the standard generator b."""
    return _POINT_OF.get(delta_star_fn(fano.standard_generators()[1]))


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
        out[g[p - 1]] = v if s[p - 1] == 1 else -v
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


def t_map(d):
    """The kernel element t_D: identity base, +1 on D and -1 off D."""
    return (fano.IDENTITY, SIGNS[radon.t_line(d)])


@lru_cache(maxsize=None)
def lifts(g):
    """The lifts (g, s) of g, memoized per collineation, in mask order: by
    the lifting theorem, s lifts g iff the Radon transform of the mask of s
    is delta_star_fn(g), the line word of g.

    radon.preimages tests all 128 masks against the word, so AC6.fibers
    certifies both halves of the theorem on every collineation: the lifts
    are exactly the preimages, and there are eight of them.
    """
    return tuple([(g, SIGNS[m]) for m in radon.preimages(delta_star_fn(g))])


def aug_serialize(aug):
    g, s = aug
    return [fano.serialize(g), MASK_OF[s]]


@lru_cache(maxsize=None)
def enumerate_aug_group():
    """All 1344 augmented automorphisms: the lifts of the 168 collineations."""
    return tuple(chain.from_iterable(map(lifts, fano.all_collineations())))


def aug_group_order():
    """AC6.size: the number of augmented automorphisms."""
    return len(enumerate_aug_group())


# ---------------------------------------------------------------------------
# the point sign delta of the lifts, read off the action of g2 on the units


@lru_cache(maxsize=None)
def action_signs():
    """sigma(P, D, Q) for the 147 cases of a flag (P, D) and a point Q,
    memoized: [X_{P,D}, e_Q] = sigma e_{P+Q}, with sigma = eps(P, Q)
    eps*(P v Q, D) for Q off D, and 0 for Q on D, where the bracket is 0.
    g2's AC8.action certifies it against the spinor matrices."""
    eps, star = compfactor.EPS_TAU, compfactor.eps_star()
    return {
        (p, d, q): 0
        if q in fano.LINE_POINTS[d]
        else eps[p - 1][q - 1] * star[fano.wedge(p, q) - 1][d - 1]
        for p in fano.POINTS
        for d in fano.lines_through(p)
        for q in fano.POINTS
    }


# the 84 cases (bit, P, D, Q, P + Q) with Q off D: the k-th case at P, in
# the order of fano.lines_through(P) and then of the points, is bit
# P - 1 + 7 k of a delta word, so the word is 12 rows of 7 bits, one per
# point, and it is well defined iff every row is its first
_CASES = tuple(
    (p - 1 + 7 * k, p, d, q, fano.add(p, q))
    for p in fano.POINTS
    for k, (d, q) in enumerate(
        (d, q) for d in fano.lines_through(p) for q in fano.POINTS if q not in fano.LINE_POINTS[d]
    )
)
_ROW, _REPEAT = 127, sum(1 << 7 * k for k in range(12))


@lru_cache(maxsize=None)
def _delta_hat_words():
    """The delta words, memoized: for each collineation g, bit sigma(P, D, Q)
    XOR sigma(gP, gD, gQ) at each case; for each sign vector s, bit s_Q XOR
    s_{P+Q} (-1 read as 1).  (g, s) sends e_Q to s_Q e_{gQ}, so it conjugates
    X_{P,D} to the derivation that sends e_{gQ} to s_Q s_{P+Q} sigma(P, D, Q)
    e_{gP+gQ} and kills e_{gQ} for Q on D, as X_{gP,gD} does: the conjugate
    is delta(P) X_{gP,gD} iff the four cases of (P, D) in the XOR of the two
    words all read delta(P).  The group's columns, read as integers with a
    byte per g, give the key 8 gP + gD, which one translate turns into
    8 f for the position f of the flag (gP, gD), and the key 8 f + gQ, which
    another turns into the bit of sigma(gP, gD, gQ)."""
    sigma = action_signs()
    points, lines = fano._group_columns()
    group, n = fano.all_collineations(), len(points[0])
    column = [int.from_bytes(c, "little") for c in points]
    # 8 P + D -> 8 f for the flag (P, D) at position f; 8 f + Q -> 1 where
    # sigma of that flag at Q is -1
    position, flag_key, minus = {}, bytearray(256), bytearray(256)
    for (p, d, q), v in sigma.items():
        f = position.setdefault((p, d), len(position))
        flag_key[8 * p + d], minus[8 * f + q] = 8 * f, v < 0
    flags = {}
    for p, d in position:
        keys = (column[p] << 3 | int.from_bytes(lines[d], "little")).to_bytes(n, "little")
        flags[p, d] = int.from_bytes(keys.translate(flag_key), "little")
    ones = int.from_bytes(b"\1" * n, "little")
    packed, flip_columns = [0] * ((len(_CASES) + 7) // 8), dict.fromkeys(fano.POINTS, 0)
    for b, p, d, q, r in _CASES:
        keys = (flags[p, d] | column[q]).to_bytes(n, "little")
        moved = int.from_bytes(keys.translate(minus), "little")
        # bit b of every word, a byte per g, packed 8 to a byte
        packed[b >> 3] |= (moved ^ ones * (sigma[p, d, q] < 0)) << (b & 7)
        flip_columns[q] |= 1 << b
        flip_columns[r] |= 1 << b
    rows = map(bytes, zip(*[x.to_bytes(n, "little") for x in packed]))
    words = dict(zip(group, map(int.from_bytes, rows, repeat("little"))))
    # the word of the sign mask m is the XOR of the columns of its -1 points
    flips = [0]
    for q in fano.POINTS:
        flips += [f ^ flip_columns[q] for f in flips]
    return words, dict(zip(SIGNS, flips))


def _failure(word):
    """The message of the first check a delta word fails: at each point P
    in turn, the first line D through P whose four cases disagree, and then
    the disagreement of its three lines."""
    for p in fano.POINTS:
        row = [word >> p - 1 + 7 * k & 1 for k in range(12)]
        for i, d in enumerate(fano.lines_through(p)):
            if len(set(row[4 * i : 4 * i + 4])) > 1:
                return "conjugate of X_{P%d,D%d} is not proportional to an X" % (p, d)
        if len(set(row)) > 1:
            return "delta depends on the line at P%d" % p


def delta_hats():
    """delta for the 1344 signed automorphisms, in one sweep: the signs
    delta(P), P = P1..P7, with ghat X_{P,D} ghat^-1 = delta(P) X_{gP,gD}
    for every line D through P, as the mask of the points where delta is
    -1, for each element whose word is well defined; and the message of
    the first element, in group order, whose word is not, or None.  The
    word of (g, s) is that of g XOR that of s, so every case of all 21
    generators is evaluated at once."""
    words, flips = _delta_hat_words()
    group = enumerate_aug_group()
    sweep = [words[g] ^ flips[s] for g, s in group]
    welldefined = [w == (w & _ROW) * _REPEAT for w in sweep]
    fns = {aug: w & _ROW for aug, w in compress(zip(group, sweep), welldefined)}
    failed = next(compress(sweep, map(not_, welldefined)), None)
    return fns, failed and _failure(failed)


def ahat_is_a_lift():
    """AC6.ahat: AHAT is one of the lifts of its base."""
    return AHAT in lifts(AHAT[0])


def kernel_elements():
    """ker(projection): the identity and the seven t_D."""
    return (AUG_IDENTITY,) + tuple(t_map(d) for d in fano.LINES)


def kernel_is_t_maps():
    """AC6.kernel: the lifts of the identity are the kernel elements."""
    return set(lifts(fano.IDENTITY)) == set(kernel_elements())


def fibers_have_eight():
    """AC6.fibers: every collineation has exactly eight lifts."""
    return all(len(lifts(g)) == 8 for g in fano.all_collineations())


@lru_cache(maxsize=None)
def order_profiles():
    """AC6.profile-n: the lift order profile over a base of each order n =
    2, 3, 7 and 4; memoized.  The bases are the standard generators a and
    b, the shift, and the commutator a b a^-1 b^-1, whose profile is the
    non-splitness witness."""
    a, b = fano.standard_generators()
    c = fano.compose(a, fano.compose(b, fano.compose(fano.inverse(a), fano.inverse(b))))
    bases = {2: a, 3: b, 7: fano.TAU, 4: c}
    return {n: tuple(sorted(map(aug_order, lifts(g)))) for n, g in bases.items()}


def order2_profile():
    """AC6.profile-2: the lift order profile over the order-2 base."""
    return order_profiles()[2]


def order3_profile():
    """AC6.profile-3: the lift order profile over the order-3 base."""
    return order_profiles()[3]


def order7_profile():
    """AC6.profile-7: the lift order profile over the order-7 base."""
    return order_profiles()[7]


def order4_profile():
    """AC6.profile-4: the lift order profile over the order-4 base, the
    non-splitness witness."""
    return order_profiles()[4]


def orientation_power_count():
    """AC6.orientation-powers: the number of order-7 collineations that
    induce the line orientations of the shift: those whose oriented line
    triples are the shift's, that is tau, tau^2 and tau^4."""
    shift = fano.oriented_lines(fano.TAU)
    order7 = (g for g in fano.all_collineations() if fano.order(g) == 7)
    return sum(fano.oriented_lines(g) == shift for g in order7)


# ---------------------------------------------------------------------------
# diagrams of the eight delta_star colorings, drawn by radon.incidence_dot


def _colorings():
    """(distinguished point, delta_star function, class size) per coloring."""
    classes = classify_delta_star()
    return sorted((distinguished_point(fn), fn, len(gs)) for fn, gs in classes.items())


def delta_star_diagram_text():
    """Text grid: one section per R* member, lines tagged +/-, with the
    distinguished point (or none for the constant function).
    """
    sections = []
    for p, fn, size in _colorings():
        head = "none (constant +1)" if p == 0 else "P%d" % p
        signs = "  ".join(radon.sign_labels(fn, "D"))
        sections.append("distinguished point: %s\n  %s\n  class size: %d" % (head, signs, size))
    return "\n\n".join(sections)


def delta_star_diagram_dot():
    """DOT graphs: incidence graph of the plane, one graph per coloring,
    line nodes colored by the sign.
    """
    return "\n".join(
        radon.incidence_dot(
            "deltastar_%d" % idx,
            ['label="distinguished point %s"' % ("none" if p0 == 0 else "P%d" % p0)],
            ["shape=doublecircle" if p == p0 else "shape=circle" for p in fano.POINTS],
            ["shape=box, " + attrs for attrs in radon.sign_attrs(fn)],
        )
        for idx, (p0, fn, _) in enumerate(_colorings())
    )
