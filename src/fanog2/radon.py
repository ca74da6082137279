"""The finite Radon transform for Z_2-valued functions on the Fano plane.

A function f: points -> Z_2 is stored as a 7-bit mask whose bit (p-1) is
f(P_p); likewise a function on lines has bit (d-1) equal to the value on
D_d.  The transform sums f over the three points of each line.

A sign function, with values +1 and -1, is the mask of its -1 points (or
lines).  The product of the signs over a line is -1 iff the line holds an
odd number of -1 points, so the multiplicative transform is radon too.
Both sign-function diagrams draw through sign_labels, sign_attrs and
incidence_dot, the one DOT writer of the incidence graph.
"""

from functools import lru_cache
from itertools import combinations

from . import fano


def evaluate(mask, p):
    return (mask >> (p - 1)) & 1


def from_values(values):
    """Pack an iterable of 7 bits (indexed by label-1) into a mask."""
    m = 0
    for i, v in enumerate(values):
        if v & 1:
            m |= 1 << i
    return m


ALL_FUNCTIONS = tuple(range(128))
ZERO = 0
ONE = 127


def line_indicator(d):
    return from_values(1 if p in fano.LINE_POINTS[d] else 0 for p in fano.POINTS)


def t_line(d):
    """T_D: zero on D, one off D."""
    return ONE ^ line_indicator(d)


def _parities(m, masks):
    """The parity of m & x for each x in masks, as a list of bits."""
    return list(map((1).__and__, map(int.bit_count, map(m.__and__, masks))))


# LINE_MASKS[d - 1]: the indicator of D_d, a mask on the point side
LINE_MASKS = tuple(map(line_indicator, fano.LINES))


@lru_cache(maxsize=None)
def radon(f):
    """f*(D) = sum of f over the points of D, for each line: the parity of
    f & LINE_MASKS[D - 1]; memoized over the 128 masks, which every sweep of
    the transform reads many times."""
    return from_values(_parities(f, LINE_MASKS))


@lru_cache(maxsize=None)
def kernel():
    """The 8 functions with zero transform: 0 and the seven T_D."""
    return tuple(f for f in ALL_FUNCTIONS if radon(f) == 0)


def kernel_size():
    """AC4.kernel: the number of functions with zero transform."""
    return len(kernel())


def kernel_is_off_line_indicators():
    """AC4.kernel-shape: the kernel is 0 and the seven T_D."""
    return set(kernel()) == {ZERO} | {t_line(d) for d in fano.LINES}


@lru_cache(maxsize=None)
def image():
    """The 16-element image of the transform."""
    return tuple(sorted({radon(f) for f in ALL_FUNCTIONS}))


def image_size():
    """AC4.image: the number of transforms."""
    return len(image())


# PENCILS[P - 1]: the indicator of the pencil of lines through P, a mask on
# the line side
PENCILS = tuple(
    from_values(p in fano.LINE_POINTS[d] for d in fano.LINES) for p in fano.POINTS
)
_IMAGE_MEMBERS = frozenset({ZERO, ONE, *PENCILS, *(ONE ^ m for m in PENCILS)})


def image_membership(h):
    """The image is exactly {T_P} u {T_P + 1} u {0, 1} on the line side.

    T_P here means the indicator of the pencil of lines through P.
    """
    return h in _IMAGE_MEMBERS


def image_is_pencil_set():
    """AC4.image-membership: every image point passes image_membership,
    which exactly 16 functions pass."""
    return all(image_membership(h) for h in image()) and (
        sum(1 for h in ALL_FUNCTIONS if image_membership(h)) == 16
    )


@lru_cache(maxsize=None)
def preimages(h):
    """The functions whose transform is h, in mask order; memoized, since
    the claims and the lifts of the collineations read the same members of
    the image."""
    return tuple(f for f in ALL_FUNCTIONS if radon(f) == h)


def preimages_have_eight():
    """AC4.preimages: each point of the image has eight preimages."""
    return all(len(preimages(h)) == 8 for h in image())


@lru_cache(maxsize=None)
def mult_domain():
    """R: the 64 sign functions on points whose total product is +1, the
    masks of even weight."""
    return tuple(f for f in ALL_FUNCTIONS if not f.bit_count() % 2)


def mult_domain_size():
    """AC4.mult-domain: the number of members of R."""
    return len(mult_domain())


def mult_image():
    """R*: the transform of the domain R, as a sorted tuple.

    The claims compare it with the line sign functions whose product is +1
    on every pencil (see pencil_sign_functions).
    """
    return tuple(sorted({radon(f) for f in mult_domain()}))


def pencil_sign_functions():
    """The line sign functions with product +1 on every pencil: an even
    number of -1 lines in each."""
    return tuple(
        h for h in ALL_FUNCTIONS if not any((h & m).bit_count() % 2 for m in PENCILS)
    )


def mult_image_agreement():
    """AC4.mult-image: the common size of R* and the pencil sign functions
    when the two sets are equal, else the first member of one that the
    other lacks."""
    a, b = set(mult_image()), set(pencil_sign_functions())
    return len(a) if a == b else min(a ^ b)


def mult_kernel():
    """The 8-element kernel of the multiplicative transform on R: the
    members whose transform is the constant +1."""
    return tuple(f for f in mult_domain() if radon(f) == ZERO)


def mult_kernel_size():
    """AC4.mult-kernel: the number of members of the multiplicative kernel."""
    return len(mult_kernel())


@lru_cache(maxsize=None)
def concurrent_triples():
    """All 3-sets of concurrent lines (dual lines); AC4.concurrency claims
    there are 7 of them."""
    return tuple(
        (d1, d2, d3) for d1, d2, d3 in combinations(fano.LINES, 3) if fano.line_add(d1, d2) == d3
    )


def concurrency_holds():
    """AC4.concurrency: there are exactly 7 concurrent line triples, and on
    each of them the sum of f* equals the total sum of f, for all 128
    functions f: per triple, the parities of the transforms masked by the
    triple's lines against the parities of the functions."""
    triples = [sum(1 << d - 1 for d in t) for t in concurrent_triples()]
    images = list(map(radon, ALL_FUNCTIONS))
    totals = _parities(ONE, ALL_FUNCTIONS)
    return len(triples) == 7 and all(_parities(m, images) == totals for m in triples)


def sign_labels(mask, kind):
    """The text tags "P1:+" ... of a sign function on points (kind "P") or
    "D1:+" ... on lines (kind "D"): "-" where it is -1, "+" where +1."""
    return ["%s%d:%s" % (kind, x, "-" if evaluate(mask, x) else "+") for x in fano.POINTS]


def sign_attrs(mask):
    """The DOT attributes of the seven nodes a sign function colors, red at -1."""
    return [
        'color=red, sign="-1"' if evaluate(mask, x) else 'color=green, sign="+1"'
        for x in fano.POINTS
    ]


def incidence_dot(name, head, point_attrs, line_attrs):
    """The incidence graph of the plane as one DOT graph: the statements in
    head, then a node per point and per line with the given attributes."""
    rows = ["graph %s {" % name] + ["  %s;" % s for s in head]
    rows += ["  P%d [%s];" % pa for pa in zip(fano.POINTS, point_attrs)]
    for d, attrs in zip(fano.LINES, line_attrs):
        rows.append("  D%d [%s];" % (d, attrs))
        rows += ["  P%d -- D%d;" % (p, d) for p in sorted(fano.LINE_POINTS[d])]
    return "\n".join(rows + ["}"])
