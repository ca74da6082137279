"""The finite Radon transform for Z_2-valued functions on the Fano plane.

A function f: points -> Z_2 is stored as a 7-bit mask whose bit (p-1) is
f(P_p); likewise a function on lines has bit (d-1) equal to the value on
D_d.  The transform sums f over the three points of each line.
"""

from functools import lru_cache
from itertools import combinations
from math import prod

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


@lru_cache(maxsize=None)
def radon(f):
    """f*(D) = sum of f over the points of D, for each line; memoized over
    the 128 masks, which every sweep of the transform reads many times."""
    out = 0
    for d in fano.LINES:
        s = sum(evaluate(f, p) for p in fano.LINE_POINTS[d]) % 2
        if s:
            out |= 1 << (d - 1)
    return out


@lru_cache(maxsize=None)
def kernel():
    """The 8 functions with zero transform: 0 and the seven T_D."""
    return tuple(f for f in ALL_FUNCTIONS if radon(f) == 0)


def kernel_is_off_line_indicators():
    """AC4.kernel-shape: the kernel is 0 and the seven T_D."""
    return set(kernel()) == {ZERO} | {t_line(d) for d in fano.LINES}


@lru_cache(maxsize=None)
def image():
    """The 16-element image of the transform."""
    return tuple(sorted({radon(f) for f in ALL_FUNCTIONS}))


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


def preimages(h):
    return tuple(f for f in ALL_FUNCTIONS if radon(f) == h)


def preimages_have_eight():
    """AC4.preimages: each point of the image has eight preimages."""
    return all(len(preimages(h)) == 8 for h in image())


@lru_cache(maxsize=None)
def radon_mult(f):
    """Multiplicative transform: f*(D) = product of f(P) over P in D.

    Defined for functions with values in {+1,-1}, stored as sign tuples
    indexed by label-1; memoized, since R, its kernel and the deltas of the
    covering group transform the same 64 functions.
    """
    return tuple(prod(f[p - 1] for p in fano.LINE_POINTS[d]) for d in fano.LINES)


@lru_cache(maxsize=None)
def all_sign_functions():
    """The 128 sign tuples, the i-th with -1 at the set bits of i; memoized."""
    out = []
    for m in range(128):
        out.append(tuple(-1 if (m >> i) & 1 else 1 for i in range(7)))
    return tuple(out)


@lru_cache(maxsize=None)
def mult_domain():
    """R: the 64 sign functions on points whose total product is +1."""
    return tuple(f for f in all_sign_functions() if prod(f) == 1)


@lru_cache(maxsize=None)
def mult_image():
    """R*: the multiplicative transform of the domain R, as a sorted tuple.

    The claims compare it with the line sign functions whose product is +1
    on every pencil (see pencil_sign_functions).
    """
    return tuple(sorted({radon_mult(f) for f in mult_domain()}))


def pencil_sign_functions():
    """The line sign functions with product +1 on every pencil."""
    return tuple(
        h
        for h in all_sign_functions()
        if all(
            prod(h[d - 1] for d in fano.lines_through(p)) == 1
            for p in fano.POINTS
        )
    )


def mult_image_agreement():
    """AC4.mult-image: the common size of R* and the pencil sign functions
    when the two sets are equal, else the first member of one that the
    other lacks."""
    a, b = set(mult_image()), set(pencil_sign_functions())
    return len(a) if a == b else min(a ^ b)


def mult_kernel():
    """The 8-element kernel of the multiplicative transform on R."""
    triv = tuple(1 for _ in fano.POINTS)
    return tuple(f for f in mult_domain() if radon_mult(f) == radon_mult(triv))


@lru_cache(maxsize=None)
def concurrent_triples():
    """All 3-sets of concurrent lines (dual lines); AC4.concurrency claims
    there are 7 of them."""
    return tuple(
        (d1, d2, d3) for d1, d2, d3 in combinations(fano.LINES, 3) if fano.line_add(d1, d2) == d3
    )


def concurrency_identity(f):
    """Sum over each concurrent line triple of f* equals the total sum of f.

    Returns (lhs_values, rhs); the identity asserts all lhs equal rhs.
    """
    h = radon(f)
    rhs = sum(evaluate(f, p) for p in fano.POINTS) % 2
    lhs = tuple(
        (evaluate(h, d1) + evaluate(h, d2) + evaluate(h, d3)) % 2
        for d1, d2, d3 in concurrent_triples()
    )
    return lhs, rhs


def concurrency_holds():
    """AC4.concurrency: there are exactly 7 concurrent line triples, and
    the identity holds on each of them for all 128 functions."""
    return len(concurrent_triples()) == 7 and all(
        all(v == rhs for v in lhs)
        for lhs, rhs in map(concurrency_identity, ALL_FUNCTIONS)
    )
