"""Exact scalar arithmetic over fields of characteristic != 2.

Three coefficient fields are supported: the rationals Q (backed by
fractions.Fraction), the Gaussian rationals Q(i), and prime fields F_p for
odd primes p.  The code that takes a field object (linalg, octonion.mul)
runs over any of them with no rounding anywhere; g2.chevalley_gate asks
a field only has_sqrt_minus_one.
Over Q and Q(i) the kernels work on integers: clear_denominators scales a
rational vector to integers once, and gaussian_parts splits a vector over
Q(i) into rational real and imaginary parts for it.
"""

from fractions import Fraction
from math import lcm


class GaussianRational:
    """Element a + b*i of Q(i), with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real element equals its real part, so it must hash the same
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return repr(self.re)
        return "(%s + %s*i)" % (self.re, self.im)


def clear_denominators(v):
    """(d v, d) for a vector v of ints and Fractions: d is the lcm of the
    denominators, and d v is a new list of ints.  A vector of ints is copied
    as it is."""
    den, ints = 1, True
    for x in v:
        if type(x) is not int:
            ints = False
            den = lcm(den, x.denominator)
    if ints:
        return list(v), 1
    return [x.numerator * (den // x.denominator) for x in v], den


def gaussian_parts(v):
    """The real and imaginary parts of a vector over Q(i), side by side:
    those of v[c] at positions 2c and 2c + 1."""
    parts = []
    for x in v:
        parts += (x.re, x.im) if type(x) is GaussianRational else (x, 0)
    return parts


def _as_gauss(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


class PrimeFieldElement:
    """Residue mod an odd prime p, canonical representative in 0..p-1."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields: p=%d vs p=%d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        if isinstance(other, Fraction):
            return PrimeFieldElement(other.numerator, self.p) / PrimeFieldElement(
                other.denominator, self.p
            )
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.v - other.v, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return PrimeFieldElement(self.v * pow(other.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return PrimeFieldElement(-self.v, self.p)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d (mod %d)" % (self.v, self.p)


# Miller-Rabin with these bases is exact for every n below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 2**64
_PRIME_LIMIT_ERROR = "primes of 2^64 and above are not supported"


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q; elements are fractions.Fraction."""

    name = "q"

    def of(self, n):
        return Fraction(n)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def has_sqrt_minus_one(self):
        return False

    def __repr__(self):
        return "Q"


class GaussianRationalField:
    """The field Q(i)."""

    name = "qi"

    def of(self, n):
        if isinstance(n, GaussianRational):
            return n
        return GaussianRational(n)

    @property
    def zero(self):
        return GaussianRational(0)

    @property
    def one(self):
        return GaussianRational(1)

    def has_sqrt_minus_one(self):
        return True

    def __repr__(self):
        return "Q(i)"


class PrimeField:
    """The field F_p for an odd prime p."""

    def __init__(self, p):
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if p >= _PRIME_LIMIT:
            raise ValueError(_PRIME_LIMIT_ERROR)
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.name = "fp:%d" % p

    def of(self, n):
        if isinstance(n, PrimeFieldElement):
            if n.p != self.p:
                raise ValueError("element of F_%d used in F_%d" % (n.p, self.p))
            return n
        if isinstance(n, Fraction):
            return PrimeFieldElement(n.numerator, self.p) / PrimeFieldElement(
                n.denominator, self.p
            )
        return PrimeFieldElement(n, self.p)

    @property
    def zero(self):
        return PrimeFieldElement(0, self.p)

    @property
    def one(self):
        return PrimeFieldElement(1, self.p)

    def has_sqrt_minus_one(self):
        # -1 is a square mod an odd prime p iff p = 1 (mod 4).
        return self.p % 4 == 1

    def __repr__(self):
        return "F_%d" % self.p


QQ = RationalField()
QI = GaussianRationalField()


def field_from_descriptor(desc):
    """Parse a field descriptor string: 'q', 'qi' or 'fp:<p>'."""
    if desc == "q":
        return QQ
    if desc == "qi":
        return QI
    digits = desc[3:]
    if desc.startswith("fp:") and digits.isascii() and digits.isdigit():
        # 2^64 has 20 digits: a longer number is refused before int reads it
        digits = digits.lstrip("0") or "0"
        if len(digits) > 20:
            raise ValueError(_PRIME_LIMIT_ERROR)
        return PrimeField(int(digits))
    raise ValueError("unsupported field descriptor: %r" % desc)
