import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from fanog2 import g2
from fanog2.scalars import (
    QI,
    QQ,
    GaussianRational,
    PrimeField,
    clear_denominators,
    field_from_descriptor,
    gaussian_parts,
)


def test_rational_field_basics():
    assert QQ.of(3) == Fraction(3)
    assert QQ.one / QQ.of(4) == Fraction(1, 4)
    assert not QQ.has_sqrt_minus_one()


def test_gaussian_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -QI.one
    x = QI.of(2) + i
    y = QI.of(1) - i
    assert x * y == QI.of(3) - i
    assert (x / y) * y == x
    assert QI.has_sqrt_minus_one()


def test_gaussian_division_exact():
    a = GaussianRational(Fraction(3, 2), Fraction(-5, 7))
    b = GaussianRational(Fraction(1, 3), Fraction(2))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / QI.zero


def test_clear_denominators():
    assert clear_denominators([1, Fraction(1, 2), Fraction(-2, 3), 0]) == ([6, 3, -4, 0], 6)
    ints, d = clear_denominators([3, Fraction(4), -1])
    assert (ints, d) == ([3, 4, -1], 1) and all(type(v) is int for v in ints)
    v = [GaussianRational(Fraction(1, 3), Fraction(-5, 4)), Fraction(1, 6), 2]
    parts = gaussian_parts(v)
    assert parts == [Fraction(1, 3), Fraction(-5, 4), Fraction(1, 6), 0, 2, 0]
    assert clear_denominators(parts) == ([4, -15, 2, 0, 24, 0], 12)


def test_prime_field():
    f5 = PrimeField(5)
    assert f5.of(7) == f5.of(2)
    assert f5.of(2) * f5.of(3) == f5.one
    assert f5.one / f5.of(2) == f5.of(3)
    assert f5.has_sqrt_minus_one()
    # -1 is a square mod p exactly when x^2 = -1 has a solution, found by search
    for p in range(3, 200, 2):
        if all(p % q for q in range(3, p, 2)):
            roots = [x for x in range(1, p) if x * x % p == p - 1]
            assert PrimeField(p).has_sqrt_minus_one() == bool(roots), p
    f3 = PrimeField(3)
    assert not f3.has_sqrt_minus_one()


def test_field_descriptors():
    assert field_from_descriptor("q") is QQ
    assert field_from_descriptor("qi") is QI
    f7 = field_from_descriptor("fp:7")
    assert f7.of(10) == f7.of(3)
    with pytest.raises(ValueError):
        field_from_descriptor("fp:6")
    with pytest.raises(ValueError):
        field_from_descriptor("nope")


def test_large_primes_return_quickly():
    start = time.perf_counter()
    assert not PrimeField(2**61 - 1).has_sqrt_minus_one()
    assert g2.chevalley_gate(PrimeField(1000000009)) is True
    with pytest.raises(ValueError):
        PrimeField(1000000007 * 1000000009)
    assert time.perf_counter() - start < 5


# Deterministic and with no shrink phase, as the octonion property tests.
PROPERTY = settings(
    max_examples=50,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
)
FIELDS = (QQ, QI, PrimeField(7), PrimeField(1000000007))


def _elements(field):
    fractions = st.fractions(-20, 20, max_denominator=9)
    if field is QQ:
        return fractions
    if field is QI:
        # parts given as int or as Fraction, so equal elements are built
        # both ways
        parts = st.one_of(st.integers(-20, 20), fractions)
        return st.builds(GaussianRational, parts, parts)
    return st.integers(-20, 20).map(field.of)


def _equal_and_same_hash(a, b):
    return a == b and hash(a) == hash(b)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@PROPERTY
@given(data=st.data())
def test_field_axioms(field, data):
    x, y, z = (data.draw(_elements(field)) for _ in range(3))
    zero, one = field.zero, field.one
    assert _equal_and_same_hash((x + y) + z, x + (y + z))
    assert _equal_and_same_hash((x * y) * z, x * (y * z))
    assert _equal_and_same_hash(x * (y + z), x * y + x * z)
    assert _equal_and_same_hash(x + y, y + x)
    assert _equal_and_same_hash(x * y, y * x)
    assert _equal_and_same_hash(x + zero, x)
    assert _equal_and_same_hash(x * one, x)
    assert _equal_and_same_hash(x + (-x), zero)
    assert _equal_and_same_hash(x - y, x + (-y))
    assert _equal_and_same_hash(field.of(x), x)
    if x:
        assert _equal_and_same_hash(x * (one / x), one)
        assert _equal_and_same_hash((y / x) * x, y)
    else:
        with pytest.raises(ZeroDivisionError):
            one / x
    assert (x == y) == (x - y == zero)
    if field is QI:
        for v in (x, y, x + y, x * y, x - y):
            assert type(v.re) is Fraction and type(v.im) is Fraction
        # a real element equals the int or Fraction it is, in a set as well
        r = x.re.numerator if x.re.denominator == 1 else x.re
        assert _equal_and_same_hash(GaussianRational(x.re), r)
        assert len({GaussianRational(x.re), r}) == 1
