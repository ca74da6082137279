import random
from fractions import Fraction

import pytest

from fanog2 import linalg
from fanog2.scalars import QI, QQ, PrimeField

FIELDS = {"Q": QQ, "Q(i)": QI, "F_p": PrimeField(1000003)}


def _entry(rng, field):
    v = field.of(rng.randint(-5, 5))
    if field is QI:
        v = v + field.of(rng.randint(-5, 5)) * field.sqrt_minus_one()
    return v


def _rational(rng):
    """An int or a Fraction with a denominator up to 9; integral values
    stay int, so rows mix the two types.
    """
    v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return v.numerator if v.denominator == 1 else v


def _combination(rng, rows, entry):
    out = [0] * len(rows[0])
    for row in rows:
        c = entry(rng)
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _deficient(rng, entry, rank, nrows, ncols):
    """nrows dense rows spanning a space of dimension at most rank."""
    free = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = free + [_combination(rng, free, entry) for _ in range(nrows - rank)]
    rng.shuffle(rows)
    return rows


def _rref_rows(rows, field):
    red, pivots = linalg.rref(rows, field)
    return red[: len(pivots)]


def _check_against_rref(rng, field, entry):
    """Echelon's rank, in_span and span_equal agree with rref."""
    for rank, nrows, ncols in ((3, 6, 5), (5, 8, 9), (7, 10, 12)):
        rows = _deficient(rng, entry, rank, nrows, ncols)
        reduced = _rref_rows(rows, field)
        assert len(linalg.Echelon(field, rows)) == len(reduced) <= rank
        assert linalg.rank(rows, field) == len(reduced)
        inside = _combination(rng, rows, entry)
        outside = [entry(rng) for _ in range(ncols)]
        for vec in (inside, outside):
            expected = _rref_rows(rows + [vec], field) == reduced
            assert linalg.in_span(rows, vec, field) == expected
        assert linalg.in_span(rows, inside, field)
        rebased = [_combination(rng, rows, entry) for _ in range(nrows)]
        for other in (rebased, rebased[:1], rows[:-1] + [outside]):
            expected = _rref_rows(other, field) == reduced
            assert linalg.span_equal(rows, other, field) == expected


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_agrees_with_rref(name):
    field = FIELDS[name]
    _check_against_rref(random.Random(name), field, lambda rng: _entry(rng, field))


def test_rational_echelon_agrees_with_rref():
    # the fraction-free rows over Q must clear every denominator, including
    # in rows that mix int and Fraction entries
    rng = random.Random("Q fractions")
    rows = _deficient(rng, _rational, 3, 6, 5)
    assert {type(v) for row in rows for v in row} == {int, Fraction}
    assert any(v.denominator > 1 for row in rows for v in row)
    _check_against_rref(rng, QQ, _rational)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_add_rejects_dependent_rows(name):
    field = FIELDS[name]
    rng = random.Random(name)
    rows = [[_entry(rng, field) for _ in range(7)] for _ in range(3)]
    basis = linalg.Echelon(field)
    assert all(basis.add(row) for row in rows[:2])
    dependent = [a - b for a, b in zip(rows[0], rows[1])]
    assert not basis.add(dependent)
    assert not basis.add([field.zero] * 7)
    assert len(basis) == 2
    assert dependent in basis
    assert basis.add(rows[2]) == (len(_rref_rows(rows, field)) == 3)
