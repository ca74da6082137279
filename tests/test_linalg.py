import random

import pytest

from fanog2 import linalg
from fanog2.scalars import QI, QQ, PrimeField

FIELDS = {"Q": QQ, "Q(i)": QI, "F_p": PrimeField(1000003)}


def _entry(rng, field):
    v = field.of(rng.randint(-5, 5))
    if field is QI:
        v = v + field.of(rng.randint(-5, 5)) * field.sqrt_minus_one()
    return v


def _combination(rng, rows, field):
    out = [field.zero] * len(rows[0])
    for row in rows:
        c = _entry(rng, field)
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _deficient(rng, field, rank, nrows, ncols):
    """nrows dense rows spanning a space of dimension at most rank."""
    free = [[_entry(rng, field) for _ in range(ncols)] for _ in range(rank)]
    rows = free + [_combination(rng, free, field) for _ in range(nrows - rank)]
    rng.shuffle(rows)
    return rows


def _rref_rows(rows, field):
    red, pivots = linalg.rref(rows, field)
    return red[: len(pivots)]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_agrees_with_rref(name):
    field = FIELDS[name]
    rng = random.Random(name)
    for rank, nrows, ncols in ((3, 6, 5), (5, 8, 9), (7, 10, 12)):
        rows = _deficient(rng, field, rank, nrows, ncols)
        reduced = _rref_rows(rows, field)
        assert len(linalg.Echelon(field, rows)) == len(reduced) <= rank
        assert linalg.rank(rows, field) == len(reduced)
        inside = _combination(rng, rows, field)
        outside = [_entry(rng, field) for _ in range(ncols)]
        for vec in (inside, outside):
            expected = _rref_rows(rows + [vec], field) == reduced
            assert linalg.in_span(rows, vec, field) == expected
        assert linalg.in_span(rows, inside, field)
        rebased = [_combination(rng, rows, field) for _ in range(nrows)]
        for other in (rebased, rebased[:1], rows[:-1] + [outside]):
            expected = _rref_rows(other, field) == reduced
            assert linalg.span_equal(rows, other, field) == expected


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
