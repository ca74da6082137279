import random
from fractions import Fraction

import pytest

from fanog2 import linalg
from fanog2.scalars import QI, QQ, GaussianRational, PrimeField

# F_p rows are kept as int residues; entries grow to about rows * p^2
# before the final reduction, past 2^128 for the prime near 2^63.
FIELDS = {
    "Q": QQ,
    "Q(i)": QI,
    "F_p": PrimeField(1000003),
    "F_7": PrimeField(7),
    "F_p near 2^63": PrimeField(2**63 - 25),
}
I = GaussianRational(0, 1)


def _entry(rng, field):
    v = field.of(rng.randint(-5, 5))
    if field is QI:
        v = v + field.of(rng.randint(-5, 5)) * I
    return v


def _rational(rng):
    """An int or a Fraction with a denominator up to 9; integral values
    stay int, so rows mix the two types.
    """
    v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return v.numerator if v.denominator == 1 else v


def _gaussian(rng):
    """An int, a Fraction or a Gaussian rational with Fraction parts, all
    with denominators up to 9, so rows mix the three types.
    """
    re, im = _rational(rng), _rational(rng)
    return GaussianRational(re, im) if im else re


def _residue(rng, field):
    """An int, a Fraction or an element of the prime field, with values up
    to p, so rows mix the three types.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-field.p, field.p)
    if kind == 1:
        return Fraction(rng.randint(-field.p, field.p), rng.randint(1, 6))
    if kind == 2:
        return 0
    return field.of(rng.randrange(field.p))


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


def _gauss_jordan(rows, field):
    """The reduced row echelon form by division in the field, independent of
    linalg: (nonzero rows, pivot columns).
    """
    m = [[field.of(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _rref_rows(rows, field):
    return _gauss_jordan(rows, field)[0]


def _kernel_basis(rows, field):
    """One vector per free column fc: one at fc, minus the reduced rows'
    entries in column fc at their pivots, zero elsewhere.
    """
    reduced, pivots = _gauss_jordan(rows, field)
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [field.zero] * ncols
            vec[fc] = field.one
            for row, pc in zip(reduced, pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
    return basis


def _types(vectors):
    return [
        [(type(x), type(x.re), type(x.im)) if type(x) is GaussianRational else type(x) for x in v]
        for v in vectors
    ]


def _check_against_rref(rng, field, entry):
    """Echelon's rank, membership and span comparison agree with rref."""
    for rank, nrows, ncols in ((3, 6, 5), (5, 8, 9), (7, 10, 12)):
        rows = _deficient(rng, entry, rank, nrows, ncols)
        reduced = _rref_rows(rows, field)
        assert len(linalg.Echelon(field, rows)) == len(reduced) <= rank
        assert linalg.rank(rows, field) == len(reduced)
        basis = linalg.Echelon(field, rows)
        inside = _combination(rng, rows, entry)
        outside = [entry(rng) for _ in range(ncols)]
        for vec in (inside, outside):
            expected = _rref_rows(rows + [vec], field) == reduced
            assert (vec in basis) == expected
        assert inside in basis
        rebased = [_combination(rng, rows, entry) for _ in range(nrows)]
        for other in (rebased, rebased[:1], rows[:-1] + [outside]):
            expected = _rref_rows(other, field) == reduced
            same = len(basis) == linalg.rank(other, field) and all(v in basis for v in other)
            assert same == expected


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_agrees_with_rref(name):
    field = FIELDS[name]
    rng = random.Random(name)
    _check_against_rref(rng, field, lambda rng: _entry(rng, field))
    if field not in (QQ, QI):
        _check_against_rref(rng, field, lambda rng: _residue(rng, field))


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


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_nullspace_is_the_reduced_kernel_basis(name):
    field = FIELDS[name]
    rng = random.Random("kernel " + name)
    entries = [lambda rng: _entry(rng, field)]
    if field is QQ:
        entries.append(_rational)
    if field is QI:
        # Fraction parts, and rows sharing a Gaussian factor no integer clears
        factor = (QI.one + I) * (QI.of(2) + I)
        entries += [_gaussian, lambda rng: factor * _entry(rng, field)]
    if field not in (QQ, QI):
        entries.append(lambda rng: _residue(rng, field))
    for entry in entries:
        for rank, nrows, ncols in ((3, 6, 5), (5, 8, 9), (4, 4, 9), (6, 6, 6), (7, 7, 3)):
            rows = _deficient(rng, entry, rank, nrows, ncols)
            basis, expected = linalg.nullspace(rows, field), _kernel_basis(rows, field)
            assert basis == expected and _types(basis) == _types(expected)
            assert len(basis) == ncols - linalg.rank(rows, field)
    for zero in (0, field.zero):
        rows = [[zero] * 4 for _ in range(3)]
        identity = [[field.one if i == j else field.zero for j in range(4)] for i in range(4)]
        basis = linalg.nullspace(rows, field)
        assert basis == _kernel_basis(rows, field) == identity
        assert _types(basis) == _types(identity)
    assert linalg.nullspace([], field) == []
