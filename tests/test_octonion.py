import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from fanog2 import compfactor, fano, octonion
from fanog2.scalars import QI, QQ, GaussianRational, PrimeField

# Deterministic and small, so tier-1 stays repeatable and fast.  Shrinking
# is off: shrinking 8-coefficient elements takes minutes, and the first
# counterexample is enough to report.
PROPERTY = settings(
    max_examples=10,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
)
FIELDS = (QQ, QI, PrimeField(7), PrimeField(1000000007))
I = GaussianRational(0, 1)


def _scalars(field):
    """Coordinates over field: ints, Fractions and elements of the field,
    mixed; over Q(i) with fractional real and imaginary parts."""
    ints = st.integers(-20, 20)
    fractions = st.fractions(-20, 20, max_denominator=6)
    if field is QQ:
        return st.one_of(ints, fractions)
    if field is QI:
        return st.builds(lambda a, b: QI.of(a) + I * b, fractions, fractions)
    return st.one_of(ints, ints.map(field.of))


def _draw(data, field, n):
    """A composition factor and n octonions over field."""
    eps = data.draw(st.sampled_from(compfactor.enumerate_composition_factors()))
    element = st.tuples(*[_scalars(field)] * 8)
    return (eps,) + tuple(data.draw(element) for _ in range(n))


def _rational(coeffs):
    return tuple(map(Fraction, coeffs))


def _basis(i):
    """e_i over Q: index 0 is the unit, 1..7 are the imaginary units."""
    return _rational(int(j == i) for j in range(8))


def _scale(c, x):
    return tuple(c * a for a in x)


def test_unit_and_basis():
    one = _basis(0)
    x = _rational((3, -1, 0, 2, 0, 0, 5, -4))
    assert octonion.mul(one, x) == x
    assert octonion.mul(x, one) == x
    for p in fano.POINTS:
        e = _basis(p)
        assert octonion.mul(e, e) == _scale(-1, one)


def test_collinear_products():
    # e1 e2 = e4, e5 e2 = e3, e7 e3 = -e1
    assert octonion.mul(_basis(1), _basis(2)) == _basis(4)
    assert octonion.mul(_basis(5), _basis(2)) == _basis(3)
    assert octonion.mul(_basis(7), _basis(3)) == _scale(-1, _basis(1))


def test_anticommutation():
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p == q:
                continue
            xy = octonion.mul(_basis(p), _basis(q))
            yx = octonion.mul(_basis(q), _basis(p))
            assert xy == _scale(-1, yx)


def test_norm_and_bilinear():
    x = _rational((1, 2, 3, 4, 5, 6, 7, 8))
    y = _rational((8, 7, 6, 5, 4, 3, 2, 1))
    assert octonion.norm(x) == sum(v * v for v in (1, 2, 3, 4, 5, 6, 7, 8))
    # the polarization of the norm is the dot product
    x_plus_y = tuple(a + b for a, b in zip(x, y))
    dot = sum(a * b for a, b in zip(x, y))
    assert octonion.norm(x_plus_y) == octonion.norm(x) + 2 * dot + octonion.norm(y)
    assert octonion.norm(octonion.mul(x, y)) == octonion.norm(x) * octonion.norm(y)


def test_conjugation():
    assert octonion.conjugation_is_antiautomorphism()
    x = _rational((2, 1, -1, 0, 3, 0, 0, 1))
    n = octonion.norm(x)
    prod = octonion.mul(x, (x[0],) + _scale(-1, x[1:]))
    assert prod == _scale(n, _basis(0))


def test_alternative_not_associative():
    assert octonion.is_alternative()
    e1, e2, e3 = (_basis(p) for p in (1, 2, 3))
    m = octonion.mul
    assert m(m(e1, e2), e3) != m(e1, m(e2, e3))


def test_clifford_property():
    assert octonion.clifford_identity()
    x = _rational((0, 1, 1, 0, -2, 0, 3, 0))
    n = octonion.norm(x)
    for b in range(8):
        e = _basis(b)
        assert octonion.mul(x, octonion.mul(x, e)) == _scale(-n, e)


def _flipped(eps):
    """eps with the antisymmetric pair (P1, P2) flipped."""
    table = [list(row) for row in eps]
    table[0][1], table[1][0] = table[1][0], table[0][1]
    return tuple(map(tuple, table))


def test_certificates_reject_a_flipped_pair(monkeypatch):
    """One antisymmetric pair of EPS_TAU flipped breaks every certificate
    but conjugation, which holds for any antisymmetric table."""
    table = [list(row) for row in compfactor.EPS_TAU]
    table[0][1] = -table[0][1]
    table[1][0] = -table[1][0]
    bad = octonion.products(tuple(map(tuple, table)))
    monkeypatch.setattr(octonion, "products", lambda eps: bad)
    assert not octonion.polarized_norm_identity(compfactor.EPS_TAU)
    assert not octonion.is_alternative()
    assert not octonion.clifford_identity()
    assert not octonion.lines_are_associative()


# The certificates one signed label (s, c), meaning s e_c, at a time, as the
# product table t gives them: the references of the associator table.


def _mul(t, u, v):
    r, m = t[u[1]][v[1]]
    return u[0] * v[0] * r, m


def _vanishes(*terms):
    out = [0] * 8
    for c, k in terms:
        out[k] += c
    return not any(out)


def _associator(t, a, b, c):
    return _mul(t, t[a][b], (1, c)), _mul(t, (-1, a), t[b][c])


def _reference_certificates(t):
    """AC14.alternative, conjugation, quaternion and clifford on a product
    table, each triple, pair or line checked on its own."""

    def bar(u):
        return (u[0] if u[1] == 0 else -u[0]), u[1]

    triples = list(product(range(8), repeat=3))
    return (
        all(
            _vanishes(*_associator(t, a, b, c), *_associator(t, b, a, c))
            and _vanishes(*_associator(t, c, a, b), *_associator(t, c, b, a))
            for a, b, c in triples
        ),
        all(bar(t[a][b]) == _mul(t, bar((1, b)), bar((1, a))) for a, b in product(range(8), repeat=2)),
        all(
            _vanishes(*_associator(t, a, b, c))
            for d in fano.LINES
            for a, b, c in product(octonion.quaternion_subalgebra(d), repeat=3)
        ),
        all(
            _vanishes(_mul(t, (1, p), t[q][b]), _mul(t, (1, q), t[p][b]), (2 if p == q else 0, b))
            for p, q in product(fano.POINTS, repeat=2)
            for b in range(8)
        ),
    )


def _certificates():
    return (
        octonion.is_alternative(),
        octonion.conjugation_is_antiautomorphism(),
        octonion.lines_are_associative(),
        octonion.clifford_identity(),
    )


def _relabelled(t):
    """The product table t with the labels 1 and 2 of its products swapped,
    signs kept."""
    swap = {1: 2, 2: 1}
    return tuple(tuple((s, swap.get(c, c)) for s, c in row) for row in t)


def test_associator_table_matches_the_label_by_label_reference(monkeypatch):
    # the four certificates read off the 512 associators against the loops
    # over signed labels: on EPS_TAU, on every line orientation (the 16
    # composition factors among them), on EPS_TAU with one pair flipped, and
    # on the table of EPS_TAU with two labels swapped, which only the labels
    # give away
    t = octonion.products(compfactor.EPS_TAU)
    assert _certificates() == _reference_certificates(t) == (True,) * 4
    factors = set(compfactor.enumerate_composition_factors())
    passing = set()
    for eps in compfactor.line_orientations() + (_flipped(compfactor.EPS_TAU),):
        monkeypatch.setattr(compfactor, "EPS_TAU", eps)
        got = _certificates()
        assert got == _reference_certificates(octonion.products(eps)), eps
        if all(got):
            passing.add(eps)
    assert passing == factors
    monkeypatch.undo()
    monkeypatch.setattr(octonion, "products", lambda eps: _relabelled(t))
    got = _certificates()
    assert got == _reference_certificates(_relabelled(t))
    assert not got[0] and not got[3]


def _failing_quadruples(t):
    """The quadruples (a, b, c, d) of all 8^4 on which <e_a e_b, e_c e_d> +
    <e_a e_d, e_c e_b> = 2 d_ac d_bd fails, for a table t of signed labels:
    the reference for polarized_norm_identity."""

    def inner(u, v):
        return u[0] * v[0] if u[1] == v[1] else 0

    return [
        (a, b, c, d)
        for a, b, c, d in product(range(8), repeat=4)
        if inner(t[a][b], t[c][d]) + inner(t[a][d], t[c][b])
        != (2 if a == c and b == d else 0)
    ]


def test_sparse_norm_identity_matches_the_quadruple_loop():
    family = compfactor.line_orientations() + (compfactor.EPS_TAU,)
    tables = [octonion.products(eps) for eps in family]
    mask = octonion.norm_identity_holds(tables)
    for i, eps in enumerate(family):
        reference = not _failing_quadruples(tables[i])
        assert octonion.polarized_norm_identity(eps) is reference, eps
        assert mask >> i & 1 == reference, eps
    assert bin(mask).count("1") == 17
    # one pair flipped in one member changes that member's bit alone
    for i, eps in enumerate(family):
        if mask >> i & 1:
            table = [list(row) for row in eps]
            table[0][1], table[1][0] = table[1][0], table[0][1]
            moved = tables[:i] + [octonion.products(tuple(map(tuple, table)))] + tables[i + 1 :]
            assert octonion.norm_identity_holds(moved) == mask ^ 1 << i, i


def test_norm_identity_of_signs_matches_the_product_tables():
    # the AC14.norm-structural mask, read off the sign words that the rules
    # read, against the evaluator on product tables: on the 128 line
    # orientations, and on EPS_TAU with one sign flipped, which then fails
    found = compfactor.line_orientations()
    table = [list(row) for row in compfactor.EPS_TAU]
    table[0][1] = -table[0][1]
    family = found + (tuple(map(tuple, table)),)
    mask = octonion.norm_identity_holds(list(map(octonion.products, family)))
    assert octonion.norm_identity_of_signs(family) == mask
    assert mask == compfactor.rules_hold(found)
    assert bin(mask).count("1") == 16


def test_label_plan_reads_each_sign_quadruple_once():
    # 28 pairs a < c, 4 entries each, and no two entries read the same four
    # positions: the (c, a, d) and (a, c, d) entries that would repeat the
    # (a, c, b) one are not listed
    labels = tuple(label for row in octonion.products(compfactor.EPS_TAU) for _, label in row)
    plan = octonion._label_plan(labels)
    assert len(plan) == 112
    positions = [frozenset(entry) for entry in plan]
    assert all(len(p) == 4 for p in positions)
    assert len(set(positions)) == len(positions)
    assert all(ab // 8 < cd // 8 and ab % 8 < cd % 8 for ab, cd, _, _ in plan)
    # the 448 entries of the full sweep over a != c read only these sets
    rows = [labels[8 * a : 8 * a + 8] for a in range(8)]
    full = {
        frozenset((8 * a + b, 8 * c + d, 8 * a + d, 8 * c + b))
        for a, c in permutations(range(8), 2)
        for b in range(8)
        for d in (rows[c].index(rows[a][b]),)
    }
    assert full == set(positions)


def test_label_plan_keeps_a_label_repeated_down_a_column():
    # every row the same permutation: e_a e_b and e_c e_b share a label, so
    # the check at (a, c, b) has d = b and reads two signs twice; the
    # quadruple loop fails there, and so must the plan
    t = tuple(tuple((1, b) for b in range(8)) for _ in range(8))
    assert _failing_quadruples(t)
    labels = tuple(label for row in t for _, label in row)
    plan = octonion._label_plan(labels)
    assert len(plan) == 28 * 8
    assert all(ab == ad and cd == cb for ab, cd, ad, cb in plan)
    assert octonion.norm_identity_holds([t, octonion.products(compfactor.EPS_TAU)]) == 0b10


def test_norm_identity_reads_a_family_with_mixed_labels():
    # a table whose row 1 is no permutation beside one that passes: the
    # family is read member by member
    t = octonion.products(compfactor.EPS_TAU)
    rows = [list(row) for row in t]
    rows[1][1] = (rows[1][1][0], rows[1][0][1])
    bad = tuple(map(tuple, rows))
    assert _failing_quadruples(bad)
    assert octonion.norm_identity_holds([bad, t, bad]) == 0b010


def _patched(monkeypatch, rows):
    bad = tuple(map(tuple, rows))
    monkeypatch.setattr(octonion, "products", lambda eps: bad)
    return _failing_quadruples(bad)


def test_sparse_norm_identity_rejects_a_repeated_label(monkeypatch):
    t = octonion.products(compfactor.EPS_TAU)
    rows = [list(row) for row in t]
    rows[1][1] = (rows[1][1][0], rows[1][0][1])  # row 1 is no permutation
    assert _patched(monkeypatch, rows)
    assert octonion.polarized_norm_identity(compfactor.EPS_TAU) is False
    # every entry of every row given the label of another entry of its row
    for a, b, b2 in product(range(8), repeat=3):
        if b != b2:
            rows = [list(row) for row in t]
            rows[a][b] = (rows[a][b][0], rows[a][b2][1])
            bad = tuple(map(tuple, rows))
            monkeypatch.setattr(octonion, "products", lambda eps: bad)
            assert octonion.polarized_norm_identity(compfactor.EPS_TAU) is False


def test_sparse_norm_identity_checks_the_diagonal(monkeypatch):
    # every sign doubled: M + M^T = 4 (2 d_ac d_bd), wrong only where a = c
    # and b = d
    t = octonion.products(compfactor.EPS_TAU)
    failing = _patched(monkeypatch, [[(2 * s, k) for s, k in row] for row in t])
    assert failing and all(a == c and b == d for a, b, c, d in failing)
    assert octonion.polarized_norm_identity(compfactor.EPS_TAU) is False


def test_norm_identity_on_line_orientations():
    orientations = compfactor.line_orientations()
    assert len(set(orientations)) == 128
    passing = [e for e in orientations if octonion.polarized_norm_identity(e)]
    assert passing == list(compfactor.enumerate_composition_factors())
    assert len(passing) == 16


def test_subalgebra_dimensions():
    assert len(octonion.subalgebra_generated([1])) == 2
    for d in fano.LINES:
        idx = octonion.quaternion_subalgebra(d)
        assert len(idx) == 4
        assert len(octonion.subalgebra_generated(sorted(set(idx) - {0}))) == 4
    assert len(octonion.subalgebra_generated([1, 2, 3])) == 8


def test_other_fields():
    f5 = PrimeField(5)
    x = tuple(f5.of(v) for v in (1, 2, 3, 4, 0, 1, 2, 3))
    y = tuple(f5.of(v) for v in (4, 0, 1, 3, 2, 2, 1, 0))
    assert octonion.norm(
        octonion.mul(x, y, compfactor.EPS_TAU, f5)
    ) == octonion.norm(x) * octonion.norm(y)
    z = tuple(QI.of(0) for _ in range(7)) + (I,)
    assert octonion.norm(octonion.mul(z, z, compfactor.EPS_TAU, QI)) == QI.of(1)


def _reference_mul(x, y, eps, field):
    """xy as a sum of field elements, term by term from the basis rule
    e_a e_b = eps_ab e_{a+b}, e_a^2 = -1, with e_0 = 1 central."""
    out = [field.zero] * 8
    for a, u in enumerate(x):
        for b, v in enumerate(y):
            if not a or not b:
                s, c = 1, a or b
            elif a == b:
                s, c = -1, 0
            else:
                s, c = compfactor.eps_get(eps, a, b), fano.add(a, b)
            out[c] = out[c] + s * (u * v)
    return tuple(out)


def _reference_bilinear(x, y):
    out = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        out = out + a * b
    return out


def _same(got, want):
    """Equal in value, type and repr, coordinate by coordinate."""
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert repr(got) == repr(want)


def _reference_cases(field):
    """Pairs of factors over field: all ints, a zero factor, ints mixed with
    Fractions, and the field's own elements."""
    f = Fraction
    ints = (3, -1, 0, 2, 7, 0, 5, -4)
    mixed = (f(1, 2), 3, f(-5, 6), 0, f(7, 4), -2, f(9, 10), 1)
    cases = [
        (ints, (1, 2, 3, 4, 5, 6, 7, 8)),
        ((0,) * 8, mixed),
        (mixed, ints),
        (mixed, (f(2, 3), f(-1, 9), 4, f(5, 8), 0, f(1, 12), -1, f(3, 5))),
    ]
    if field is QI:
        # real and imaginary parts with different denominators
        g = GaussianRational
        gauss = (g(f(1, 3), f(-5, 4)), 2, g(0, f(7, 10)), f(1, 6), g(3, 1), 0, g(f(-2, 9), 5), 1)
        cases += [(gauss, mixed), (gauss, gauss[::-1])]
    elif field is not QQ:
        cases.append((tuple(map(field.of, ints)), mixed))
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mul_and_bilinear_match_the_term_by_term_sums(field):
    for eps in compfactor.enumerate_composition_factors():
        for x, y in _reference_cases(field):
            xy = octonion.mul(x, y, eps, field)
            _same(xy, _reference_mul(x, y, eps, field))
            for u in (x, y, xy):
                _same((octonion.norm(u),), (_reference_bilinear(u, u),))
    ints = _reference_cases(field)[0][0]
    assert type(octonion.norm(ints)) is int


def test_mixed_prime_fields_raise():
    f5, f7 = PrimeField(5), PrimeField(7)
    x = tuple(map(f5.of, (1, 2, 3, 4, 0, 1, 2, 3)))
    y = tuple(map(f7.of, (4, 0, 1, 3, 2, 2, 1, 0)))
    for field in (f5, f7):
        with pytest.raises(ValueError):
            octonion.mul(x, y, compfactor.EPS_TAU, field)
    with pytest.raises(ValueError):
        octonion.norm(x[:4] + y[4:])
    # coordinates of no supported field
    with pytest.raises(TypeError):
        octonion.norm(x[:4] + (0.5,) * 4)


def test_table_formats():
    t = octonion.table()
    assert len(t) == 7 and all(len(row) == 7 for row in t)
    assert all(t[i][i] == 0 for i in range(7))
    data = json.loads(octonion.table_json())
    assert len(data["table"]) == 7
    text = octonion.table_text()
    assert "e1" in text and len(text.splitlines()) == 8


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@PROPERTY
@given(data=st.data())
def test_moufang_identity(field, data):
    eps, x, y, z = _draw(data, field, 3)

    def m(a, b):
        return octonion.mul(a, b, eps, field)

    assert m(m(x, y), m(z, x)) == m(m(x, m(y, z)), x)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@PROPERTY
@given(data=st.data())
def test_norm_is_multiplicative(field, data):
    eps, x, y = _draw(data, field, 2)
    xy = octonion.mul(x, y, eps, field)
    assert octonion.norm(xy) == octonion.norm(x) * octonion.norm(y)
