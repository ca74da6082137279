import itertools
import random
from fractions import Fraction

import pytest

from fanog2 import fano, g2, lifting, linalg, radon
from fanog2.scalars import QI, QQ, GaussianRational, PrimeField


def test_pair_basis_shape():
    assert len(g2.PAIRS) == 21
    assert len(g2.INCIDENT_PAIRS) == 21
    for p, d in g2.INCIDENT_PAIRS:
        assert p in fano.LINE_POINTS[d]


def test_so7_bracket_antisymmetric():
    for pair1 in g2.PAIRS[:8]:
        for pair2 in g2.PAIRS[:8]:
            x = g2.elt((1, *pair1))
            y = g2.elt((1, *pair2))
            assert g2.bracket(x, y) == g2.scale_elt(-1, g2.bracket(y, x))


def test_combine_sums_each_key_and_drops_zero_totals():
    # over Q, Q(i) and F_5: (one, half, minus) with half + half and one +
    # minus the field's own values, one + minus zero
    f5 = PrimeField(5)
    i = GaussianRational(0, 1)
    for one, half, minus in (
        (1, Fraction(1, 2), -1),
        (i, GaussianRational(Fraction(1, 2), 1), -i),
        (f5.of(1), f5.of(3), f5.of(4)),
    ):
        terms = [("a", half), ("b", one), ("a", half), ("c", one), ("b", minus)]
        out = g2.combine(terms)
        assert out == {"a": half + half, "c": one} and list(out) == ["a", "c"]
        assert type(out["a"]) is type(half + half)
        assert g2.combine([("b", one), ("b", minus)]) == {} == g2.combine([])
        # a new dict, even when no two terms share a key
        d = {"a": half, "c": one}
        out = g2.combine(d.items())
        assert out == d and out is not d


def _reference_X(p, d):
    """X(p, d) written out per slot of the cycle of lines through P = P_i."""
    la, i = fano._lab, p
    if d == i:
        return g2.elt((1, la(i + 2), la(i - 1)), (-1, la(i - 3), la(i - 2)))
    if d == la(i - 1):
        return g2.elt((1, la(i - 3), la(i - 2)), (-1, la(i + 1), la(i + 3)))
    assert d == la(i - 3)
    return g2.elt((1, la(i + 1), la(i + 3)), (-1, la(i + 2), la(i - 1)))


def test_generators_follow_the_line_cycle():
    for p in fano.POINTS:
        assert sorted(g2.LINE_CYCLE[p]) == sorted(fano.lines_through(p))
    for p, d in g2.INCIDENT_PAIRS:
        x = g2.X(p, d)
        assert x == _reference_X(p, d) and list(x) == list(_reference_X(p, d))


def _reference_bracket(x, y):
    """[x, y] term by term: [e_ij, e_kl] = d_ik e_jl - d_jk e_il + d_il e_kj
    - d_jl e_ki on every pair of terms."""
    out = {}

    def addt(c, i, j):
        # e_{ii} = 0, so coincident indices contribute nothing
        if i == j:
            return
        if i > j:
            i, j = j, i
            c = -c
        w = out.get((i, j), 0) + c
        if w:
            out[(i, j)] = w
        else:
            out.pop((i, j), None)

    for (i, j), a in x.items():
        for (k, l), b in y.items():
            c = a * b
            if i == k:
                addt(c, j, l)
            if j == k:
                addt(-c, i, l)
            if i == l:
                addt(c, k, j)
            if j == l:
                addt(-c, k, i)
    return out


def _same_element(got, want):
    """Equal as elements, with the same coefficient types term by term."""
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


def _combination(rng, coeff):
    """A dense combination of the 21 X(P, D) with coefficients coeff(rng)."""
    x = {}
    for pd in g2.INCIDENT_PAIRS:
        x = g2.add_elt(x, g2.scale_elt(coeff(rng), g2.X(*pd)))
    return x


def test_bracket_matches_the_pairwise_reference():
    assert sum(map(len, g2.structure_constants())) == 210
    basis = [g2.elt((1, *pair)) for pair in g2.PAIRS]
    for x in basis:
        for y in basis:
            _same_element(g2.bracket(x, y), _reference_bracket(x, y))
    f5, big = PrimeField(5), PrimeField(1000000007)
    coeffs = {
        "int": lambda rng: rng.randint(-3, 3),
        "Fraction": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "Q(i)": lambda rng: GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-3, 3)
        ),
        "F_5": lambda rng: f5.of(rng.randrange(5)),
        "F_p": lambda rng: big.of(rng.randrange(big.p)),
    }
    for name, coeff in coeffs.items():
        rng = random.Random("bracket " + name)
        dense = [_combination(rng, coeff) for _ in range(6)]
        # short elements too, so both the row loop and the loop over y run
        short = [{k: v for k, v in x.items() if rng.random() < 0.2} for x in dense]
        assert {len(x) >= 10 for x in dense} == {True}
        assert {len(x) < 10 for x in short} == {True}
        elements = dense + short + [g2.scale_elt(coeff(rng) or 1, x) for x in basis[::7]]
        for x in elements:
            for y in elements:
                _same_element(g2.bracket(x, y), _reference_bracket(x, y))


def test_generator_brackets_match_bracket():
    # the table holds bracket on all 441 ordered pairs of generators
    table = g2.generator_brackets()
    assert len(table) == 441
    for a in g2.INCIDENT_PAIRS:
        for b in g2.INCIDENT_PAIRS:
            _same_element(table[a, b], g2.bracket(g2.X(*a), g2.X(*b)))
    for pd in g2.INCIDENT_PAIRS:
        assert g2.x_vector(*pd) == tuple(g2.to_vector(g2.X(*pd)))


@pytest.fixture
def fresh_brackets():
    """Clear the generator bracket table before and after a test that
    patches g2.bracket, so that the claims read a table built by the patch
    and no entry built under it outlives the test."""
    g2.generator_brackets.cache_clear()
    yield
    g2.generator_brackets.cache_clear()


def test_jacobi_check_catches_a_broken_bracket(monkeypatch, fresh_brackets):
    assert g2.jacobi_check()
    bracket = g2.bracket
    a, b, c = (g2.X(*pd) for pd in g2.g2_basis()[:3])

    def one_sided(x, y):
        # [a, b] gains a term that [b, a] lacks: antisymmetry fails
        return g2.add_elt(bracket(x, y), c) if (x, y) == (a, b) else bracket(x, y)

    def skewed(x, y):
        # an alternating bilinear term, so only the Jacobi sums can fail
        t = g2.pair_inner(x, a) * g2.pair_inner(y, b) - g2.pair_inner(y, a) * g2.pair_inner(x, b)
        return g2.add_elt(bracket(x, y), g2.scale_elt(t, c))

    assert g2.add_elt(skewed(a, b), skewed(b, a)) == {} != skewed(a, b)
    for bad in (one_sided, skewed):
        monkeypatch.setattr(g2, "bracket", bad)
        g2.generator_brackets.cache_clear()
        assert not g2.jacobi_check()


def test_a_bracket_wrong_on_one_generator_pair_fails_its_readers(monkeypatch, fresh_brackets):
    # [X(1, 1), X(1, 5)] gains a term: the two commute in h_P1, so the table
    # entry breaks the bracket law, h_P1 is no longer abelian, and the two
    # basis elements no longer bracket antisymmetrically
    bracket = g2.bracket
    a, b, c = g2.X(1, 1), g2.X(1, 5), g2.X(2, 1)
    assert bracket(a, b) == {}

    def bad(x, y):
        return g2.add_elt(bracket(x, y), c) if (x, y) == (a, b) else bracket(x, y)

    monkeypatch.setattr(g2, "bracket", bad)
    assert g2.generator_brackets()[(1, 1), (1, 5)] == c
    assert not g2.check_bracket_law()
    assert not g2.cartan_is_abelian(1)
    assert not g2.cartans_hold()
    assert not g2.jacobi_check()
    assert all(g2.cartan_is_abelian(p) for p in fano.POINTS if p != 1)


def test_spinor_representation_faithful_bracket():
    # matrix commutators realize the so(7) bracket at twice the scale
    for pair1 in g2.PAIRS[:6]:
        for pair2 in g2.PAIRS[:6]:
            x = g2.elt((1, *pair1))
            y = g2.elt((1, *pair2))
            lhs = g2._commutator(g2.matrix2(x), g2.matrix2(y))
            rhs = g2.matrix2(g2.scale_elt(2, g2.bracket(x, y)))
            assert lhs == rhs


def test_clifford_relation():
    # L_p L_q + L_q L_p = -2 delta_pq I on all 49 ordered pairs of units, and
    # so (L_p + L_q)^2 = -(2 + 2 delta_pq) I, a product whose entries each
    # sum two terms
    rho = g2.rho()
    assert sorted(rho) == list(fano.POINTS)
    minus_two = {(i, i): -2 for i in range(8)}
    for p in fano.POINTS:
        for q in fano.POINTS:
            anti = g2.add_elt(g2._product(rho[p], rho[q]), g2._product(rho[q], rho[p]))
            assert anti == (minus_two if p == q else {}), (p, q)
            s = g2.add_elt(rho[p], rho[q])
            assert g2._product(s, s) == {(i, i): -2 - 2 * (p == q) for i in range(8)}


def test_generators_annihilate_unit():
    # the generators of the seven s_P are all 21 X's, and the spinor matrix
    # of each has no entry in the column of the unit
    gens = {pd for p in fano.POINTS for pd in g2.point_subalgebra_generators(p)}
    assert gens == set(g2.INCIDENT_PAIRS)
    for p in fano.POINTS:
        assert g2.point_subalgebra_annihilates(p)


def test_point_relation_and_dimension():
    assert g2.point_relations_hold()
    assert g2.span_dimension() == 14
    assert len(g2.g2_basis()) == 14


def test_eps_star_matches_action():
    # the sign rule for the action on basis octonions, pinned by matrices
    assert g2.action_formula_holds()
    assert g2.action_on_basis(1, 1, 2) == (0, 0)


def test_anchored_brackets():
    assert g2.bracket(g2.X(1, 1), g2.X(3, 7)) == g2.scale_elt(-1, g2.X(7, 7))
    assert g2.bracket(g2.X(4, 1), g2.X(5, 2)) == g2.scale_elt(-1, g2.X(7, 6))
    assert g2.bracket(g2.X(1, 1), g2.X(2, 1)) == g2.scale_elt(2, g2.X(4, 1))


def test_bracket_law_and_jacobi():
    assert g2.check_bracket_law()
    assert g2.jacobi_check()


def test_orbit_census():
    assert g2.orbit_census() == {
        "D": 21, "O1": 42, "O2": 42, "O3": 84, "O3'": 84, "O4": 168,
    }


def test_cartans():
    for p in fano.POINTS:
        assert g2.cartan_dimension(p) == 2
        assert g2.cartan_is_abelian(p)
        assert g2.cartan_self_centralizing(p)
    assert g2.decomposition_check()


def test_line_subalgebras():
    for d in fano.LINES:
        rep = g2.line_subalgebra_report(d)
        assert rep["dimension"] == 6
        assert rep["x_cyclic"] and rep["y_cyclic"] and rep["xy_commute"]
        assert rep["ix_dim"] == 3 and rep["iy_dim"] == 3
        assert rep["invariant_subspaces"]
        assert rep["ix_acts_trivially_on_line"]


def test_root_system():
    rep = g2.root_system(1)
    assert rep["count"] == 12
    assert rep["x_lengths"] == [2, 2, 2]
    assert rep["y_lengths"] == [6, 6, 6]
    assert rep["closure_matches"]


def test_delta_hat():
    a, _ = fano.standard_generators()
    ahat = (a, (1, 1, 1, 1, -1, 1, -1))
    fn = g2.delta_hat_fn(ahat)
    assert {p for p in fano.POINTS if not radon.evaluate(fn, p)} == {1, 6, 7}
    assert radon.radon(fn) == lifting.delta_star_fn(a)


def _reference_delta_hat(aug, p):
    """delta at P entry by entry: each nonzero entry (a, b) of
    2 rho_hat(X_{P,D}), times s_a s_b, must land on sign times the entry of
    2 rho_hat(X_{gP,gD}) at (ga, gb), with one sign for all lines through P."""
    g, s = aug
    img = (0,) + g
    sg = (1,) + s
    lines = fano.line_perm(g)
    signs = set()
    for d in fano.lines_through(p):
        source = g2.x_matrix2(p, d)
        target = g2.x_matrix2(g[p - 1], lines[d - 1])
        sign = 0
        if len(source) == len(target):
            for (a, b), v in source.items():
                w = sg[a] * sg[b] * v
                t = target.get((img[a], img[b]))
                if not sign:
                    sign = 1 if t == w else -1
                if t != sign * w:
                    sign = 0
                    break
        if not sign:
            raise AssertionError(
                "conjugate of X_{P%d,D%d} is not proportional to an X" % (p, d)
            )
        signs.add(sign)
    if len(signs) != 1:
        raise AssertionError("delta depends on the line at P%d" % p)
    return signs.pop()


def _outcome(fn, aug):
    """fn(aug), or the message of the AssertionError it raises."""
    try:
        return fn(aug)
    except AssertionError as exc:
        return str(exc)


def test_delta_hat_matches_the_entry_by_entry_reference():
    # all 168 x 128 signed collineations: the same signs where the reference
    # has them, else the same message.  s and -s give the same s_a s_b, so
    # the automorphisms and their negatives have signs; the rest fail.
    group = set(lifting.enumerate_aug_group())
    accepted = set()
    for g in fano.all_collineations():
        for s in itertools.product((1, -1), repeat=7):
            aug = (g, s)
            expected = _outcome(
                lambda x: radon.from_values(_reference_delta_hat(x, p) < 0 for p in fano.POINTS),
                aug,
            )
            assert _outcome(g2.delta_hat_fn, aug) == expected, aug
            if isinstance(expected, int):
                accepted.add(aug)
    assert len(accepted) == 2688
    assert group <= accepted
    assert {(g, tuple(-v for v in s)) for g, s in group} == accepted - group


def _reference_delta_hat_forms(g):
    """The affine form of each bit of the sign word of (g, s), as a list:
    bits 0..6 of a form are its coefficients of s_1..s_7, bit 7 its
    constant.  Bits 0..6 of the word are the first form of each point, then
    per (P, D) each further form against the first and a constant bit set
    unless every entry lands on +-v, then per P the other two lines' first
    forms against the first line's."""
    point_bit = (0,) + tuple(1 << (q - 1) for q in fano.POINTS)
    img = (0,) + g
    lines = fano.line_perm(g)
    signs, checks = [], []
    for p in fano.POINTS:
        leads = []
        for d in fano.lines_through(p):
            source = g2.x_matrix2(p, d)
            target = g2.x_matrix2(g[p - 1], lines[d - 1])
            forms, lands = [], len(source) == len(target)
            for (a, b), v in source.items():
                t = target.get((img[a], img[b]))
                lands = lands and (t == v or t == -v)
                forms.append((t == -v) << 7 | point_bit[a] ^ point_bit[b])
            leads.append(forms[0])
            checks += [f ^ forms[0] for f in forms[1:]]
            checks.append(0 if lands else 1 << 7)
        signs.append(leads[0])
        checks += [lead ^ leads[0] for lead in leads[1:]]
    return signs + checks


def _reference_delta_hat_word(aug):
    """The sign word of (g, s), each form evaluated at s."""
    g, s = aug
    minus = sum(1 << (q - 1) for q in fano.POINTS if s[q - 1] < 0)
    return sum(
        ((f >> 7) ^ bin(f & minus).count("1")) % 2 << k
        for k, f in enumerate(_reference_delta_hat_forms(g))
    )


def test_delta_hat_words_match_the_forms_reference():
    # the one-pass words of (g, +1) on all 168 collineations, and the words
    # of all 1344 signed automorphisms through the layout, against the
    # words folded from the lists of forms
    flips, errors = g2._delta_hat_layout()
    assert len(flips) == 128
    for g in fano.all_collineations():
        assert g2._delta_hat_word(g) == _reference_delta_hat_word((g, (1,) * 7)), g
    for aug in lifting.enumerate_aug_group():
        word = _reference_delta_hat_word(aug)
        assert g2._delta_hat_word(aug[0]) ^ flips[aug[1]] == word, aug
        assert word < 128
        assert g2.delta_hat_fn(aug) == word
    # one error message per check bit
    assert len(errors) == len(_reference_delta_hat_forms(fano.IDENTITY)) - 7


def test_delta_hat_rejects_a_non_automorphism():
    # flipping the sign of e_1 alone breaks multiplicativity, so the
    # conjugate of a generator off the lines through P1 is no signed X
    with pytest.raises(AssertionError, match=r"conjugate of X_\{P2,D2\} is not proportional"):
        g2.delta_hat_fn((fano.IDENTITY, (-1, 1, 1, 1, 1, 1, 1)))


def test_point_subalgebras():
    for p in fano.POINTS:
        assert g2.point_subalgebra_dimension(p) == 8
        assert g2.point_subalgebra_annihilates(p)
        assert g2.point_subalgebra_closed(p)


def test_chevalley_fields():
    for field in (QI, PrimeField(5), PrimeField(13)):
        rep = g2.chevalley_report(field)
        assert all(v is True for v in rep.values())
    for field in (QQ, PrimeField(3), PrimeField(7)):
        with pytest.raises(ValueError):
            g2.chevalley_report(field)


def test_almost_complex():
    rep = g2.almost_complex_report(3)
    assert rep == {
        "j_squared_minus_id": True,
        "isometry": True,
        "commutes_with_s_p": True,
        "s_p_dimension": 8,
    }


def test_pair_closures():
    # aligned distinct pairs and skew pairs both close at dimension 3
    assert g2.classify_pair((1, 1), (2, 1)) == "O2"
    assert len(g2.lie_closure([g2.X(1, 1), g2.X(2, 1)])) == 3
    assert g2.classify_pair((1, 1), (3, 2)) == "O4"
    assert len(g2.lie_closure([g2.X(1, 1), g2.X(3, 2)])) == 3
    assert g2.pair_closure_dimensions() == ({3}, {3})


def _reference_closure(gens):
    """The Lie closure by fixpoint: bracket every ordered pair of the kept
    elements until a full pass keeps nothing new."""
    echelon = linalg.Echelon(QQ)
    kept = [x for x in gens if echelon.add(g2.to_vector(x))]
    changed = True
    while changed:
        changed = False
        for x in list(kept):
            for y in list(kept):
                z = g2.bracket(x, y)
                if z and echelon.add(g2.to_vector(z)):
                    kept.append(z)
                    changed = True
    return len(echelon), kept


def _same_span(a, b):
    basis = linalg.Echelon(QQ, map(g2.to_vector, a))
    rows = [g2.to_vector(x) for x in b]
    return len(basis) == linalg.rank(rows, QQ) and all(v in basis for v in rows)


def test_closure_matches_the_fixpoint_reference():
    dims = set()
    for pd1 in g2.INCIDENT_PAIRS:
        for pd2 in g2.INCIDENT_PAIRS:
            gens = [g2.X(*pd1), g2.X(*pd2)]
            dim, _ = _reference_closure(gens)
            assert len(g2.lie_closure(gens)) == dim, (pd1, pd2)
            dims.add(dim)
    # a repeated generator (D), two commuting ones (O1), and closures of
    # dimension 3 (O2, O4) and 4 (O3, O3')
    assert dims == {1, 2, 3, 4}
    triangle = [g2.X(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]
    for gens, dim in ((triangle, 14), ([g2.X(1, 1), g2.X(7, 7)], 4)):
        got, want = g2.lie_closure(gens), _reference_closure(gens)
        assert len(got) == want[0] == dim
        assert _same_span(got, want[1])


def test_o3_example():
    rep = g2.o3_example_report()
    assert rep["dimension"] == 4
    assert rep["center_elt_in_algebra"]
    assert rep["center_elt_central"]
    assert rep["derived_ideal_matches"]
    assert rep["derived_dimension"] == 3


def test_triangle_generates_everything():
    gens = [g2.X(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]
    assert len(g2.lie_closure(gens)) == 14
    assert g2.triangle_closure_dimension() == 14


def test_bracket_table_formats():
    import json

    data = json.loads(g2.bracket_table_json())
    text = g2.bracket_table_text()
    assert len(text.splitlines()) == 22
    assert "X(P1,D1)" in text
    assert data  # non-empty structured table
