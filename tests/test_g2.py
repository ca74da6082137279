import itertools
import random
from fractions import Fraction

import pytest

from fanog2 import cli, compfactor, fano, g2, lifting, linalg, radon
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


def test_law_table_matches_the_so7_bracket():
    # the law table holds [X_a, X_b] = c X_f on all 441 ordered pairs of
    # flags; each flag's coordinates are those of its X over the 14 basis
    # flags, and the tensor holds the brackets of the basis flags
    law = g2.law()
    assert len(law.table) == 441 and len(law.basis) == 14
    for a in g2.INCIDENT_PAIRS:
        for b in g2.INCIDENT_PAIRS:
            c, f = law.table[a, b]
            _same_element(g2.bracket(g2.X(*a), g2.X(*b)), g2.scale_elt(c, g2.X(*f)) if c else {})
    for pd in g2.INCIDENT_PAIRS:
        assert g2.x_vector(*pd) == tuple(g2.to_vector(g2.X(*pd)))
        x = g2.combine(
            (k, c * v) for n, c in law.coords[pd].items() for k, v in g2.X(*law.basis[n]).items()
        )
        assert x == g2.X(*pd)
        assert law.vectors[pd] == tuple(law.coords[pd].get(n, 0) for n in range(14))
    for i, a in enumerate(law.basis):
        for j, b in enumerate(law.basis):
            assert law.tensor[i][j] == g2.law_element([law.table[a, b]])
            assert len(law.tensor[i][j]) <= 2


_BRACKET_CASE = g2._bracket_case


def _negated_law(tags):
    """_bracket_case with the coefficient of the given orbit tags negated."""

    def negated(a, b):
        tag, c, f = _BRACKET_CASE(a, b)
        return tag, -c if tag in tags else c, f

    return negated


# the three coefficients of the law: O2, O3 (with O3'), and O4
LAW_COEFFICIENTS = (("O2",), ("O3", "O3'"), ("O4",))


def test_jacobi_check_catches_a_broken_bracket(monkeypatch, fresh_g2_memos):
    # the law negated on one ordered pair of basis flags, at P1 and P2,
    # breaks antisymmetry; with any one of its coefficients negated, it
    # stays antisymmetric and the Jacobi sums fail; the so(7) reference,
    # which never reads the law, passes throughout
    assert g2.jacobi_check() and _so7_jacobi_check()
    basis = g2.law().basis
    a, b = basis[0], basis[2]
    assert g2.law().table[a, b][0]
    case = g2._bracket_case

    def one_sided(x, y):
        tag, c, f = case(x, y)
        return (tag, -c, f) if (x, y) == (a, b) else (tag, c, f)

    for bad in (one_sided, *map(_negated_law, LAW_COEFFICIENTS)):
        monkeypatch.setattr(g2, "_bracket_case", bad)
        _clear_g2_memos()
        law = g2.law()
        t, n = law.tensor, range(14)
        antisymmetric = all(t[i][j] == g2.scale_elt(-1, t[j][i]) for i in n for j in n)
        assert antisymmetric is (bad is not one_sided)
        assert not g2.jacobi_check()
        assert not g2.check_bracket_law()
        assert _so7_jacobi_check()


def test_a_bracket_wrong_on_one_generator_pair_fails_its_readers(monkeypatch, fresh_g2_memos):
    # [X(1, 1), X(1, 7)], two basis flags that commute in h_P1, read as
    # X(2, 1) by the law: the law no longer matches so(7), h_P1 is no longer
    # abelian, and the two basis flags no longer bracket antisymmetrically
    case = g2._bracket_case
    assert case((1, 1), (1, 7))[1] == 0

    def bad(x, y):
        return ("O1", 1, (2, 1)) if (x, y) == ((1, 1), (1, 7)) else case(x, y)

    monkeypatch.setattr(g2, "_bracket_case", bad)
    assert g2.law().table[(1, 1), (1, 7)] == (1, (2, 1))
    assert not g2.check_bracket_law()
    assert not g2.cartan_is_abelian(1)
    assert not g2.cartans_hold()
    assert not g2.jacobi_check()
    assert all(g2.cartan_is_abelian(p) for p in fano.POINTS if p != 1)


def test_a_wrong_so7_bracket_fails_only_the_bridge(monkeypatch, fresh_g2_memos):
    # the so(7) bracket of X(1, 1) and X(1, 5) gains a term: the claims that
    # read the law pass, and AC8.bracket-law, the bridge, fails
    bracket = g2.bracket
    a, b, c = g2.X(1, 1), g2.X(1, 5), g2.X(2, 1)

    def bad(x, y):
        return g2.add_elt(bracket(x, y), c) if (x, y) == (a, b) else bracket(x, y)

    monkeypatch.setattr(g2, "bracket", bad)
    assert not g2.check_bracket_law()
    assert g2.jacobi_check() and g2.cartans_hold() and g2.decomposition_check()


def test_spinor_representation_faithful_bracket():
    # matrix commutators realize the so(7) bracket at twice the scale
    for pair1 in g2.PAIRS[:6]:
        for pair2 in g2.PAIRS[:6]:
            x = g2.elt((1, *pair1))
            y = g2.elt((1, *pair2))
            mx, my = g2.matrix2(x), g2.matrix2(y)
            lhs = g2._commutator(mx, g2._by_row(mx), my, g2._by_row(my))
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
            anti = g2.add_elt(
                g2._product(rho[p], g2._by_row(rho[q])), g2._product(rho[q], g2._by_row(rho[p]))
            )
            assert anti == (minus_two if p == q else {}), (p, q)
            s = g2.add_elt(rho[p], rho[q])
            assert g2._product(s, g2._by_row(s)) == {(i, i): -2 - 2 * (p == q) for i in range(8)}


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


@pytest.fixture
def fresh_g2_memos():
    """Clear every memo of g2 before and after a test that patches what the
    memos read."""
    _clear_g2_memos()
    yield
    _clear_g2_memos()


def _clear_g2_memos():
    for memo in vars(g2).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()


def _reference_delta_hat_loop(g):
    """The sign word of (g, +1) by one loop per collineation over the
    entries of _delta_hat_plan, entry by entry, in the layout of
    _delta_hat_words."""
    matrices, plan = g2._delta_hat_plan()
    img = (0,) + g
    lines = fano.line_perm(g)
    word, k = 0, 7
    for p, flags in plan:
        leads = []
        for d, source in flags:
            target = matrices[g[p - 1], lines[d - 1]]
            first, lands = None, len(source) == len(target)
            for (a, b), v in source:
                t = target.get((img[a], img[b]))
                flip = t == -v
                lands = lands and (flip or t == v)
                if first is None:
                    first = flip
                else:
                    word |= (flip ^ first) << k
                    k += 1
            word |= (not lands) << k
            k += 1
            leads.append(first)
        word |= leads[0] << (p - 1)
        for lead in leads[1:]:
            word |= (lead ^ leads[0]) << k
            k += 1
    return word


def test_sign_words_match_the_per_element_loop(monkeypatch, fresh_g2_memos):
    # the words of the whole-group sweep, which reads only the entries
    # a < b of antisymmetric matrices, against the loop over all 84 entries
    # of each collineation, on EPS_TAU and on EPS_TAU with the pair P1-P2
    # flipped
    group = fano.all_collineations()
    flipped = [list(row) for row in compfactor.EPS_TAU]
    flipped[0][1], flipped[1][0] = flipped[1][0], flipped[0][1]
    for table in (compfactor.EPS_TAU, tuple(map(tuple, flipped))):
        monkeypatch.setattr(compfactor, "EPS_TAU", table)
        _clear_g2_memos()
        words = list(map(g2._delta_hat_word, group))
        assert words == list(map(_reference_delta_hat_loop, group)), table
    assert any(w >> 7 for w in words)


def test_a_negated_matrix_entry_fails_welldefined(monkeypatch, capsys, fresh_g2_memos):
    # one entry of 2 rho_hat(X_{P3,D7}) negated: the matrix is no longer
    # antisymmetric, so every entry is read; the words still match the
    # loop, AC10.welldefined fails, and `diagram delta` names the first
    # failed check of the loop over the 1344 elements
    x_matrix2 = g2.x_matrix2

    def negated(p, d):
        m = x_matrix2(p, d)
        if (p, d) == (3, 7):
            k = next(iter(m))
            m = {**m, k: -m[k]}
        return m

    monkeypatch.setattr(g2, "x_matrix2", negated)
    group = fano.all_collineations()
    assert list(map(g2._delta_hat_word, group)) == list(map(_reference_delta_hat_loop, group))
    assert g2.delta_hat_claims()["welldefined"] is False
    flips, errors = g2._delta_hat_layout()
    failed = next(
        w >> 7
        for w in (_reference_delta_hat_loop(g) ^ flips[s] for g, s in lifting.enumerate_aug_group())
        if w >> 7
    )
    message = errors[(failed & -failed).bit_length() - 1]
    assert cli.main(["diagram", "delta"]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert message == "conjugate of X_{P3,D7} is not proportional to an X"


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


def _sqrt_minus_one(field):
    """i in Q(i); in F_p the smaller root of -1, as c^((p-1)/4) for the
    least non-residue c."""
    if field is QI:
        return GaussianRational(0, 1)
    p, c = field.p, 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r = pow(c, (p - 1) // 4, p)
    return field.of(min(r, p - r))


def _chevalley_elements(i, F):
    """h1, h2 and e+-_{D1,D7,D5} of s_P1, with the coefficients of the X's
    sent through F and i a square root of -1."""

    def x(p, d):
        return {k: F(v) for k, v in g2.X(p, d).items()}

    def e(a, b, s):
        return g2.add_elt(x(*a), g2.scale_elt(s * i, x(*b)))

    return {
        "h1": g2.scale_elt(-i, x(1, 1)),
        "h2": g2.scale_elt(-i, x(1, 7)),
        "ep1": e((2, 1), (4, 1), -1),
        "em1": e((2, 1), (4, 1), 1),
        "ep7": e((3, 7), (7, 7), -1),
        "em7": e((3, 7), (7, 7), 1),
        "ep5": e((5, 5), (6, 5), 1),
        "em5": e((5, 5), (6, 5), -1),
    }


# name: (a, b, c, terms), for the relation [a, b] = c * (sum of terms)
CHEVALLEY_RELATIONS = {
    "h1_ep1": ("h1", "ep1", 2, ("ep1",)),
    "h1_em1": ("h1", "em1", -2, ("em1",)),
    "h1_ep7": ("h1", "ep7", -1, ("ep7",)),
    "h1_em7": ("h1", "em7", 1, ("em7",)),
    "h2_ep1": ("h2", "ep1", -1, ("ep1",)),
    "h2_em1": ("h2", "em1", 1, ("em1",)),
    "h2_ep7": ("h2", "ep7", 2, ("ep7",)),
    "h2_em7": ("h2", "em7", -2, ("em7",)),
    "ep1_em1": ("ep1", "em1", -4, ("h1",)),
    "ep7_em7": ("ep7", "em7", -4, ("h2",)),
    "ep1_em7": ("ep1", "em7", 0, ()),
    "ep7_em1": ("ep7", "em1", 0, ()),
    "ep1_ep7": ("ep1", "ep7", -2, ("ep5",)),
    "em1_em7": ("em1", "em7", -2, ("em5",)),
    "h1_ep5": ("h1", "ep5", 1, ("ep5",)),
    "h2_ep5": ("h2", "ep5", 1, ("ep5",)),
    "h1_em5": ("h1", "em5", -1, ("em5",)),
    "h2_em5": ("h2", "em5", -1, ("em5",)),
    "ep5_em5": ("ep5", "em5", -4, ("h1", "h2")),
}


def _chevalley_brackets(elts):
    return {
        n: g2.bracket(elts[a], elts[b]) for n, (a, b, _, _) in CHEVALLEY_RELATIONS.items()
    }


def _reference_report(field):
    """The presentation evaluated over field itself, relation by relation."""
    elts = _chevalley_elements(_sqrt_minus_one(field), field.of)
    brackets = _chevalley_brackets(elts)
    return {
        name: brackets[name]
        == g2.scale_elt(c, g2.combine(t for n in terms for t in elts[n].items()))
        for name, (_, _, c, terms) in CHEVALLEY_RELATIONS.items()
    }


def test_chevalley_fields():
    # a reference for the one computation over Z[i]
    for field in (QI, PrimeField(5), PrimeField(13), PrimeField(1000000009)):
        rep = _reference_report(field)
        assert list(rep) == list(g2.chevalley_report())
        assert all(v is True for v in rep.values()), field
    assert all(v is True for v in g2.chevalley_report().values())
    # over Z[i], every coefficient of the eight elements and of the 19
    # brackets is integral, so the ring map i -> sqrt(-1) reaches any field
    # that contains a square root of -1
    elts = _chevalley_elements(GaussianRational(0, 1), lambda v: v)
    values = [
        v if type(v) is GaussianRational else GaussianRational(v)
        for z in [*elts.values(), *_chevalley_brackets(elts).values()]
        for v in z.values()
    ]
    assert values and all(z.re.denominator == z.im.denominator == 1 for z in values)


def _gaussian(parts):
    """The element re + i im over Q(i) of a pair (re, im) of integer ones."""
    re, im = parts
    return g2.combine(
        [*re.items(), *((k, GaussianRational(0, v)) for k, v in im.items())]
    )


def test_integer_parts_match_the_gaussian_reference():
    # the package keeps each element as two integer elements and brackets
    # them with four integer brackets; over Q(i) itself, with the relation
    # table of this module, the same elements and brackets come out
    elts = g2._chevalley_elements()
    ref = _chevalley_elements(GaussianRational(0, 1), lambda v: v)
    assert {n: _gaussian(elts[n]) for n in ref} == ref
    assert _gaussian(elts["h"]) == g2.add_elt(ref["h1"], ref["h2"])
    brackets = _chevalley_brackets(ref)
    relations = {name: (c, z) for name, c, z in g2.CHEVALLEY_RELATIONS}
    assert list(relations) == list(CHEVALLEY_RELATIONS)
    for name, (a, b, c, terms) in CHEVALLEY_RELATIONS.items():
        got = g2._gaussian_bracket(elts[a], elts[b])
        assert all(type(v) is int for part in got for v in part.values())
        assert _gaussian(got) == brackets[name], name
        # the package's right side is the reference's: c times the terms
        want = g2.scale_elt(c, g2.combine(t for n in terms for t in ref[n].items()))
        pc, z = relations[name]
        assert g2.scale_elt(pc, _gaussian(elts[z])) == want, name
    assert g2.chevalley_report() == _reference_report(QI)


def test_a_changed_relation_coefficient_fails_the_chevalley_claim(monkeypatch):
    # [h1, e+_{D1}] = 2 e+_{D1} read as 3 e+_{D1}: that relation fails, and
    # with it AC11.chevalley over Q(i) and F_5 (Q and F_3 pass vacuously)
    relations = [(n, 3 if n == "h1_ep1" else c, z) for n, c, z in g2.CHEVALLEY_RELATIONS]
    monkeypatch.setattr(g2, "CHEVALLEY_RELATIONS", tuple(relations))
    g2.chevalley_report.cache_clear()
    try:
        rep = g2.chevalley_report()
        assert [n for n, v in rep.items() if not v] == ["h1_ep1"]
        assert g2.chevalley_gates() == (False, False, True)
        record = next(c for c in cli.suite_g2(QQ) if c["claim"] == "AC11.chevalley")
        assert record["pass"] is False
    finally:
        g2.chevalley_report.cache_clear()


def test_chevalley_gate_sees_a_negated_generator(monkeypatch):
    # e+-_{D5} swap when X_{P6,D5} changes sign, and the D5 ladder breaks
    x = g2.X
    monkeypatch.setattr(
        g2, "X", lambda p, d: g2.scale_elt(-1, x(p, d)) if (p, d) == (6, 5) else x(p, d)
    )
    g2.chevalley_report.cache_clear()
    try:
        rep = g2.chevalley_report()
        assert not all(rep.values())
        assert rep == _reference_report(QI) == _reference_report(PrimeField(13))
        assert g2.chevalley_gate(QI) is False
        assert g2.chevalley_gate(PrimeField(13)) is False
        assert g2.chevalley_gate(QQ) is True
    finally:
        g2.chevalley_report.cache_clear()


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
    assert len(g2.lie_closure([(1, 1), (2, 1)])) == 3
    assert g2.classify_pair((1, 1), (3, 2)) == "O4"
    assert len(g2.lie_closure([(1, 1), (3, 2)])) == 3
    assert g2.pair_closure_dimensions() == ({3}, {3})


# The so(7) versions of the claims that now read the law, as they were
# before: each brackets the X's with g2.bracket and spans their 21 pair
# coordinates.  The tests below compare them with the law versions on
# every input the claims give them.


def _so7_brackets():
    flags = g2.INCIDENT_PAIRS
    return {(a, b): g2.bracket(g2.X(*a), g2.X(*b)) for a in flags for b in flags}


def _so7_jacobi_check():
    """Antisymmetry on the 196 pairs and Jacobi on the 364 triples of the
    so(7) basis g2_basis(), through g2.bracket."""
    basis = g2.g2_basis()
    table = _so7_brackets()
    inner = {}
    for i, a in enumerate(basis):
        if table[a, a] != {}:
            return False
        for j in range(i + 1, len(basis)):
            inner[i, j] = table[a, basis[j]]
            if g2.add_elt(inner[i, j], table[basis[j], a]) != {}:
                return False
    ad = [{l: g2.bracket(g2.X(*a), {l: 1}).items() for l in g2.PAIRS} for a in basis]
    return len(basis) == 14 and not any(
        g2.combine(
            (m, s * v * w)
            for n, s, y in ((i, 1, inner[j, k]), (j, -1, inner[i, k]), (k, 1, inner[i, j]))
            for l, v in y.items()
            for m, w in ad[n][l]
        )
        for i, j, k in itertools.combinations(range(len(basis)), 3)
    )


def _so7_lie_closure(gens):
    """A basis of the Lie algebra the so(7) elements gens generate."""
    echelon = linalg.Echelon(QQ)
    basis_elts = [x for x in gens if echelon.add(g2.to_vector(x))]
    for i, x in enumerate(basis_elts):
        for y in basis_elts[:i]:
            z = g2.bracket(y, x)
            if z and len(basis_elts) <= len(g2.PAIRS) and echelon.add(g2.to_vector(z)):
                basis_elts.append(z)
    return basis_elts


def _so7_centralizer_dimension(pds):
    basis = g2.g2_basis()
    table = _so7_brackets()
    rows = {r for h in pds for r in zip(*(g2.to_vector(table[h, b]) for b in basis)) if any(r)}
    return len(basis) - linalg.rank(rows, QQ)


def _so7_point_subalgebra_closed(p):
    gens = g2.point_subalgebra_generators(p)
    span = linalg.Echelon(QQ, [g2.x_vector(*pd) for pd in gens])
    return all(
        g2.to_vector(g2.bracket(g2.X(*a), g2.X(*b))) in span for a in gens for b in gens
    )


def _same_span(a, b):
    """Whether two lists of so(7) elements span the same space."""
    basis = linalg.Echelon(QQ, map(g2.to_vector, a))
    rows = [g2.to_vector(x) for x in b]
    return len(basis) == linalg.rank(rows, QQ) and all(v in basis for v in rows)


def _closure_inputs():
    """The flag lists the claims close: the 105 O2 and O4 pairs of
    AC11.pair-closures, the triangle, and the O3 pair of AC11.o3-example;
    then every other pair of flags, both orders."""
    pairs = [
        p
        for p in itertools.combinations(g2.INCIDENT_PAIRS, 2)
        if g2.classify_pair(*p) in ("O2", "O4")
    ]
    assert len(pairs) == 105
    triangle = [(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]
    rest = [
        (a, b) for a in g2.INCIDENT_PAIRS for b in g2.INCIDENT_PAIRS if (a, b) not in pairs
    ]
    return pairs + [triangle, [(1, 1), (7, 7)]] + rest


def test_law_claims_match_their_so7_references():
    # Jacobi, the closures (as spans of X's), the centralizers of the seven
    # h_P and of the three X's on each line, and the closure of each s_P
    assert g2.jacobi_check() is _so7_jacobi_check() is True
    dims = set()
    for flags in _closure_inputs():
        got = g2.lie_closure(flags)
        want = _so7_lie_closure([g2.X(*pd) for pd in flags])
        assert len(got) == len(want), flags
        assert _same_span([g2.X(*pd) for pd in got], want), flags
        dims.add(len(got))
    # a repeated generator (D), two commuting ones (O1), closures of
    # dimension 3 (O2, O4) and 4 (O3, O3'), and the triangle
    assert dims == {1, 2, 3, 4, 14}
    lines = [[(q, d) for q in sorted(fano.LINE_POINTS[d])] for d in fano.LINES]
    points = [[(p, d) for d in fano.lines_through(p)] for p in fano.POINTS]
    centralizers = [g2.centralizer_dimension(pds) for pds in points + lines]
    assert centralizers == [_so7_centralizer_dimension(pds) for pds in points + lines]
    assert centralizers[:7] == [2] * 7
    closed = [g2.point_subalgebra_closed(p) for p in fano.POINTS]
    assert closed == [_so7_point_subalgebra_closed(p) for p in fano.POINTS] == [True] * 7


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


def test_closure_matches_the_fixpoint_reference():
    dims = set()
    for pd1 in g2.INCIDENT_PAIRS:
        for pd2 in g2.INCIDENT_PAIRS:
            dim, _ = _reference_closure([g2.X(*pd1), g2.X(*pd2)])
            assert len(g2.lie_closure([pd1, pd2])) == dim, (pd1, pd2)
            dims.add(dim)
    # a repeated generator (D), two commuting ones (O1), and closures of
    # dimension 3 (O2, O4) and 4 (O3, O3')
    assert dims == {1, 2, 3, 4}
    triangle = [(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]
    for flags, dim in ((triangle, 14), ([(1, 1), (7, 7)], 4)):
        got, want = g2.lie_closure(flags), _reference_closure([g2.X(*pd) for pd in flags])
        assert len(got) == want[0] == dim
        assert _same_span([g2.X(*pd) for pd in got], want[1])


def test_o3_example():
    rep = g2.o3_example_report()
    assert rep["dimension"] == 4
    assert rep["center_elt_in_algebra"]
    assert rep["center_elt_central"]
    assert rep["derived_ideal_matches"]
    assert rep["derived_dimension"] == 3


def test_triangle_generates_everything():
    flags = [(p, d) for p in (1, 2, 3) for d in fano.lines_through(p)]
    assert len(g2.lie_closure(flags)) == 14
    assert g2.triangle_closure_dimension() == 14


def test_bracket_table_formats():
    import json

    data = json.loads(g2.bracket_table_json())
    text = g2.bracket_table_text()
    assert len(text.splitlines()) == 22
    assert "X(P1,D1)" in text
    assert data  # non-empty structured table
