import itertools
import json
from fractions import Fraction

import pytest

from fanog2 import cli, compfactor, fano, lifting, octonion, radon


def _first_pair_delta_star(g, d):
    """The line sign eps_PQ * eps_{gP,gQ} of D, read off the first pair
    P < Q of D alone."""
    eps = compfactor.EPS_TAU
    p, q = sorted(fano.LINE_POINTS[d])[:2]
    return eps[p - 1][q - 1] * eps[g[p - 1] - 1][g[q - 1] - 1]


def test_delta_star_pair_independent():
    a, b = fano.standard_generators()
    for g in (a, b, fano.TAU):
        for d in fano.LINES:
            vals = set()
            pts = sorted(fano.LINE_POINTS[d])
            for i in range(3):
                for j in range(3):
                    if i != j:
                        p, q = pts[i], pts[j]
                        vals.add(
                            compfactor.eps_get(compfactor.EPS_TAU, p, q)
                            * compfactor.eps_get(compfactor.EPS_TAU, g[p - 1], g[q - 1])
                        )
            assert len(vals) == 1
            assert vals.pop() == (-1 if radon.evaluate(lifting.delta_star_fn(g), d) else 1)


# memoized per collineation or for the whole group, and read
# compfactor.EPS_TAU when filled
COLLINEATION_MEMOS = (
    lifting._delta_star_words,
    lifting.lifts,
    lifting.enumerate_aug_group,
)


def _clear_memos():
    for memo in COLLINEATION_MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_memos():
    """Clear the per-collineation memos before and after a test that patches
    compfactor.EPS_TAU, so no value computed under the patch outlives it."""
    _clear_memos()
    yield
    _clear_memos()


def _flipped_pair():
    """EPS_TAU with one antisymmetric pair flipped."""
    table = [list(row) for row in compfactor.EPS_TAU]
    table[0][1], table[1][0] = table[1][0], table[0][1]
    return tuple(map(tuple, table))


def _reference_is_automorphism(aug):
    """Multiplicativity pair by pair: g is additive and eps(P,Q) s(P+Q) =
    s(P) s(Q) eps(gP,gQ) for each of the 42 ordered pairs P != Q."""
    eps = compfactor.EPS_TAU
    g, s = aug
    if not fano.is_additive(g):
        return False
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p == q:
                continue
            r = fano.add(p, q)
            if eps[p - 1][q - 1] * s[r - 1] != s[p - 1] * s[q - 1] * eps[g[p - 1] - 1][g[q - 1] - 1]:
                return False
    return True


def _compare_with_the_pairwise_reference():
    """lifts against the reference on all 168 x 128 signed collineations,
    and membership in the lifts on the 5040 permutations with all signs +1;
    the number of automorphisms found in each sweep."""
    lifted = 0
    for g in fano.all_collineations():
        expected = tuple(
            (g, s) for s in lifting.SIGNS if _reference_is_automorphism((g, s))
        )
        assert lifting.lifts(g) == expected, g
        lifted += len(expected)
    unsigned = 0
    for g in itertools.permutations(fano.POINTS):
        aug = (g, (1,) * 7)
        expected = _reference_is_automorphism(aug)
        assert (aug in lifting.lifts(g)) == expected, g
        unsigned += expected
    return lifted, unsigned


def test_line_words_match_the_pairwise_reference(monkeypatch, fresh_memos):
    # the signs +1 lift exactly the 21 collineations of the isotropy group
    assert _compare_with_the_pairwise_reference() == (1344, 21)
    # one antisymmetric pair flipped: the six ordered pairs of the line
    # through P1 and P2 then disagree for some collineations, which no sign
    # vector lifts
    monkeypatch.setattr(compfactor, "EPS_TAU", _flipped_pair())
    _clear_memos()
    assert any(lifting.delta_star_fn(g) is None for g in fano.all_collineations())
    lifted, _ = _compare_with_the_pairwise_reference()
    assert 0 < lifted < 1344


def test_delta_star_global_identities(monkeypatch, fresh_memos):
    assert lifting.delta_star_properties()
    # one antisymmetric pair flipped: the sign of some line then depends on
    # the pair chosen in it, which the identities report rather than raise
    monkeypatch.setattr(compfactor, "EPS_TAU", _flipped_pair())
    _clear_memos()
    assert lifting.delta_star_properties() is False


def test_line_words_are_the_delta_star_masks(monkeypatch, fresh_memos):
    # on all 168 collineations the line word, read off all six pairs of each
    # line, has bit D - 1 set exactly where the first pair of D gives -1
    for g in fano.all_collineations():
        word = lifting.delta_star_fn(g)
        for d in fano.LINES:
            assert (-1 if radon.evaluate(word, d) else 1) == _first_pair_delta_star(g, d), (g, d)
    # a word with the sign of D1 flipped for the shift breaks det g = +1,
    # which AC5.identities must see
    delta_star_fn = lifting.delta_star_fn

    def flipped(g):
        return delta_star_fn(g) ^ (g == fano.TAU)

    monkeypatch.setattr(lifting, "delta_star_fn", flipped)
    assert lifting.delta_star_properties() is False


def test_delta_star_diagram_draws_every_composition_factor(monkeypatch, fresh_memos, tmp_path):
    # on each of the 16 composition factors every delta* lies in R*, so the
    # ValueError handler of `diagram delta-star`, behind the gate that
    # refuses any other sign table, has nothing left to catch
    image = set(radon.mult_image())
    out = tmp_path / "diagram"
    for eps in compfactor.enumerate_composition_factors():
        monkeypatch.setattr(compfactor, "EPS_TAU", eps)
        _clear_memos()
        assert all(lifting.delta_star_fn(g) in image for g in fano.all_collineations()), eps
        for fmt, section in (("text", "distinguished point:"), ("dot", "graph ")):
            assert cli.main(["diagram", "delta-star", "--format", fmt, "--out", str(out)]) == 0
            assert out.read_text().count(section) == 8, (eps, fmt)


def test_a_corrupted_product_index_fails_the_identities(monkeypatch):
    # the code of TAU^-1 TAU = 1 replaced by that of a collineation whose
    # delta* differs: that product then reads the wrong mask, and
    # AC5.identities fails
    group = fano.all_collineations()
    codes = list(fano.right_products(fano.IDENTITY))
    other = codes[next(i for i, g in enumerate(group) if lifting.delta_star_fn(g) != radon.ZERO)]
    at = group.index(fano.inverse(fano.TAU))
    right_products = fano.right_products

    def corrupted(g):
        out = list(right_products(g))
        if g == fano.TAU:
            assert out[at] == codes[group.index(fano.IDENTITY)]
            out[at] = other
        return out

    # the product table reads right_products: it is built again under the
    # patch, and once more after it
    monkeypatch.setattr(fano, "right_products", corrupted)
    fano._product_table.cache_clear()
    assert lifting.delta_star_properties() is False
    checks = {c["claim"]: c["pass"] for c in cli.suite_lifting()}
    assert checks["AC5.identities"] is False
    monkeypatch.undo()
    fano._product_table.cache_clear()
    assert lifting.delta_star_properties()


# the memos that read the group, besides the collineation memos
GROUP_MEMOS = (
    fano._group_columns,
    fano._product_table,
    compfactor.isotropy,
    lifting.order_profiles,
)


@pytest.fixture
def fresh_group_memos():
    """Clear every memo that reads fano.all_collineations() before and after
    a test that patches it."""
    for memo in GROUP_MEMOS + COLLINEATION_MEMOS:
        memo.cache_clear()
    yield
    for memo in GROUP_MEMOS + COLLINEATION_MEMOS:
        memo.cache_clear()


def test_a_group_missing_an_element_fails_the_identities(monkeypatch, capsys, fresh_group_memos):
    # without its last element the group is no longer closed: some products
    # g2 g1 have no mask, and AC5.identities must fail, not raise
    group = fano.all_collineations()
    monkeypatch.setattr(fano, "all_collineations", lambda: group[:-1])
    assert cli.main(["verify", "lifting", "--json"]) == 1
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    checks = {c["claim"]: c["pass"] for c in suite["checks"]}
    assert checks["AC5.identities"] is False
    assert checks["AC5.classes"] is False


def _reference_delta_star_word(g):
    """The line word of one collineation, one loop over the 42 ordered
    pairs: the sign of each line, or None where two pairs of it disagree."""
    eps = compfactor.EPS_TAU
    signs = [0] * 7
    for p, q in itertools.permutations(fano.POINTS, 2):
        d = fano.wedge(p, q) - 1
        v = eps[p - 1][q - 1] * eps[g[p - 1] - 1][g[q - 1] - 1]
        if signs[d] != v:
            if signs[d]:
                return None
            signs[d] = v
    return sum(1 << d for d, v in enumerate(signs) if v < 0)


def test_line_words_match_the_per_element_loop(monkeypatch, fresh_memos):
    # the words of the whole-group sweep against one loop per collineation,
    # on EPS_TAU and on EPS_TAU with a pair flipped, where some are None
    group = fano.all_collineations()
    for table in (compfactor.EPS_TAU, _flipped_pair()):
        monkeypatch.setattr(compfactor, "EPS_TAU", table)
        _clear_memos()
        words = list(map(lifting.delta_star_fn, group))
        assert words == list(map(_reference_delta_star_word, group)), table
    assert None in words and set(words) != {None}


# `diagram delta` on each composition factor as EPS_TAU, by its index in
# enumerate_composition_factors(): the two whose line cycles the X(P, D)
# follow draw their 64 colourings; the others name the first generator whose
# conjugate is no signed X (ROADMAP item 8)
DELTA_DIAGRAM_ERRORS = {
    i: "error: conjugate of X_{P1,D%d} is not proportional to an X\n"
    % (1 if i in (3, 4, 11, 12) else 5)
    for i in range(1, 15)
}


def test_delta_diagram_on_every_composition_factor(monkeypatch, fresh_memos, capsys):
    for i, eps in enumerate(compfactor.enumerate_composition_factors()):
        monkeypatch.setattr(compfactor, "EPS_TAU", eps)
        _clear_memos()
        rc = cli.main(["diagram", "delta"])
        out, err = capsys.readouterr()
        if i in DELTA_DIAGRAM_ERRORS:
            assert (rc, out, err) == (1, "", DELTA_DIAGRAM_ERRORS[i]), i
        else:
            assert (rc, len(out.splitlines()), err) == (0, 64, ""), i
    assert i == 15


def test_memos_filled_under_a_patch_are_cleared(monkeypatch, fresh_memos):
    clean = {g: lifting.delta_star_fn(g) for g in fano.all_collineations()}
    _clear_memos()
    monkeypatch.setattr(compfactor, "EPS_TAU", _flipped_pair())
    patched = {g: lifting.delta_star_fn(g) for g in fano.all_collineations()}
    short = [g for g in fano.all_collineations() if len(lifting.lifts(g)) != 8]
    # the patch changes what the memos hold, so a stale one would be seen
    assert patched != clean and short
    monkeypatch.undo()
    _clear_memos()
    assert lifting.delta_star_properties()
    assert all(len(lifting.lifts(g)) == 8 for g in fano.all_collineations())


def test_distinguished_points():
    a, b = fano.standard_generators()
    assert lifting.distinguished_point(lifting.delta_star_fn(a)) == 4
    assert lifting.distinguished_point(lifting.delta_star_fn(b)) == 3
    assert lifting.distinguished_point(radon.ZERO) == 0
    # -1 on the pencil through P1 and +1 off it, and -1 on one line alone,
    # are no members of R*
    for fn in (radon.PENCILS[0], 1):
        with pytest.raises(ValueError, match="not a member of R"):
            lifting.distinguished_point(fn)


def test_sign_table_is_the_mask_bijection():
    assert len(set(lifting.SIGNS)) == 128
    for m, s in enumerate(lifting.SIGNS):
        assert lifting.MASK_OF[s] == m == radon.from_values(v == -1 for v in s)


def test_aug_group_axioms():
    a, _ = fano.standard_generators()
    ahat = (a, (1, 1, 1, 1, -1, 1, -1))
    assert ahat == lifting.AHAT
    assert ahat in lifting.lifts(a)
    # the closed-form order: the first power of ahat that is the identity
    n = lifting.aug_order(ahat)
    assert n in (2, 4)
    power = ahat
    for k in range(1, n):
        assert power != lifting.AUG_IDENTITY, k
        power = lifting.aug_compose(ahat, power)
    assert power == lifting.AUG_IDENTITY
    x = tuple(map(Fraction, (1, 2, 0, -1, 3, 0, 1, 2)))
    y = tuple(map(Fraction, (0, 1, 1, 1, 0, -2, 0, 1)))
    lhs = lifting.aug_apply(ahat, octonion.mul(x, y))
    rhs = octonion.mul(lifting.aug_apply(ahat, x), lifting.aug_apply(ahat, y))
    assert lhs == rhs


def test_automorphism_check_requires_a_collineation():
    # this signed permutation satisfies the sign rule on all 42 ordered
    # pairs, but it is not additive: it does not send e_P e_Q to the slot
    # gP + gQ, and octonion.mul shows it is not multiplicative
    g = (1, 2, 3, 6, 7, 5, 4)
    bad = (g, (-1, -1, -1, 1, 1, 1, 1))
    assert not fano.is_additive(g)

    def e(i):
        return tuple(Fraction(int(j == i)) for j in range(8))

    assert lifting.aug_apply(bad, octonion.mul(e(1), e(2))) != octonion.mul(
        lifting.aug_apply(bad, e(1)), lifting.aug_apply(bad, e(2))
    )
    assert lifting.delta_star_fn(g) is None
    assert bad not in lifting.lifts(g)
    group = lifting.enumerate_aug_group()
    assert len(group) == 1344
    assert all(_reference_is_automorphism(aug) for aug in group)


def test_kernel_is_translation_signs():
    ker = lifting.kernel_elements()
    assert len(ker) == 8
    for aug in ker:
        assert aug[0] == fano.IDENTITY
        assert aug in lifting.lifts(fano.IDENTITY)


def test_lifts_count_and_validation():
    for g in [fano.IDENTITY, fano.TAU] + list(fano.all_collineations())[:6]:
        assert len(lifting.lifts(g)) == 8
    # the record format that `fanog2 enumerate aug-aut` emits: the base
    # permutation's digit string and the mask of the points signed -1
    a, _ = fano.standard_generators()
    assert a == (1, 2, 7, 4, 6, 5, 3)
    assert lifting.aug_serialize((a, (1, 1, 1, 1, -1, 1, -1))) == ["1274653", 0b1010000]


# a reference for fano.oriented_lines: the orientation type of an order-7
# element and the cyclic order it induces on each line, compared line by line


def orientation_type(tau):
    """(0,1,3) if {P, tau P, tau^3 P} is a line for every P, else (0,2,3)."""
    if fano.order(tau) != 7:
        raise ValueError("an orientation must have order 7")
    t3 = fano.compose(tau, fano.compose(tau, tau))
    if all(fano.is_line({p, tau[p - 1], t3[p - 1]}) for p in fano.POINTS):
        return (0, 1, 3)
    t2 = fano.compose(tau, tau)
    if all(fano.is_line({p, t2[p - 1], t3[p - 1]}) for p in fano.POINTS):
        return (0, 2, 3)
    raise AssertionError("order-7 element of neither orientation type")


def induced_line_orientation(tau, d):
    """The cyclic order (P, tau P, tau^3 P) induced on line d by a type-(0,1,3) tau."""
    if orientation_type(tau) != (0, 1, 3):
        raise ValueError("induced orientation requires a type (0,1,3) orientation")
    t3 = fano.compose(tau, fano.compose(tau, tau))
    for p in fano.LINE_POINTS[d]:
        cyc = (p, tau[p - 1], t3[p - 1])
        if frozenset(cyc) == fano.LINE_POINTS[d]:
            return cyc
    raise AssertionError("line D%d is not of the form {P, tau P, tau^3 P}" % d)


def cyclic_equal(c1, c2):
    """Whether two 3-cycles describe the same cyclic order."""
    a, b, c = c1
    return c2 in ((a, b, c), (b, c, a), (c, a, b))


def same_orientation(g):
    """Whether an order-7 collineation induces the cyclic order of the shift
    on each line, by the orientation type and the line-by-line orders."""
    if orientation_type(g) != orientation_type(fano.TAU):
        return False
    return all(
        cyclic_equal(induced_line_orientation(fano.TAU, d), induced_line_orientation(g, d))
        for d in fano.LINES
    )


def test_order7_orientation_powers():
    # oriented_lines against the reference on all 168 collineations: the
    # reference is defined on order 7 alone, where the two agree element by
    # element, and no other element has the oriented lines of the shift
    shift = fano.oriented_lines(fano.TAU)
    sevens = [g for g in fano.all_collineations() if fano.order(g) == 7]
    assert len(sevens) == 48
    for g in fano.all_collineations():
        if g not in sevens:
            with pytest.raises(ValueError):
                orientation_type(g)
            assert fano.oriented_lines(g) != shift, g
            continue
        on_lines = all(fano.is_line(t) for t in fano.oriented_lines(g))
        assert on_lines == (orientation_type(g) == (0, 1, 3)), g
        assert (fano.oriented_lines(g) == shift) == same_orientation(g), g
    tau2 = fano.compose(fano.TAU, fano.TAU)
    powers = {fano.TAU, tau2, fano.compose(tau2, tau2)}
    assert {g for g in sevens if fano.oriented_lines(g) == shift} == powers
    assert {g for g in sevens if same_orientation(g)} == powers
    assert lifting.orientation_power_count() == 3


def test_diagram_emitters():
    text = lifting.delta_star_diagram_text()
    assert text.count("distinguished point") == 8
    dot = lifting.delta_star_diagram_dot()
    assert dot.count("graph ") == 8
    assert "doublecircle" in dot


def _iterated_order(aug):
    """The order of aug by composing it with itself until the identity."""
    n, h = 1, aug
    while h != lifting.AUG_IDENTITY:
        h = lifting.aug_compose(aug, h)
        n += 1
    return n


def test_closed_form_order_matches_iteration():
    # the lifts, and their negatives (g, -s), which are no automorphisms
    group = lifting.enumerate_aug_group()
    negatives = [(g, tuple(-v for v in s)) for g, s in group]
    assert len(set(negatives) | set(group)) == 2688
    for aug in list(group) + negatives:
        assert lifting.aug_order(aug) == _iterated_order(aug), aug
