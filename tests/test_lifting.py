import itertools

import pytest

from fanog2 import compfactor, fano, lifting, octonion, radon


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
                            * compfactor.eps_get(
                                compfactor.EPS_TAU,
                                fano.apply(g, p),
                                fano.apply(g, q),
                            )
                        )
            assert len(vals) == 1
            assert vals.pop() == lifting.delta_star(g, d)


# memoized per collineation, and read compfactor.EPS_TAU when filled
COLLINEATION_MEMOS = (
    lifting._line_word,
    lifting.delta_star_fn,
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
    """is_algebra_automorphism and lifts against the reference on all
    168 x 128 signed collineations, and on the 5040 permutations with all
    signs +1; the number of automorphisms found in each sweep."""
    lifted = 0
    for g in fano.all_collineations():
        expected = tuple(
            (g, s) for s in radon.all_sign_functions() if _reference_is_automorphism((g, s))
        )
        for s in radon.all_sign_functions():
            assert lifting.is_algebra_automorphism((g, s)) == ((g, s) in expected), (g, s)
        assert lifting.lifts(g) == expected, g
        lifted += len(expected)
    unsigned = 0
    for g in itertools.permutations(fano.POINTS):
        aug = (g, (1,) * 7)
        expected = _reference_is_automorphism(aug)
        assert lifting.is_algebra_automorphism(aug) == expected, g
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
    assert any(lifting._line_word(g) is None for g in fano.all_collineations())
    lifted, _ = _compare_with_the_pairwise_reference()
    assert 0 < lifted < 1344


def test_delta_star_global_identities(monkeypatch, fresh_memos):
    assert lifting.delta_star_properties()
    # one antisymmetric pair flipped: the sign of some line then depends on
    # the pair chosen in it, which the identities report rather than raise
    monkeypatch.setattr(compfactor, "EPS_TAU", _flipped_pair())
    _clear_memos()
    assert lifting.delta_star_properties() is False


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
    assert lifting.distinguished_point((1,) * 7) == 0


def test_aug_group_axioms():
    a, _ = fano.standard_generators()
    ahat = (a, (1, 1, 1, 1, -1, 1, -1))
    assert ahat == lifting.AHAT
    assert lifting.is_algebra_automorphism(ahat)
    # the closed-form order: the first power of ahat that is the identity
    n = lifting.aug_order(ahat)
    assert n in (2, 4)
    power = ahat
    for k in range(1, n):
        assert power != lifting.AUG_IDENTITY, k
        power = lifting.aug_compose(ahat, power)
    assert power == lifting.AUG_IDENTITY
    x = octonion.from_ints((1, 2, 0, -1, 3, 0, 1, 2))
    y = octonion.from_ints((0, 1, 1, 1, 0, -2, 0, 1))
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
    e = octonion.basis
    assert lifting.aug_apply(bad, octonion.mul(e(1), e(2))) != octonion.mul(
        lifting.aug_apply(bad, e(1)), lifting.aug_apply(bad, e(2))
    )
    assert not lifting.is_algebra_automorphism(bad)
    group = lifting.enumerate_aug_group()
    assert len(group) == 1344
    assert all(lifting.is_algebra_automorphism(aug) for aug in group)


def test_kernel_is_translation_signs():
    ker = lifting.kernel_elements()
    assert len(ker) == 8
    for aug in ker:
        assert aug[0] == fano.IDENTITY
        assert lifting.is_algebra_automorphism(aug)


def test_lifts_count_and_validation():
    for g in [fano.IDENTITY, fano.TAU] + list(fano.all_collineations())[:6]:
        assert len(lifting.lifts(g)) == 8
    # the record format that `fanog2 enumerate aug-aut` emits: the base
    # permutation's digit string and the mask of the points signed -1
    a, _ = fano.standard_generators()
    assert a == (1, 2, 7, 4, 6, 5, 3)
    assert lifting.aug_serialize((a, (1, 1, 1, 1, -1, 1, -1))) == ["1274653", 0b1010000]


def test_order7_orientation_powers():
    sevens = [
        g
        for g in fano.all_collineations()
        if fano.order(g) == 7 and lifting.order7_same_orientation(g)
    ]
    assert len(sevens) == 3
    assert fano.TAU in sevens
    tau2 = fano.compose(fano.TAU, fano.TAU)
    tau4 = fano.compose(tau2, tau2)
    assert set(sevens) == {fano.TAU, tau2, tau4}


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
