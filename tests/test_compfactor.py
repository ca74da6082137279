from itertools import combinations, product

import pytest

from fanog2 import compfactor, fano


def test_canonical_factor_values():
    eps = compfactor.EPS_TAU
    # eps_{Pi,Pj} is the quadratic-residue symbol of j - i mod 7
    assert compfactor.eps_get(eps, 1, 2) == 1
    assert compfactor.eps_get(eps, 2, 1) == -1
    assert compfactor.eps_get(eps, 5, 2) == 1
    assert compfactor.eps_get(eps, 7, 3) == -1
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p != q:
                assert compfactor.eps_get(eps, p, q) == fano.legendre7(q - p)


def test_antisymmetry():
    for eps in compfactor.enumerate_composition_factors():
        for p in fano.POINTS:
            for q in fano.POINTS:
                if p != q:
                    assert (
                        compfactor.eps_get(eps, p, q)
                        == -compfactor.eps_get(eps, q, p)
                    )


def test_sides_and_negation():
    eps = compfactor.EPS_TAU
    assert compfactor.side(eps) == "O+"
    assert compfactor.side(compfactor.negate(eps)) == "O-"


def test_twist_transitive_on_side():
    eps = compfactor.EPS_TAU
    twists = {compfactor.twist(eps, v) for v in range(8)}
    assert len(twists) == 8
    assert all(compfactor.side(t) == "O+" for t in twists)
    assert twists == {
        f
        for f in compfactor.enumerate_composition_factors()
        if compfactor.side(f) == "O+"
    }


def test_group_action():
    eps = compfactor.EPS_TAU
    factors = set(compfactor.enumerate_composition_factors())
    for g in list(fano.all_collineations())[:25]:
        moved = compfactor.act(g, eps)
        assert moved in factors
    assert compfactor.act(fano.IDENTITY, eps) == eps


def test_isotropy_is_subgroup():
    iso = compfactor.isotropy()
    for g in iso:
        for h in iso:
            assert fano.compose(g, h) in iso
    assert fano.TAU in iso


def test_oriented_maps_and_exponentiation():
    maps = compfactor.enumerate_oriented_maps()
    assert len(maps) == 8
    exps = {compfactor.exponentiate(al) for al in maps}
    assert len(exps) == 8
    assert compfactor.EPS_TAU in exps
    assert {compfactor.side(e) for e in exps} == {"O+"}


def test_oriented_maps_match_brute_force():
    # the pruned search returns what filtering all 4^7 combinations returns,
    # in the same order
    choices = [[phi for phi in range(1, 8) if fano.pairing(phi, p)] for p in fano.POINTS]
    brute = tuple(
        combo
        for combo in product(*choices)
        if all(
            fano.pairing(combo[p - 1], q) + fano.pairing(combo[q - 1], p) == 1
            for p, q in combinations(fano.POINTS, 2)
        )
    )
    assert len(brute) == 8
    assert compfactor.enumerate_oriented_maps() == brute


def test_exponentiate_rejects_bad_input():
    bad = tuple(0 for _ in range(7))
    with pytest.raises((AssertionError, KeyError)):
        compfactor.exponentiate(bad)


def test_serialize_shape():
    s = compfactor.serialize(compfactor.EPS_TAU)
    assert len(s) == 49
    assert set(s) <= set("+-.")
    assert s[0::8] == "......."  # diagonal entries


def test_quadrilateral_rule_filters():
    # exactly 16 of the 128 line-consistent candidates survive
    assert len(compfactor.enumerate_composition_factors()) == 16
