import json
from itertools import combinations, permutations, product

import pytest

from fanog2 import cli, compfactor, fano


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
    assert compfactor.side(tuple(tuple(-v for v in row) for row in eps)) == "O-"


def _twist(eps, v):
    """eps with the pair (P, Q) negated iff v, a label 1..7 or 0, is off the
    line through P and Q; v = 0 leaves eps as it is."""
    if v == 0:
        return eps
    def sign(p, q):
        return 1 if v in fano.LINE_POINTS[fano.wedge(p, q)] else -1

    return tuple(
        tuple(0 if p == q else eps[p - 1][q - 1] * sign(p, q) for q in fano.POINTS)
        for p in fano.POINTS
    )


def test_twist_transitive_on_side():
    eps = compfactor.EPS_TAU
    twists = {_twist(eps, v) for v in range(8)}
    assert len(twists) == 8
    assert all(compfactor.side(t) == "O+" for t in twists)
    assert twists == {
        f
        for f in compfactor.enumerate_composition_factors()
        if compfactor.side(f) == "O+"
    }


def _act(g, eps):
    """The left action one table at a time: (g.eps)_{PQ} = eps_{g^-1 P, g^-1 Q}."""
    inv = fano.inverse(g)
    return tuple(
        tuple(eps[inv[p - 1] - 1][inv[q - 1] - 1] for q in fano.POINTS) for p in fano.POINTS
    )


def test_group_action():
    eps = compfactor.EPS_TAU
    factors = set(compfactor.enumerate_composition_factors())
    for g in list(fano.all_collineations())[:25]:
        moved = _act(g, eps)
        assert moved in factors
    assert _act(fano.IDENTITY, eps) == eps


def _reference_normalizer():
    """The g with g t g^-1 in <tau> for each power t of the shift, each
    conjugate composed as tuples."""
    powers = fano.generated_subgroup((fano.TAU,))
    return {
        g
        for g in fano.all_collineations()
        if all(fano.compose(g, fano.compose(t, fano.inverse(g))) in powers for t in powers)
    }


def test_moved_signs_match_the_action_table_by_table(monkeypatch, fresh_memos):
    # the orbits and the isotropy read off the moved signs of the whole
    # group, against the action on one table at a time: the 168 images of
    # EPS_TAU, each of the 16 composition factors, and EPS_TAU with one pair
    # flipped, whose isotropy is smaller; the normalizer off the product
    # table against conjugates composed as tuples
    group = fano.all_collineations()
    assert compfactor._moved_signs(compfactor.EPS_TAU) == [
        bytes(_act(fano.inverse(g), compfactor.EPS_TAU)[p - 1][q - 1] == -1
              for p, q in compfactor._OFF_DIAGONAL)
        for g in group
    ]
    orbits = compfactor.orbit_decomposition()
    for eps in compfactor.enumerate_composition_factors():
        assert compfactor.orbit(eps) == {_act(g, eps) for g in group}
        assert eps in next(o for o in orbits if eps in o)
    normalizer = _reference_normalizer()
    for eps in compfactor.enumerate_composition_factors() + (_flip(compfactor.EPS_TAU, 1, 2),):
        monkeypatch.setattr(compfactor, "EPS_TAU", eps)
        fresh_memos()
        iso = {g for g in group if _act(g, eps) == eps}
        assert compfactor.isotropy() == iso, eps
        assert compfactor.isotropy_is_shift_normalizer() is (iso == normalizer), eps
    assert len(iso) < 21
    assert compfactor.isotropy_is_shift_normalizer() is False


def _reference_line_orientations():
    """The 128 line orientations, one table at a time."""
    found = []
    for choice in product((0, 1), repeat=7):
        table = [[0] * 7 for _ in range(7)]
        for d, flip in zip(fano.LINES, choice):
            a, b, c = sorted(fano.LINE_POINTS[d])
            for x, y in ((a, c), (c, b), (b, a)) if flip else ((a, b), (b, c), (c, a)):
                table[x - 1][y - 1], table[y - 1][x - 1] = 1, -1
        found.append(tuple(map(tuple, table)))
    return tuple(found)


def _reference_exponentiate(maps):
    return tuple(
        tuple(
            tuple((-1) ** fano.pairing(alpha[p - 1], q) if p != q else 0 for q in fano.POINTS)
            for p in fano.POINTS
        )
        for alpha in maps
    )


def test_tables_match_the_entry_by_entry_references():
    # the orientations built from shared rows, and the exponentials read off
    # the value words of the forms, against one entry at a time
    assert compfactor.line_orientations() == _reference_line_orientations()
    maps = compfactor.enumerate_oriented_maps()
    bad = (0,) * 7
    for family in (maps, (bad,) + maps, maps[:1] + (maps[0][:6] + (maps[1][6],),)):
        assert compfactor.exponentiate(family) == _reference_exponentiate(family)


def test_isotropy_is_subgroup():
    iso = compfactor.isotropy()
    for g in iso:
        for h in iso:
            assert fano.compose(g, h) in iso
    assert fano.TAU in iso


def test_oriented_maps_and_exponentiation():
    maps = compfactor.enumerate_oriented_maps()
    assert len(maps) == 8
    tables = compfactor.exponentiate(maps)
    assert len(tables) == len(set(tables)) == 8
    exps = set(tables)
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


def test_exponentials_of_bad_input_fail_the_rules():
    # the zero map exponentiates to the table of all +1, no composition
    # factor; beside the eight good maps only its own bit is clear
    bad = tuple(0 for _ in range(7))
    assert compfactor.rules_hold(compfactor.exponentiate((bad,))) == 0
    maps = compfactor.enumerate_oriented_maps()
    for at, family in ((3, maps[:3] + (bad,) + maps[3:]), (0, (maps[0][:6] + (maps[1][6],),) + maps)):
        assert compfactor.rules_hold(compfactor.exponentiate(family)) == 0x1FF ^ 1 << at


def _reject_the_first_exponential(monkeypatch):
    """rules_hold with bit 0 cleared for a family of eight tables, the 8
    exponentials."""
    rules_hold = compfactor.rules_hold
    monkeypatch.setattr(
        compfactor,
        "rules_hold",
        lambda family: rules_hold(family) & ~(len(family) == 8),
    )


def test_a_rejected_exponential_fails_the_claim(monkeypatch, capsys, fresh_memos):
    # the first of the 8 candidates, EPS_TAU, rejected by the rules: it is
    # not counted, and AC3.exponentiation comes out as a FAIL record, not a
    # traceback
    _reject_the_first_exponential(monkeypatch)
    assert compfactor.exponentiate(compfactor.enumerate_oriented_maps())[0] == compfactor.EPS_TAU
    assert compfactor.exponentials_summary() == (7, {"O+"}, False)
    assert cli.main(["verify", "compfactor", "--json"]) == 1
    out, err = capsys.readouterr()
    (suite,) = json.loads(out)["suites"]
    failed = [c["claim"] for c in suite["checks"] if not c["pass"]]
    assert (failed, err) == (["AC3.exponentiation"], "")


def test_a_rejected_exponential_stops_the_enumeration(monkeypatch, capsys, fresh_memos):
    _reject_the_first_exponential(monkeypatch)
    assert cli.main(["enumerate", "oriented-maps"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: exponentiation candidate failed the composition rules\n",
    )


def test_serialize_shape():
    s = compfactor.serialize(compfactor.EPS_TAU)
    assert len(s) == 49
    assert set(s) <= set("+-.")
    assert s[0::8] == "......."  # diagonal entries


def test_quadrilateral_rule_filters():
    # exactly 16 of the 128 line-consistent candidates survive
    assert len(compfactor.enumerate_composition_factors()) == 16


def _reference_rules(eps):
    """The line and quadrilateral rules, ordering by ordering."""
    for d in fano.LINES:
        for p, q, r in permutations(sorted(fano.LINE_POINTS[d])):
            if eps[p - 1][q - 1] * eps[q - 1][r - 1] != 1:
                return False
    for d in fano.LINES:
        for p, q, r, s in permutations(sorted(fano.QUADRILATERALS[d])):
            v = eps[p - 1][q - 1] * eps[q - 1][r - 1]
            if v * eps[r - 1][s - 1] * eps[s - 1][p - 1] != -1:
                return False
    return True


def _flip(eps, p, q):
    """eps with the antisymmetric pair (P, Q) flipped."""
    table = [list(row) for row in eps]
    table[p - 1][q - 1], table[q - 1][p - 1] = table[q - 1][p - 1], table[p - 1][q - 1]
    return tuple(map(tuple, table))


# a sign table, not antisymmetric, that obeys every quadrilateral instance
# but not the line rule (a solution of the 168 quadrilateral equations over
# Z_2), so neither rule alone decides a table
QUADRILATERALS_ONLY = (
    (0, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 1, 1, -1, -1),
    (1, -1, 0, 1, -1, 1, 1),
    (1, -1, -1, 0, 1, 1, -1),
    (-1, 1, -1, 1, 0, 1, -1),
    (-1, -1, 1, 1, -1, 0, -1),
    (1, 1, -1, 1, -1, -1, 0),
)


def test_rules_on_a_family_match_the_reference():
    family = compfactor.line_orientations() + (compfactor.EPS_TAU, QUADRILATERALS_ONLY)
    mask = compfactor.rules_hold(family)
    assert [mask >> i & 1 for i in range(len(family))] == [
        _reference_rules(eps) for eps in family
    ]
    assert bin(mask).count("1") == 17
    for eps in family[:3] + (compfactor.EPS_TAU,):
        assert compfactor.is_composition_factor(eps) is _reference_rules(eps)
    # one pair flipped in one member changes that member's bit alone
    for i, eps in enumerate(family):
        if mask >> i & 1:
            moved = family[:i] + (_flip(eps, 1, 2),) + family[i + 1 :]
            assert compfactor.rules_hold(moved) == mask ^ 1 << i, i


def test_rules_reject_an_entry_that_is_no_sign():
    table = [list(row) for row in compfactor.EPS_TAU]
    table[0][1] = 2
    bad = tuple(map(tuple, table))
    assert _reference_rules(bad) is False
    assert compfactor.rules_hold((compfactor.EPS_TAU, bad)) == 1
