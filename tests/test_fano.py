import json

import pytest

from fanog2 import cli, fano


def test_masks_and_lines():
    assert sorted(fano.MASK.values()) == list(range(1, 8))
    for d in fano.LINES:
        pts = fano.LINE_POINTS[d]
        assert len(pts) == 3
        acc = 0
        for p in pts:
            acc ^= fano.MASK[p]
        assert acc == 0
        assert fano.is_line(pts)


def test_add_and_wedge():
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p == q:
                continue
            r = fano.add(p, q)
            assert fano.is_line((p, q, r))
            d = fano.wedge(p, q)
            assert {p, q, r} == set(fano.LINE_POINTS[d])


def test_line_add():
    for d1 in fano.LINES:
        for d2 in fano.LINES:
            if d1 == d2:
                continue
            d3 = fano.line_add(d1, d2)
            common = set(fano.LINE_POINTS[d1]) & set(fano.LINE_POINTS[d2])
            assert common <= set(fano.LINE_POINTS[d3])


def test_collineations_are_additive():
    group = fano.all_collineations()
    assert len(group) == 168
    for g in list(group)[:20]:
        assert fano.is_additive(g)


def test_compose_inverse_order():
    a, b = fano.standard_generators()
    assert fano.order(a) == 2
    assert fano.order(b) == 3
    assert fano.compose(a, fano.inverse(a)) == fano.IDENTITY
    assert fano.compose(a, b) == fano.TAU
    assert fano.order(fano.TAU) == 7
    c = fano.compose(a, fano.compose(b, fano.compose(fano.inverse(a), fano.inverse(b))))
    assert fano.order(c) == 4


def test_right_products_are_the_compositions():
    # the codes of the products h g, read off three columns, against
    # compose on all 168^2 = 28 224 pairs; the codes of h 1 = h are 168
    # distinct codes
    group = fano.all_collineations()
    by_code = dict(zip(fano.right_products(fano.IDENTITY), group))
    assert len(by_code) == 168
    pairs = 0
    for g in group:
        products = [by_code[c] for c in fano.right_products(g)]
        assert products == [fano.compose(h, g) for h in group], g
        pairs += len(products)
    assert pairs == 28224


def test_line_perm_moves_each_line_onto_its_image():
    for g in fano.all_collineations():
        for d, e in zip(fano.LINES, fano.line_perm(g)):
            assert {g[p - 1] for p in fano.LINE_POINTS[d]} == fano.LINE_POINTS[e]


def test_orientation_types():
    # type (0,1,3): every oriented line triple {P, gP, g^3 P} is a line;
    # type (0,2,3): every {P, g^2 P, g^3 P} is.  {0,2,3} = 3 - {0,1,3}, so g
    # is of type (0,2,3) iff g^-1 is of type (0,1,3); 24 elements of each
    def on_lines(g):
        return all(fano.is_line(t) for t in fano.oriented_lines(g))

    sevens = [g for g in fano.all_collineations() if fano.order(g) == 7]
    first = {g for g in sevens if on_lines(g)}
    second = {g for g in sevens if on_lines(fano.inverse(g))}
    assert len(first) == len(second) == 24
    assert first | second == set(sevens)
    for g in second:
        g2 = fano.compose(g, g)
        g3 = fano.compose(g, g2)
        assert all(fano.is_line({p, g2[p - 1], g3[p - 1]}) for p in fano.POINTS)
    # for the shift the triples are the seven lines, each from its least point
    assert fano.TAU in first
    assert fano.oriented_lines(fano.TAU) == {
        tuple(sorted(fano.LINE_POINTS[d])) for d in fano.LINES
    }


def test_legendre7():
    assert [fano.legendre7(n) for n in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert fano.legendre7(-3) == fano.legendre7(4)
    with pytest.raises(ValueError):
        fano.legendre7(0)


def test_minimal_polynomial_tags():
    tags = {fano.order7_minimal_polynomial(g)
            for g in fano.all_collineations() if fano.order(g) == 7}
    assert len(tags) == 2
    # tau^3 = tau + 1 on the masks (P4 = P1 + P2 is tau^3 P1), so the two
    # tags cannot be swapped unnoticed
    assert fano.order7_minimal_polynomial(fano.TAU) == "x^3+x+1"
    assert fano.order7_minimal_polynomial(fano.inverse(fano.TAU)) == "x^3+x^2+1"


def test_order7_split_needs_two_tags(monkeypatch):
    # AC2.order7-split claims the classes are split by minimal polynomial:
    # one tag on every element makes it fail
    def ac2():
        (check,) = [c for c in cli.suite_fano() if c["claim"] == "AC2.order7-split"]
        return check["pass"]

    assert ac2()
    monkeypatch.setattr(fano, "order7_minimal_polynomial", lambda g: "x^3+x+1")
    assert not ac2()


def test_triangles():
    tris = fano.all_triangles()
    assert len(tris) == 28
    for t in tris:
        assert not fano.is_line(t)


def test_conjugacy_class_sizes():
    sizes = set()
    seen = set()
    for g in fano.all_collineations():
        if g in seen:
            continue
        c = fano.conjugacy_class(g)
        seen |= c
        sizes.add((fano.order(g), len(c)))
    assert sizes == {(1, 1), (2, 21), (3, 56), (4, 42), (7, 24)}


def _composed_order(g):
    n, h = 1, g
    while h != fano.IDENTITY:
        h, n = fano.compose(g, h), n + 1
    return n


def test_orders_classes_and_closures_match_composition():
    # the orders from cycle lengths, and the classes and the subgroups read
    # off the product table, against tuples composed one at a time, on all
    # 168 elements; anything but a collineation is refused
    group = fano.all_collineations()
    for g in group:
        assert fano.order(g) == _composed_order(g), g
        want = {fano.compose(h, fano.compose(g, fano.inverse(h))) for h in group}
        assert fano.conjugacy_class(g) == want, g
    a, b = fano.standard_generators()
    assert fano.generated_subgroup((a, b)) == set(group)
    powers = [fano.IDENTITY]
    for _ in range(6):
        powers.append(fano.compose(fano.TAU, powers[-1]))
    assert fano.generated_subgroup((fano.TAU,)) == set(powers)
    # a transposition of two points is no collineation, yet has order 2
    swap = (2, 1, 3, 4, 5, 6, 7)
    assert fano.order(swap) == 2
    with pytest.raises(ValueError, match="not a collineation"):
        fano.conjugacy_class(swap)


def test_a_group_missing_an_element_fails_the_fano_claims(monkeypatch, capsys, fresh_memos):
    # some products and conjugates then lie outside the listed elements:
    # the subgroup and the classes leave them out, and the claims fail
    # rather than raise
    group = fano.all_collineations()
    monkeypatch.setattr(fano, "all_collineations", lambda: group[:-1])
    assert cli.main(["verify", "fano", "--json"]) == 1
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    checks = {c["claim"]: c["observed"] for c in suite["checks"]}
    assert checks["AC1.size"] == 167
    assert checks["AC1.generators"] == [True, True, 167]
    assert checks["AC2.order7-split"] is False


def test_pairing_is_the_parity_of_the_masks():
    # every form phi = 0..7 at every point, against the count of common bits
    for phi in range(8):
        for p in fano.POINTS:
            assert fano.pairing(phi, p) == bin(phi & fano.MASK[p]).count("1") % 2


def test_pair_columns_read_the_group_pair_by_pair():
    group = fano.all_collineations()
    columns = fano._pair_columns()
    assert len(columns) == 64
    for (p, q), col in columns.items():
        assert list(col) == [8 * ((0,) + g)[p] + ((0,) + g)[q] for g in group]
