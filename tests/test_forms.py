from itertools import combinations, permutations
from math import prod

from fanog2 import compfactor, fano, forms, g2, linalg
from fanog2.scalars import QQ


def test_sort_with_sign():
    assert forms._sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert forms._sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert forms._sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert forms._sort_with_sign((1, 1, 2)) == (None, 0)


def test_wedge_graded_commutativity():
    a = {(1, 2): 1}
    b = {(3, 4, 5): 1}
    assert forms.wedge(a, b) == forms.wedge(b, a)  # (-1)^{2*3} = +1
    c = {(6,): 1}
    d = {(7,): 1}
    assert forms.wedge(c, d) == g2.scale_elt(-1, forms.wedge(d, c))
    assert forms.wedge(c, c) == {}


def test_contraction_antiderivation():
    om = forms.omega()
    v = {1: 1}
    iv = forms.contract(v, om)
    assert all(len(k) == 2 for k in iv)
    assert forms.contract(v, iv) == {}


def test_omega_terms_match_lines():
    om = forms.omega()
    assert len(om) == 7
    for key, c in om.items():
        assert fano.is_line(key)
        assert c in (1, -1)


def test_big_omega_terms_match_quadrilaterals():
    Om = forms.big_omega()
    quads = {tuple(sorted(q)) for q in fano.QUADRILATERALS.values()}
    assert set(Om) == quads
    assert all(c in (1, -1) for c in Om.values())


def test_forms_are_invariant():
    assert forms.derivation_kills_forms()


def _so7_derivation(x, a):
    """The derivation action of x on a form of any degree, slot by slot: the
    loop that the table of forms._derivation_table replaces.  x e_i = v e_j
    + ... and x e_j = -v e_i + ..., so the slot e^p becomes -w e^q for each
    q whose image x e_q has e_p-coefficient w: image[p] holds those (q, -w).
    """
    image = {}
    for (i, j), v in x.items():
        image.setdefault(j, []).append((i, -v))
        image.setdefault(i, []).append((j, v))
    return g2.combine(
        (skey, s * w * c)
        for key, c in a.items()
        for pos, p in enumerate(key)
        for q, w in image.get(p, ())
        for skey, s in (forms._sort_with_sign(key[:pos] + (q,) + key[pos + 1 :]),)
        if s
    )


def test_derivation_leibniz():
    x = g2.X(1, 1)
    a = {(2, 3): 1}
    b = {(5, 6): 1}
    lhs = _so7_derivation(x, forms.wedge(a, b))
    rhs = g2.add_elt(
        forms.wedge(_so7_derivation(x, a), b),
        forms.wedge(a, _so7_derivation(x, b)),
    )
    assert lhs == rhs
    c = forms.wedge(a, {(7,): 1})
    assert forms.derive(x, c) == _so7_derivation(x, c)


def _reference_derivation(x, a):
    """The derivation action of x as the sum over its terms v e_ij of
    v (e^j ^ i_{e_i}(a) - e^i ^ i_{e_j}(a))."""
    out = {}
    for (i, j), v in x.items():
        out = g2.add_elt(out, g2.scale_elt(v, forms.wedge({(j,): 1}, forms.contract({i: 1}, a))))
        out = g2.add_elt(out, g2.scale_elt(-v, forms.wedge({(i,): 1}, forms.contract({j: 1}, a))))
    return out


def test_derivation_matches_the_wedge_contract_reference():
    # every X(P, D) on every basis k-form, k = 1..4, and on omega and Omega:
    # the slot-by-slot loop, and on 3- and 4-forms the table, against the
    # wedge and contraction
    forms_ = [{key: 1} for k in range(1, 5) for key in combinations(fano.POINTS, k)]
    forms_ += [forms.omega(), forms.big_omega()]
    for p, d in g2.INCIDENT_PAIRS:
        x = g2.X(p, d)
        for a in forms_:
            want = _reference_derivation(x, a)
            assert _so7_derivation(x, a) == want, (p, d, a)
            if len(next(iter(a))) in (3, 4):
                assert forms.derive(x, a) == want, (p, d, a)


def test_derivation_table_matches_the_loop():
    # all 21 pairs on all 35 basis 3-forms and 35 basis 4-forms: one term
    # where the form holds exactly one label of the pair, and none otherwise
    table = forms._derivation_table()
    assert set(table) == set(g2.PAIRS)
    keys = [key for k in (3, 4) for key in combinations(fano.POINTS, k)]
    for pair in g2.PAIRS:
        assert set(table[pair]) <= set(keys)
        for key in keys:
            want = _so7_derivation({pair: 1}, {key: 1})
            got = dict([table[pair][key]]) if key in table[pair] else {}
            assert got == want, (pair, key)
            assert len(want) == ((pair[0] in key) != (pair[1] in key))


def test_a_negated_table_entry_fails_the_invariant_claims(monkeypatch):
    # a pair of the first basis X moves a term of omega with the wrong sign:
    # omega is no longer killed, and no other 3-form is, so AC13.uniqueness
    # sees 0
    table = forms._derivation_table()
    pair = next(iter(g2.X(*g2.g2_basis()[0])))
    key = next(k for k in forms.omega() if k in table[pair])
    bad = {p: dict(row) for p, row in table.items()}
    out, sign = bad[pair][key]
    bad[pair][key] = (out, -sign)
    monkeypatch.setattr(forms, "_derivation_table", lambda: bad)
    assert forms.invariant_three_form_dimension() == 0
    assert not forms.derivation_kills_forms()
    monkeypatch.undo()
    assert forms.invariant_three_form_dimension() == 1


def _reference_three_form_dimension():
    """35 minus the rank of every row (X, K') of every basis X, read as it
    comes, a row and its negative both."""
    keys = list(combinations(fano.POINTS, 3))
    rows = []
    for pd in g2.g2_basis():
        x = g2.X(*pd)
        for out in combinations(fano.POINTS, 3):
            row = [forms.derive(x, {key: 1}).get(out, 0) for key in keys]
            if any(row):
                rows.append(row)
    return len(keys) - linalg.rank(rows, QQ)


def test_invariant_space_dimension(monkeypatch):
    # the rows read once up to sign, against every row: on the table, and
    # with one entry of the derivation table negated
    assert forms.invariant_three_form_dimension() == _reference_three_form_dimension() == 1
    table = forms._derivation_table()
    pair = next(iter(g2.X(*g2.g2_basis()[0])))
    key = next(k for k in forms.omega() if k in table[pair])
    bad = {p: dict(row) for p, row in table.items()}
    out, sign = bad[pair][key]
    bad[pair][key] = (out, -sign)
    monkeypatch.setattr(forms, "_derivation_table", lambda: bad)
    assert forms.invariant_three_form_dimension() == _reference_three_form_dimension() == 0


def _reference_form(eps, blocks, pairs):
    """The form with one term per block, each ordering of the block sorted
    with its sign on its own."""
    out = {}
    for d in fano.LINES:
        results = set()
        for pts in permutations(sorted(blocks[d])):
            c = prod(eps[pts[i] - 1][pts[j] - 1] for i, j in pairs)
            key, s = forms._sort_with_sign(pts)
            results.add((key, c * s))
        if len(results) == 1:
            key, c = results.pop()
            out[key] = c
    return out


def test_forms_match_the_ordering_by_ordering_reference():
    # omega and Omega with the signs of the orderings read off one table,
    # against sorting each ordering: on EPS_TAU, the 16 composition factors,
    # every line orientation, and EPS_TAU with one pair flipped, where
    # Omega loses terms
    table = [list(row) for row in compfactor.EPS_TAU]
    table[0][1], table[1][0] = table[1][0], table[0][1]
    flipped = tuple(map(tuple, table))
    for eps in (compfactor.EPS_TAU, flipped) + compfactor.line_orientations():
        for block, (blocks, pairs) in forms._BLOCKS.items():
            assert forms._form(eps, block) == _reference_form(eps, blocks, pairs), (eps, block)
    assert len(forms.big_omega(flipped)) < 7


def test_bilinear_and_volume_identities():
    assert forms.bilinear_identity_check()
    assert forms.volume_identity_check()


def test_norms():
    assert forms.norm_report() == {"omega": 7, "Omega": 7}


def test_other_factor_same_identities():
    other = next(
        f for f in compfactor.enumerate_composition_factors()
        if f != compfactor.EPS_TAU and compfactor.side(f) == "O+"
    )
    assert len(forms.omega(other)) == 7
    assert forms.volume_identity_check(other)
