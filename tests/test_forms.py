from itertools import combinations

from fanog2 import compfactor, fano, forms, g2


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


def test_derivation_leibniz():
    x = g2.X(1, 1)
    a = {(2, 3): 1}
    b = {(5, 6): 1}
    lhs = forms.so7_derivation(x, forms.wedge(a, b))
    rhs = g2.add_elt(
        forms.wedge(forms.so7_derivation(x, a), b),
        forms.wedge(a, forms.so7_derivation(x, b)),
    )
    assert lhs == rhs


def _reference_derivation(x, a):
    """The derivation action of x as the sum over its terms v e_ij of
    v (e^j ^ i_{e_i}(a) - e^i ^ i_{e_j}(a))."""
    out = {}
    for (i, j), v in x.items():
        out = g2.add_elt(out, g2.scale_elt(v, forms.wedge({(j,): 1}, forms.contract({i: 1}, a))))
        out = g2.add_elt(out, g2.scale_elt(-v, forms.wedge({(i,): 1}, forms.contract({j: 1}, a))))
    return out


def test_derivation_matches_the_wedge_contract_reference():
    # every X(P, D) on every basis k-form, k = 1..4, and on omega and Omega
    forms_ = [{key: 1} for k in range(1, 5) for key in combinations(fano.POINTS, k)]
    forms_ += [forms.omega(), forms.big_omega()]
    for p, d in g2.INCIDENT_PAIRS:
        x = g2.X(p, d)
        for a in forms_:
            assert forms.so7_derivation(x, a) == _reference_derivation(x, a), (p, d, a)


def test_invariant_space_dimension():
    assert forms.invariant_three_form_dimension() == 1


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
