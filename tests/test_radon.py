from math import prod

from fanog2 import fano, radon


def test_transform_linearity():
    for f in range(0, 128, 7):
        for g in range(0, 128, 11):
            assert radon.radon(f ^ g) == radon.radon(f) ^ radon.radon(g)


def test_kernel_and_image():
    k = radon.kernel()
    assert len(k) == 8
    assert radon.ZERO in k
    for d in fano.LINES:
        assert radon.t_line(d) in k
    img = radon.image()
    assert len(img) == 16
    for h in img:
        assert radon.image_membership(h)
        assert len(radon.preimages(h)) == 8


def test_image_membership_matches_image():
    img = set(radon.image())
    for h in range(128):
        assert radon.image_membership(h) == (h in img)


def test_point_and_line_indicators():
    for d in fano.LINES:
        ind = radon.line_indicator(d)
        for p in fano.POINTS:
            assert radon.evaluate(ind, p) == (p in fano.LINE_POINTS[d])
        assert radon.t_line(d) == radon.ONE ^ ind


def _signs(mask):
    """The sign tuple with -1 at the set bits of mask."""
    return tuple(-1 if mask >> i & 1 else 1 for i in range(7))


def test_masks_carry_the_multiplicative_transform():
    # a sign function is the mask of its -1 points: on all 128, the product
    # of the signs over each line is -1 exactly where the transform is 1,
    # R is the masks whose signs multiply to +1, and the pencil condition
    # is the product over the three lines through each point
    dom = set(radon.mult_domain())
    pencil = set(radon.pencil_sign_functions())
    for m in range(128):
        s = _signs(m)
        lines = tuple(prod(s[p - 1] for p in fano.LINE_POINTS[d]) for d in fano.LINES)
        assert _signs(radon.radon(m)) == lines, m
        assert (m in dom) == (prod(s) == 1), m
        pencils = (prod(s[d - 1] for d in fano.lines_through(p)) for p in fano.POINTS)
        assert (m in pencil) == all(v == 1 for v in pencils), m


def test_mult_transform():
    dom = radon.mult_domain()
    assert len(dom) == 64
    img = radon.mult_image()
    assert len(img) == 8
    assert {radon.radon(f) for f in dom} == set(img) == set(radon.pencil_sign_functions())
    ker = radon.mult_kernel()
    assert len(ker) == 8
    for f in ker:
        assert radon.radon(f) == radon.ZERO


def test_mult_kernel_is_group():
    # a product of sign functions is the XOR of their masks
    ker = set(radon.mult_kernel())
    assert radon.ZERO in ker
    for f in ker:
        for g in ker:
            assert f ^ g in ker


def _reference_radon(f):
    """The transform point by point: f summed over the three points of each
    line."""
    out = 0
    for d in fano.LINES:
        if sum(radon.evaluate(f, p) for p in fano.LINE_POINTS[d]) % 2:
            out |= 1 << (d - 1)
    return out


def _reference_concurrency_identity(f):
    """(lhs, rhs): the sum of f* over each concurrent line triple, read off
    radon.radon, bit by bit, and the total sum of f."""
    h = radon.radon(f)
    rhs = sum(radon.evaluate(f, p) for p in fano.POINTS) % 2
    lhs = tuple(
        (radon.evaluate(h, d1) + radon.evaluate(h, d2) + radon.evaluate(h, d3)) % 2
        for d1, d2, d3 in radon.concurrent_triples()
    )
    return lhs, rhs


def _reference_concurrency_holds():
    return len(radon.concurrent_triples()) == 7 and all(
        all(v == rhs for v in lhs) for lhs, rhs in map(_reference_concurrency_identity, range(128))
    )


def test_concurrency_identity():
    trips = radon.concurrent_triples()
    assert len(trips) == 7
    for f in range(128):
        lhs, rhs = _reference_concurrency_identity(f)
        assert all(v == rhs for v in lhs)
    assert radon.concurrency_holds() is _reference_concurrency_holds() is True


def test_parities_match_the_pointwise_reference(monkeypatch, fresh_memos):
    # the transform as parities of f & LINE_MASKS[D - 1], and the
    # concurrency claim as parities of masked transforms, against the point
    # by point loops on all 128 functions; with the transform broken to the
    # identity both claims fail alike
    assert [radon.radon(f) for f in range(128)] == [_reference_radon(f) for f in range(128)]
    assert radon.LINE_MASKS == tuple(map(radon.line_indicator, fano.LINES))
    monkeypatch.setattr(radon, "radon", lambda f: f)
    assert radon.concurrency_holds() is _reference_concurrency_holds() is False
    monkeypatch.setattr(radon, "radon", lambda f: _reference_radon(f) ^ (f == 5))
    assert radon.concurrency_holds() is _reference_concurrency_holds() is False
