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


def test_mult_transform():
    dom = radon.mult_domain()
    assert len(dom) == 64
    img = radon.mult_image()
    assert len(img) == 8
    assert {radon.radon_mult(f) for f in dom} == set(img)
    ker = radon.mult_kernel()
    assert len(ker) == 8
    one = (1,) * 7
    for f in ker:
        assert radon.radon_mult(f) == one


def test_mult_kernel_is_group():
    ker = set(radon.mult_kernel())
    for f in ker:
        for g in ker:
            prod = tuple(a * b for a, b in zip(f, g))
            assert prod in ker


def test_concurrency_identity():
    trips = radon.concurrent_triples()
    assert len(trips) == 7
    for f in range(128):
        lhs, rhs = radon.concurrency_identity(f)
        assert all(v == rhs for v in lhs)
