"""The kernels benchmark (bench/kernels.py) calls these functions from outside
the package, so their signatures are frozen: a change here must come with a
change to the benchmark.  Each is pinned by its parameters' names, kinds and
defaults, the defaults compared by identity.  The augmented group that it
draws inputs from is pinned element by element, in order.
"""

import hashlib
import inspect

import pytest

from fanog2 import compfactor, g2, lifting, linalg, octonion
from fanog2.scalars import QQ

P = inspect.Parameter.POSITIONAL_OR_KEYWORD
NONE = inspect.Parameter.empty

FROZEN = {
    # the timed calls
    "octonion.mul": (octonion.mul, [("x", NONE), ("y", NONE), ("eps", compfactor.EPS_TAU), ("field", QQ)]),
    "octonion.norm": (octonion.norm, [("x", NONE)]),
    "linalg.rank": (linalg.rank, [("rows", NONE), ("field", NONE)]),
    "linalg.nullspace": (linalg.nullspace, [("rows", NONE), ("field", NONE)]),
    "g2.bracket": (g2.bracket, [("x", NONE), ("y", NONE)]),
    "lifting.aug_compose": (lifting.aug_compose, [("a2", NONE), ("a1", NONE)]),
    "lifting.aug_apply": (lifting.aug_apply, [("aug", NONE), ("coeffs", NONE)]),
    # the calls that draw the inputs in set-up
    "g2.X": (g2.X, [("p", NONE), ("d", NONE)]),
    "g2.add_elt": (g2.add_elt, [("x", NONE), ("y", NONE)]),
    "g2.scale_elt": (g2.scale_elt, [("c", NONE), ("x", NONE)]),
    "lifting.enumerate_aug_group": (lifting.enumerate_aug_group, []),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_kernel_signatures(name):
    fn, expected = FROZEN[name]
    params = list(inspect.signature(fn).parameters.values())
    assert [(p.name, p.kind) for p in params] == [(n, P) for n, _ in expected]
    for param, (_, default) in zip(params, expected):
        assert param.default is default, param.name


# bench/kernels.py draws its aug pairs with rng.choice(enumerate_aug_group()),
# so the workload depends on the group's order as well as on its elements
AUG_GROUP_SHA256 = "2618599259f7016d1c2358c08eccb1a8b74e331fde2c92680600c76b28b74caf"


def test_aug_group_order_is_pinned():
    group = lifting.enumerate_aug_group()
    assert type(group) is tuple and len(group) == 1344
    for g, s in group:
        assert type(g) is tuple and type(s) is tuple and len(g) == len(s) == 7
    assert hashlib.sha256(repr(group).encode()).hexdigest() == AUG_GROUP_SHA256
