"""Exact arithmetic models of the Fano plane and the algebras built on it.

Modules:
    scalars     exact coefficient fields (rationals, Gaussian rationals, F_p)
    fano        the seven-point plane, its collineations and orientations
    compfactor  sign tables turning the group algebra into a composition algebra
    radon       the finite Radon transform on subsets and sign functions
    octonion    the eight-dimensional composition algebra over any field
    lifting     signed automorphisms: the order-1344 augmented group
    g2          the 14-dimensional derivation algebra with incidence bracket law
    forms       invariant 3- and 4-forms on the imaginary part
    linalg      exact dense linear algebra helpers
    cli         the `fanog2` certificate command

Importing the package loads none of its modules, nor `fractions`.  Each
module is loaded the first time it is imported or read as an attribute
(`fanog2.g2`), and the fields QQ, QI, PrimeField and field_from_descriptor
are read from scalars the first time they are read from the package, so
each command of the cli loads only the layers it runs.
"""

import importlib

__version__ = "1.0.0"

_MODULES = frozenset(
    "scalars fano compfactor radon octonion lifting g2 forms linalg cli".split()
)
_FIELDS = frozenset(("QI", "QQ", "PrimeField", "field_from_descriptor"))


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module("." + name, __name__)
    if name in _FIELDS:
        return getattr(importlib.import_module(".scalars", __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
