"""Bundled fixtures: group tables and the standard bialgebras built on them."""

import numpy as np

from .algebra import (build_function_algebra, build_group_algebra,
                      class_hypergroup_algebra, pointwise_algebra)


def cyclic_table(n):
    return (np.arange(n)[:, None] + np.arange(n)) % n


def _cayley_table(elements, compose):
    """The table of a group listed as ``elements``, entry [i, j] the index of
    compose(elements[i], elements[j])."""
    idx = {e: i for i, e in enumerate(elements)}
    return np.array([[idx[compose(p, q)] for q in elements] for p in elements], dtype=int)


def s3_table():
    """S3 as permutations of {0,1,2}; identity first, table entry = p o q."""
    return _cayley_table([(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)],
                         lambda p, q: tuple(p[k] for k in q))


def d4_table():
    """Dihedral group of order 8: elements r^a s^b, s r s = r^{-1}."""
    return _cayley_table([(a, b) for b in range(2) for a in range(4)],
                         lambda p, q: ((p[0] + (-1) ** p[1] * q[0]) % 4, (p[1] + q[1]) % 2))


def two_point_hypergroup(theta):
    """Deformed two-point structure: delta_g * delta_g = theta delta_e +
    (1-theta) delta_g on the dual side.  Coassociative and counital for every
    theta; completely positive (a valid hyperbialgebra) only for 0 < theta <= 1,
    so theta > 1 exercises the Choi-matrix rejection path.  theta = 1 is C(Z2).
    """
    coproduct = np.zeros((2, 2, 2), dtype=complex)
    coproduct[0, 0, 0] = 1.0
    coproduct[0, 1, 1] = theta
    coproduct[1, 0, 1] = coproduct[1, 1, 0] = 1.0
    coproduct[1, 1, 1] = 1.0 - theta
    return pointwise_algebra(coproduct, ("de", "dg"), "hyperbialgebra")


_CACHE = {}


def bundled_fixtures():
    """Name -> validated Bialgebra for the whole bundled family.

    C(Z/n) for n in {2,3,4,6}, C(S3), the group algebras of the same groups,
    and the S3 conjugacy-class hyperbialgebra.
    """
    if _CACHE:
        return dict(_CACHE)
    fx = {}
    for n in (2, 3, 4, 6):
        fx[f"C(Z{n})"] = build_function_algebra(cyclic_table(n))
        fx[f"Alg(Z{n})"] = build_group_algebra(cyclic_table(n))
    fx["C(S3)"] = build_function_algebra(s3_table())
    fx["Alg(S3)"] = build_group_algebra(s3_table())
    fx["Hyper(S3-classes)"] = class_hypergroup_algebra(s3_table())
    _CACHE.update(fx)
    return dict(fx)


def fixture(name):
    return bundled_fixtures()[name]
