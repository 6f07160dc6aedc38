"""The fast axiom checks against slow, independent dense oracles.

``validate_bialgebra`` contracts its tensors in a chosen order and tests
complete positivity block by block.  The oracles below are the direct
formulas: bare four-operand ``einsum`` contractions and the dense
N^3 x N^3 Choi matrix.  They cost O(d^8) and O(N^9), so they only run on
small algebras; the larger groups are checked to validate at all.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from qlevy.algebra import (_coproduct_choi_min_eig, assert_valid,
                           build_function_algebra, build_group_algebra,
                           class_hypergroup_algebra, validate_bialgebra)
from qlevy.fixtures import (bundled_fixtures, cyclic_table, d4_table,
                            two_point_hypergroup)
from qlevy.linalg import dagger, maxabs, min_eig_herm


# -- oracles ------------------------------------------------------------------

def dense_choi_min_eig(b):
    """Minimum eigenvalue of the full N^3 x N^3 Choi matrix of the
    represented coproduct, precomposed with the block-diagonal conditional
    expectation onto the image of the representation."""
    n = b.rep_dim
    block_of = np.repeat(np.arange(len(b.rep_blocks)), b.rep_blocks)
    flat = b.rep_images.reshape(b.dim, -1)
    pinv = np.linalg.pinv(flat, rcond=1e-12)
    dimg = np.einsum("kij,iab,jcd->kacbd", b.coproduct, b.rep_images,
                     b.rep_images).reshape(b.dim, n * n, n * n)
    choi = np.zeros((n ** 3, n ** 3), dtype=complex)
    for u in range(n):
        for v in range(n):
            euv = np.zeros((n, n), dtype=complex)
            if block_of[u] == block_of[v]:
                euv[u, v] = 1.0
            coords = pinv.T @ euv.reshape(-1)
            # the (u, v) block of sum_uv E_uv (x) theta_uv
            choi[u * n * n:(u + 1) * n * n, v * n * n:(v + 1) * n * n] = \
                np.einsum("k,kab->ab", coords, dimg)
    return min_eig_herm(choi)


def einsum_residuals(b):
    """The structural residuals that validate_bialgebra contracts in a
    chosen order, each computed by one bare ``einsum``."""
    m, cop, s, imgs = b.mult, b.coproduct, b.star_matrix, b.rep_images
    out = {}
    out["associativity"] = maxabs(np.einsum("ijm,mkl->ijkl", m, m)
                                  - np.einsum("jkm,iml->ijkl", m, m))
    out["star-antimultiplicative"] = maxabs(
        np.einsum("ak,ijk->ija", s, np.conjugate(m))
        - np.einsum("pj,qi,pqa->ija", s, s, m))
    out["OSC1-coassociativity"] = maxabs(np.einsum("kij,iab->kabj", cop, cop)
                                         - np.einsum("kij,jab->kiab", cop, cop))
    out["coproduct-multiplicative"] = maxabs(
        np.einsum("ijm,mab->ijab", m, cop)
        - np.einsum("ipq,jrs,pra,qsb->ijab", cop, cop, m, m))
    out["coproduct-star-preserving"] = maxabs(
        np.einsum("mk,mab->kab", s, cop)
        - np.einsum("kij,ai,bj->kab", np.conjugate(cop), s, s))
    out["representation"] = max(
        maxabs(np.einsum("k,kab->ab", b.unit, imgs) - np.eye(b.rep_dim)),
        maxabs(np.einsum("iab,jbc->ijac", imgs, imgs)
               - np.einsum("ijk,kac->ijac", m, imgs)),
        maxabs(np.einsum("mk,mab->kab", s, imgs) - dagger(imgs)))
    return out


def scale(b):
    return max(1.0, maxabs(b.mult), maxabs(b.coproduct), maxabs(b.star_matrix),
               maxabs(b.rep_images))


def fast_residuals(b):
    return {r.name: r.residual for r in validate_bialgebra(b)}


def as_bialgebra(b):
    return dataclasses.replace(b, kind="bialgebra")


def as_hyper(b):
    return dataclasses.replace(b, kind="hyperbialgebra")


def s4_table():
    """S4 as the permutations of {0,1,2,3}, identity first; entry = p o q."""
    perms = list(itertools.permutations(range(4)))
    idx = {p: i for i, p in enumerate(perms)}
    return np.array([[idx[tuple(p[q[k]] for k in range(4))] for q in perms]
                     for p in perms])


def perturbed(b, rng, eps):
    """b with every structure tensor moved by noise of size eps; the image
    noise stays inside the diagonal blocks."""
    def noise(shape):
        return eps * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ids = np.repeat(np.arange(len(b.rep_blocks)), b.rep_blocks)
    imgs = (b.rep_images + noise(b.rep_images.shape)) * (ids[:, None] == ids[None, :])
    return dataclasses.replace(
        b, mult=b.mult + noise(b.mult.shape),
        coproduct=b.coproduct + noise(b.coproduct.shape),
        star_matrix=b.star_matrix + noise(b.star_matrix.shape), rep_images=imgs)


# -- cases --------------------------------------------------------------------

THETAS = (0.3, 0.9, 1.05, 1.5, 2.0)


def oracle_cases():
    fx = bundled_fixtures()
    cases = dict(fx)
    cases["Alg(D4)"] = build_group_algebra(d4_table())
    for theta in THETAS:
        cases[f"two_point({theta})"] = two_point_hypergroup(theta)
    rng = np.random.default_rng(2006)
    for name in ("Alg(S3)", "Alg(D4)", "Hyper(S3-classes)", "C(Z4)"):
        for eps in (1e-6, 1e-2):
            cases[f"{name}+{eps:g}"] = perturbed(cases[name], rng, eps)
    return cases


CASES = oracle_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_blockwise_choi_matches_dense(name):
    b = as_hyper(CASES[name])
    fast = _coproduct_choi_min_eig(b)
    slow = dense_choi_min_eig(b)
    assert abs(fast - slow) <= 1e-12 * scale(b), (fast, slow)


# the bare einsum costs O(d^8): one order-8 case only
EINSUM_CASES = sorted(name for name in CASES
                      if CASES[name].dim < 8 or name == "Alg(D4)+0.01")


@pytest.mark.parametrize("name", EINSUM_CASES)
def test_contraction_order_matches_einsum(name):
    b = as_bialgebra(CASES[name])
    fast, slow = fast_residuals(b), einsum_residuals(b)
    for axiom, value in slow.items():
        assert abs(fast[axiom] - value) <= 1e-12 * scale(b) ** 4, (axiom, fast[axiom], value)


def test_oracle_cases_are_not_trivial():
    # the comparisons above would be empty if every case were exactly valid
    choi = {name: dense_choi_min_eig(as_hyper(CASES[name]))
            for name in ("two_point(2.0)", "two_point(0.3)", "Alg(D4)+0.01")}
    assert choi["two_point(2.0)"] < -0.5 and choi["two_point(0.3)"] >= -1e-12
    assert choi["Alg(D4)+0.01"] < -1e-4
    assert einsum_residuals(CASES["Hyper(S3-classes)"])["coproduct-multiplicative"] > 1e-2
    assert einsum_residuals(CASES["Alg(S3)+0.01"])["associativity"] > 1e-3


def test_two_point_verdict_flips_at_one():
    for theta in THETAS:
        ok = all(r.passed for r in validate_bialgebra(two_point_hypergroup(theta)))
        assert ok == (theta <= 1.0), theta


def test_off_block_images_fail_representation(all_fixtures):
    # the blockwise Choi test assumes block-diagonal images; mass outside
    # the blocks must fail the representation axiom
    b = all_fixtures["Alg(S3)"]
    imgs = b.rep_images.copy()
    imgs[1, 0, 3] = 1e-6
    results = {r.name: r for r in validate_bialgebra(dataclasses.replace(b, rep_images=imgs))}
    assert not results["representation"].passed
    assert results["representation"].residual >= 1e-6


# -- larger groups ------------------------------------------------------------
# the builders run assert_valid, so building is the validation

def test_s4_algebras_validate():
    s4 = s4_table()
    alg = build_group_algebra(s4)
    assert sorted(alg.rep_blocks) == [1, 1, 2, 3, 3]
    assert_valid(as_hyper(alg))
    assert build_function_algebra(s4).dim == 24
    assert class_hypergroup_algebra(s4).dim == 5    # five conjugacy classes


def test_z32_group_algebra_validates():
    assert build_group_algebra(cyclic_table(32)).rep_blocks == (1,) * 32
