"""The fast axiom checks against slow, independent dense oracles.

``validate_bialgebra`` contracts its tensors in a chosen order and tests
complete positivity block by block.  The oracles below are the direct
formulas: bare four-operand ``einsum`` contractions and the dense
N^3 x N^3 Choi matrix.  They cost O(d^8) and O(N^9), so they only run on
small algebras; the larger groups are checked to validate at all.

The structure relation and the representation defect, each shared by the
eps and the chi (or the single-block and the block-diagonal) case, are
checked the same way: against a pair-by-pair evaluation of the relation
and against the full ``einsum`` defect of an arbitrary representation.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.algebra import (_coproduct_choi_min_eig, assert_valid,
                           build_function_algebra, build_group_algebra,
                           class_hypergroup_algebra, representation_defect,
                           validate_bialgebra)
from qlevy.convolution import OperatorMap, counit_map, functional
from qlevy.fixtures import (bundled_fixtures, cyclic_table, d4_table,
                            two_point_hypergroup)
from qlevy.generators import (CPQuadruple, canonical_phi1, check_chi_structure,
                              check_structure_map, gns_construct,
                              implemented_chi_structure, make_structure_map)
from qlevy.generators import representation_defect as single_block_defect
from qlevy.linalg import dagger, maxabs, min_eig_herm

from conftest import random_generator


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
    out["representation"] = einsum_representation_defect(b, imgs)
    return out


def einsum_representation_defect(src, images):
    """Unital, multiplicative and *-preserving defects of an arbitrary
    representation (d, n, n), each by one full ``einsum``."""
    return max(
        maxabs(np.einsum("k,kab->ab", src.unit, images) - np.eye(images.shape[1])),
        maxabs(np.einsum("iab,jbc->ijac", images, images)
               - np.einsum("ijk,kac->ijac", src.mult, images)),
        maxabs(OperatorMap(src, images).conjugate_map().values - images))


def elementwise_chi_relation(phi, chi):
    """Max over basis pairs (x, y) of the chi-structure relation
    phi(x*y) = phi(x)^dag chi(y) + conj(chi(x)) phi(y) + phi(x)^dag D phi(y),
    D = diag(0, 1, ..., 1), built pair by pair from element arithmetic."""
    src = phi.source
    dqs = np.diag([0.0] + [1.0] * (phi.p - 1))
    worst = 0.0
    for i in range(src.dim):
        x = src.basis_element(i)
        for j in range(src.dim):
            y = src.basis_element(j)
            px, py = phi(x), phi(y)
            rhs = dagger(px) * chi(y) + np.conjugate(chi(x)) * py + dagger(px) @ dqs @ py
            worst = max(worst, maxabs(phi(x.star() * y) - rhs))
    return worst


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


# -- the merged structure relation and representation defect ------------------

FIXTURES = bundled_fixtures()
# characters other than the counit: evaluation at a group element of C(S3),
# and the complex-valued one-dimensional irrep g -> exp(2 pi i g / 3) of
# Alg(Z3), which is one block of its representation
OTHER_CHARACTERS = {"C(S3)": np.eye(6)[2], "Alg(Z3)": FIXTURES["Alg(Z3)"].rep_images[:, 1, 1]}
CHARACTER_CASES = [(name, "counit") for name in sorted(FIXTURES)] \
    + [(name, "other") for name in sorted(OTHER_CHARACTERS)]
VECTORS = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                      allow_infinity=False), min_size=8, max_size=8)
SWEEP = settings(derandomize=True, deadline=None, max_examples=8)


@pytest.mark.parametrize("name, character", CHARACTER_CASES)
@SWEEP
@given(seed=st.integers(0, 2 ** 32 - 1), vec=VECTORS)
def test_structure_relation_matches_elementwise(name, character, seed, vec):
    b = FIXTURES[name]
    pi = OperatorMap(b, b.rep_images)
    chi = counit_map(b) if character == "counit" else functional(b, OTHER_CHARACTERS[name])
    xi = np.array(vec[:pi.p])
    built = implemented_chi_structure(pi, chi, xi)
    # a generator far from the relation, so that the comparison is not 0 vs 0
    off = random_generator(np.random.default_rng(seed), b, pi.p, scale=1.0)
    for phi in (built, off):
        tol = 1e-12 * max(1.0, maxabs(phi.values)) ** 2
        want = elementwise_chi_relation(phi, chi)
        assert abs(check_chi_structure(phi, chi) - want) <= tol
        if character == "counit":
            assert abs(check_structure_map(phi)["relation"] - want) <= tol
    assert elementwise_chi_relation(built, chi) <= 1e-12 * max(1.0, maxabs(built.values)) ** 2
    assert elementwise_chi_relation(off, chi) > 1e-3
    if character == "counit":
        assert np.array_equal(make_structure_map(pi, xi).values, built.values)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@SWEEP
@given(seed=st.integers(0, 2 ** 32 - 1), vec=VECTORS)
def test_representation_defect_matches_einsum(name, seed, vec):
    b = FIXTURES[name]
    rng = np.random.default_rng(seed)
    pi = OperatorMap(b, b.rep_images)
    xi = np.array(vec[:pi.p])
    # in-block noise keeps the block-diagonal form and moves the defect far from 0
    noisy = perturbed(b, rng, 1e-2).rep_images
    assert einsum_representation_defect(b, noisy) > 1e-3

    def tol(imgs):
        return 1e-12 * max(1.0, maxabs(imgs)) ** 2

    for imgs in (b.rep_images, noisy):
        want = einsum_representation_defect(b, imgs)
        assert abs(representation_defect(b, imgs, b.rep_blocks) - want) <= tol(imgs)
        assert abs(single_block_defect(OperatorMap(b, imgs)) - want) <= tol(imgs)
    if b.kind == "bialgebra":
        # no check_tol: a near-degenerate Gram matrix gives a triple that
        # gns_construct rejects, and its representation defect is compared too
        triple, _ = gns_construct(make_structure_map(pi, xi).lam_block(),
                                  check_tol=np.inf)
        want = einsum_representation_defect(b, triple.pi.values)
        assert abs(triple.residuals()["representation"] - want) <= tol(triple.pi.values)
    # a CP quadruple whose representation is rotated off the block form
    u = np.linalg.qr(rng.standard_normal((pi.p, pi.p))
                     + 1j * rng.standard_normal((pi.p, pi.p)))[0]
    rho = OperatorMap(b, u[None] @ b.rep_images @ dagger(u)[None])
    big_d = 0.5 * np.eye(pi.p, 2)
    q = CPQuadruple(rho, big_d, xi, canonical_phi1(big_d))
    want = einsum_representation_defect(b, rho.values)
    assert abs(q.residuals()["representation"] - want) <= tol(rho.values)
