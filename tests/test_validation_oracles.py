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

``validate_bialgebra`` runs exactly real tensors in real arithmetic; the
same formulas in complex arithmetic throughout are kept as its reference,
and the two must agree bit for bit.

The routines that read a Cayley table (the builders, the table check and
the group-cocycle residuals) index it with arrays; they are checked against
loops that walk the table one entry at a time.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.algebra import (STRUCTURE, AxiomResult, AxiomViolation, _block_chart, _check_table,
                           _coproduct_choi_min_eig, _coproduct_of_products, _worst,
                           assert_valid, bialgebra_from_dict, build_function_algebra,
                           build_group_algebra, class_hypergroup_algebra,
                           representation_defect, validate_bialgebra)
from qlevy.convolution import OperatorMap, counit_map, functional
from qlevy.derivations import (DerivationProblem, check_derivation,
                               derivation_constraint_matrix)
from qlevy.fixtures import (bundled_fixtures, cyclic_table, d4_table, s3_table,
                            two_point_hypergroup)
from qlevy.generators import (CPQuadruple, canonical_phi1, check_chi_structure,
                              check_structure_map, gns_construct,
                              implemented_chi_structure, make_structure_map)
from qlevy.generators import representation_defect as single_block_defect
from qlevy.harness import (GroupCocycleData, coboundary_data,
                           group_relation_residuals, psi_blocks)
from qlevy.linalg import (RCOND, SPECTRAL_TOL, STRUCT_TOL, block_diag, commutator_system,
                          dagger, maxabs, min_eig_herm, numerical_rank, split_blocks)

from conftest import random_generator
from test_basis_change import skew


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


def einsum_defects(src, images):
    """Unital, multiplicative and *-preserving defects of an arbitrary
    representation (d, n, n), each by one full ``einsum``."""
    return (maxabs(np.einsum("k,kab->ab", src.unit, images) - np.eye(images.shape[1])),
            maxabs(np.einsum("iab,jbc->ijac", images, images)
                   - np.einsum("ijk,kac->ijac", src.mult, images)),
            maxabs(OperatorMap(src, images).conjugate_map().values - images))


def einsum_representation_defect(src, images):
    return max(einsum_defects(src, images))


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


def repeated_last_block(b):
    """b with its last diagonal block repeated: a reducible representation
    with two blocks of one size."""
    blocks = split_blocks(b.rep_images, b.rep_blocks)
    return dataclasses.replace(b, rep_blocks=b.rep_blocks + b.rep_blocks[-1:],
                               rep_images=block_diag(blocks + blocks[-1:]))


# -- cases --------------------------------------------------------------------

THETAS = (0.3, 0.9, 1.05, 1.5, 2.0)


def oracle_cases():
    fx = bundled_fixtures()
    cases = dict(fx)
    cases["Alg(D4)"] = build_group_algebra(d4_table())
    cases["Hyper(D4-classes)"] = class_hypergroup_algebra(d4_table())
    cases["skew(Hyper(S3-classes))"] = skew(fx["Hyper(S3-classes)"], 77)
    cases["Alg(S3) 2-block twice"] = repeated_last_block(fx["Alg(S3)"])
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
    b = build_group_algebra(cyclic_table(32))
    assert b.rep_blocks == (1,) * 32
    assert_same_structure(b, loop_group_algebra(cyclic_table(32)))


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


# the irreducible blocks of a group algebra, some repeated, in a mixed order
# of sizes, so that a size has blocks on both sides of another size
MIXED_LAYOUTS = [("Alg(S3)", (0, 1, 2)), ("Alg(S3)", (2, 0, 1, 2)),
                 ("Alg(D4)", (4, 0, 1, 4, 2, 3))]


@pytest.mark.parametrize("name, order", MIXED_LAYOUTS)
@SWEEP
@given(seed=st.integers(0, 2 ** 32 - 1), inblock=st.sampled_from([0.0, 1e-2]),
       off=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_blockwise_defect_matches_einsum_on_mixed_layouts(name, order, seed, inblock, off):
    b = CASES[name]
    parts = split_blocks(b.rep_images, b.rep_blocks)
    blocks = tuple(b.rep_blocks[i] for i in order)
    ids = np.repeat(np.arange(len(blocks)), blocks)
    inside = ids[:, None] == ids[None, :]
    rng = np.random.default_rng(seed)
    shape = (b.dim, len(ids), len(ids))
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # in-block noise moves the defect far from 0; Hermitian off-block mass on
    # one self-adjoint basis element leaves the unital and *-defects at
    # rounding level, so that without in-block noise the off-block term decides
    k = next(k for k in range(1, b.dim) if b.star_matrix[k, k] == 1)
    mass = np.zeros(shape, dtype=complex)
    mass[k] = off * (noise[k] + dagger(noise[k]))
    images = block_diag([parts[i] for i in order]) + np.where(inside, inblock * noise, mass)
    # the blockwise products are those of the block-diagonal part
    unital, _, starp = einsum_defects(b, images)
    _, mult, _ = einsum_defects(b, np.where(inside, images, 0))
    want = max(unital, mult, starp, maxabs(images[:, ~inside]))
    tol = 1e-12 * max(1.0, maxabs(images)) ** 2
    assert abs(representation_defect(b, images, blocks) - want) <= tol
    if inblock:
        assert want > 1e-3
    elif off:
        assert want == maxabs(mass[:, ~inside]) > 1e-12


# -- Cayley-table routines against their entry-by-entry loops -----------------
# The builders and the group-cocycle residuals index the table with arrays;
# the oracles below walk it one entry at a time, as the code once did.

def loop_check_table(table, need_group):
    """The table checks, entry by entry: the error message, or None."""
    table = np.asarray(table, dtype=int)
    d = table.shape[0]
    if table.shape != (d, d) or np.any(table < 0) or np.any(table >= d):
        return "multiplication table must be square over 0..d-1"
    if not (np.array_equal(table[0], np.arange(d)) and np.array_equal(table[:, 0], np.arange(d))):
        return "index 0 is not an identity for the table"
    for i, j, k in itertools.product(range(d), repeat=3):
        if table[table[i, j], k] != table[i, table[j, k]]:
            return f"table is not associative at ({i},{j},{k})"
    if need_group:
        for i in range(d):
            if not np.any(table[i] == 0):
                return f"element {i} has no inverse; table is not a group"
    return None


def loop_pointwise(coproduct, labels, kind):
    """Functions on len(labels) points with the pointwise product."""
    d = len(labels)
    mult = np.zeros((d, d, d), dtype=complex)
    images = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        mult[i, i, i] = images[i, i, i] = 1.0
    counit = np.zeros(d, dtype=complex)
    counit[0] = 1.0
    return dict(basis_labels=tuple(labels), unit=np.ones(d, dtype=complex), mult=mult,
                star_matrix=np.eye(d, dtype=complex), counit=counit, coproduct=coproduct,
                rep_blocks=(1,) * d, rep_images=images, kind=kind)


def loop_function_algebra(table):
    d = len(table)
    coproduct = np.zeros((d, d, d), dtype=complex)
    for a in range(d):
        for c in range(d):
            coproduct[table[a, c], a, c] = 1.0
    return loop_pointwise(coproduct, tuple(f"d{h}" for h in range(d)), "bialgebra")


def loop_class_hypergroup(table):
    d = len(table)
    inv = np.argmax(table == 0, axis=1)
    cls, classes = [-1] * d, []
    for g in range(d):
        if cls[g] < 0:
            orbit = sorted({table[table[h, g], inv[h]] for h in range(d)})
            for x in orbit:
                cls[x] = len(classes)
            classes.append(orbit)
    m = len(classes)
    coproduct = np.zeros((m, m, m), dtype=complex)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for a in ci:
                for b in cj:
                    coproduct[cls[table[a, b]], i, j] += 1.0 / (len(ci) * len(cj))
    labels = tuple("C" + "_".join(str(x) for x in c) for c in classes)
    return loop_pointwise(coproduct, labels, "hyperbialgebra")


def loop_two_point(theta):
    coproduct = np.zeros((2, 2, 2), dtype=complex)
    coproduct[0, 0, 0] = 1.0
    coproduct[0, 1, 1] = theta
    coproduct[1, 0, 1] = coproduct[1, 1, 0] = 1.0
    coproduct[1, 1, 1] = 1.0 - theta
    return loop_pointwise(coproduct, ("de", "dg"), "hyperbialgebra")


def loop_group_irreps(table):
    """The irrep split of the regular representation with every table walk
    written as a loop; the eigen-decomposition steps are the builder's."""
    d = len(table)
    regs = np.zeros((d, d, d), dtype=complex)
    for g in range(d):
        for h in range(d):
            regs[g, table[g, h], h] = 1.0
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = a + a.conj().T
    x = sum(regs[g] @ a @ dagger(regs[g]) for g in range(d)) / d
    vals, vecs = np.linalg.eigh(x)
    cuts = [i for i in range(1, d)
            if vals[i] - vals[i - 1] > 1e-6 * max(1.0, abs(vals[i]))]
    reps = {}
    for lo, hi in zip([0] + cuts, cuts + [d]):
        v = vecs[:, lo:hi]
        pi = np.array([dagger(v) @ regs[g] @ v for g in range(d)])
        reps.setdefault(tuple(np.round(np.trace(pi[g]), 8) for g in range(d)), pi)
    chosen = [pi for _, pi in sorted(
        reps.items(), key=lambda kv: (kv[1].shape[1], [(-z.real, -z.imag) for z in kv[0]]))]
    blocks = tuple(pi.shape[1] for pi in chosen)
    assert sum(n * n for n in blocks) == d, blocks
    n = sum(blocks)
    images = np.zeros((d, n, n), dtype=complex)
    for g in range(d):
        ofs = 0
        for pi in chosen:
            images[g, ofs:ofs + len(pi[g]), ofs:ofs + len(pi[g])] = pi[g]
            ofs += len(pi[g])
    resid = max(maxabs(images[table[g, h]] - images[g] @ images[h])
                for g in range(d) for h in range(d))
    assert resid < 1e-10, resid
    return blocks, images


def loop_group_algebra(table):
    d = len(table)
    mult = np.zeros((d, d, d), dtype=complex)
    star_m = np.zeros((d, d), dtype=complex)
    coproduct = np.zeros((d, d, d), dtype=complex)
    for g in range(d):
        coproduct[g, g, g] = 1.0
        for h in range(d):
            mult[g, h, table[g, h]] = 1.0
            if table[g, h] == 0:
                star_m[h, g] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    blocks, images = loop_group_irreps(table)
    return dict(basis_labels=tuple(f"L{g}" for g in range(d)), unit=unit, mult=mult,
                star_matrix=star_m, counit=np.ones(d, dtype=complex), coproduct=coproduct,
                rep_blocks=blocks, rep_images=images, kind="bialgebra")


def assert_same_structure(b, want):
    assert b.dim == len(want["basis_labels"])
    for field, value in want.items():
        got = getattr(b, field)
        if isinstance(value, np.ndarray):
            # bit for bit, signs of zeros included
            assert got.dtype == value.dtype and got.shape == value.shape, field
            assert got.tobytes() == value.tobytes(), field
        else:
            assert got == value, field


def max_monoid(n):
    return np.maximum.outer(np.arange(n), np.arange(n))


def product_table(n1, n2):
    """Z_n1 x Z_n2, element (a, b) at index a * n2 + b."""
    a, b = np.divmod(np.arange(n1 * n2), n2)
    return ((a[:, None] + a) % n1) * n2 + (b[:, None] + b) % n2


def relabeled(table, rng):
    """The same monoid with its non-identity elements renamed at random."""
    p = np.concatenate(([0], 1 + rng.permutation(len(table) - 1)))
    out = np.empty_like(table)
    out[np.ix_(p, p)] = p[table]
    return out


# every group table shape the benchmark builds, and the bundled ones
GROUP_TABLES = {**{f"Z{n}": cyclic_table(n) for n in range(2, 9)},
                "S3": s3_table(), "D4": d4_table(),
                "Z2xZ2": product_table(2, 2), "Z2xZ4": product_table(2, 4)}
MONOID_TABLES = {"max3": max_monoid(3), "max8": max_monoid(8)}
BUILDERS = {"function": (build_function_algebra, loop_function_algebra),
            "group": (build_group_algebra, loop_group_algebra),
            "class": (class_hypergroup_algebra, loop_class_hypergroup)}
BUILDER_CASES = [(kind, name) for name in GROUP_TABLES for kind in BUILDERS] \
    + [("function", name) for name in MONOID_TABLES]


@pytest.mark.parametrize("kind, name", BUILDER_CASES)
@settings(derandomize=True, deadline=None, max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_builders_match_entry_loops(kind, name, seed):
    table = {**GROUP_TABLES, **MONOID_TABLES}[name]
    build, loop = BUILDERS[kind]
    # the table as given, and with its elements renamed
    for t in (table, relabeled(table, np.random.default_rng(seed))):
        assert_same_structure(build(t), loop(t))


@pytest.mark.parametrize("theta", THETAS + (1.0,))
def test_two_point_hypergroup_matches_entries(theta):
    assert_same_structure(two_point_hypergroup(theta), loop_two_point(theta))


def test_bundled_fixtures_match_entry_loops(all_fixtures):
    tables = {"Z2": cyclic_table(2), "Z3": cyclic_table(3), "Z4": cyclic_table(4),
              "Z6": cyclic_table(6), "S3": s3_table(), "S3-classes": s3_table()}
    loops = {"C": loop_function_algebra, "Alg": loop_group_algebra,
             "Hyper": loop_class_hypergroup}
    for name, b in all_fixtures.items():
        prefix, group = name[:-1].split("(")
        assert_same_structure(b, loops[prefix](tables[group]))


# -- validation over R against validation over C -------------------------------

def complex_validate(b, struct_tol=STRUCT_TOL):
    """validate_bialgebra's formulas with every tensor complex: the reference
    for its narrowing of exactly real tensors to real arrays."""
    b = dataclasses.replace(b, **{f: np.asarray(getattr(b, f), dtype=complex)
                                  for f in STRUCTURE + ("rep_images",)})
    d = b.dim
    res = []
    eye = np.eye(d)
    mult, cop = b.mult, b.coproduct
    mult_ij_k = mult.reshape(d * d, d)
    u, m, st_, e, c = (float(np.abs(x).max())
                       for x in (b.unit, mult, b.star_matrix, b.counit, cop))

    def tol(*sides):
        return struct_tol * max(1.0, *sides)

    unit_l = np.einsum("i,ijk->jk", b.unit, b.mult)
    unit_r = np.einsum("j,ijk->ik", b.unit, b.mult)
    worst, where = _worst(np.stack([unit_l - eye, unit_r - eye]))
    res.append(AxiomResult("unit", worst, tol(u * m), where[1:]))
    lhs = (mult_ij_k @ mult.reshape(d, d * d)).reshape(d, d, d, d)
    rhs = np.matmul(mult_ij_k, mult).reshape(d, d, d, d)
    worst, where = _worst(lhs - rhs)
    res.append(AxiomResult("associativity", worst, tol(m * m), where[:3]))
    s = b.star_matrix
    res.append(AxiomResult("star-involution", maxabs(s @ np.conjugate(s) - eye),
                           tol(st_ * st_)))
    lhs = (np.conjugate(mult_ij_k) @ s.T).reshape(d, d, d)
    rhs = (s.T @ np.matmul(s.T, mult).reshape(d, d * d)).reshape(d, d, d)
    rhs = rhs.transpose(1, 0, 2)
    res.append(AxiomResult("star-antimultiplicative", maxabs(lhs - rhs),
                           tol(m * st_, st_ * st_ * m)))
    lhs = np.matmul(cop.transpose(0, 2, 1), cop.reshape(d, d * d))
    lhs = lhs.reshape(d, d, d, d).transpose(0, 2, 3, 1)
    rhs = (cop.reshape(d * d, d) @ cop.reshape(d, d * d)).reshape(d, d, d, d)
    worst, where = _worst(lhs - rhs)
    res.append(AxiomResult("OSC1-coassociativity", worst, tol(c * c), where[:1]))
    left = np.einsum("kij,i->kj", b.coproduct, b.counit) - eye
    right = np.einsum("kij,j->ki", b.coproduct, b.counit) - eye
    res.append(AxiomResult("OSC2-counit-property", maxabs(np.stack([left, right])),
                           tol(c * e)))
    char = np.einsum("ijk,k->ij", b.mult, b.counit) - np.outer(b.counit, b.counit)
    star_eps = s.T @ b.counit - np.conjugate(b.counit)
    at_one = abs(b.counit @ b.unit - 1.0)
    res.append(AxiomResult("counit-character",
                           max(maxabs(char), maxabs(star_eps), at_one),
                           tol(m * e, e * e, st_ * e, e * u)))
    delta_unit = np.einsum("k,kij->ij", b.unit, b.coproduct) - np.outer(b.unit, b.unit)
    res.append(AxiomResult("coproduct-unital", maxabs(delta_unit), tol(u * c, u * u)))
    if b.kind == "bialgebra":
        lhs = (mult_ij_k @ cop.reshape(d, d * d)).reshape(d, d, d, d)
        worst, where = _worst(lhs - _coproduct_of_products(b))
        res.append(AxiomResult("coproduct-multiplicative", worst, tol(m * c, c * c * m * m),
                               where[:2]))
        lhs = (s.T @ cop.reshape(d, d * d)).reshape(d, d, d)
        rhs = s @ np.conjugate(cop) @ s.T
        res.append(AxiomResult("coproduct-star-preserving", maxabs(lhs - rhs),
                               tol(st_ * c, st_ * st_ * c)))
    elif b.kind == "hyperbialgebra":
        defect = max(0.0, -_coproduct_choi_min_eig(b))
        res.append(AxiomResult("coproduct-completely-positive", defect, SPECTRAL_TOL))
    else:
        res.append(AxiomResult("kind", 1.0, 0.0))
    res.append(AxiomResult("representation",
                           representation_defect(b, b.rep_images, b.rep_blocks), struct_tol))
    rank = numerical_rank(b.rep_images.reshape(d, -1))
    res.append(AxiomResult("representation-faithful", float(b.dim - rank), 0.5))
    return res


def listed(results):
    return [(r.name, r.residual, r.tol, r.where) for r in results]


def permuted(b, rng):
    """b in a randomly reordered basis."""
    p = rng.permutation(b.dim)
    return dataclasses.replace(
        b, basis_labels=tuple(b.basis_labels[i] for i in p), unit=b.unit[p],
        mult=b.mult[np.ix_(p, p, p)], star_matrix=b.star_matrix[np.ix_(p, p)],
        counit=b.counit[p], coproduct=b.coproduct[np.ix_(p, p, p)],
        rep_images=b.rep_images[p])


def moved_entry(b, field, rng, by):
    """b with one random nonzero entry of its mult or coproduct tensor moved
    by ``by``, through the file format as a user would write it."""
    data = b.to_dict()
    entry = data[field][int(rng.integers(len(data[field])))]
    entry["re"] += by.real
    entry["im"] += by.imag
    return bialgebra_from_dict(data)


def narrowing_cases():
    rng = np.random.default_rng(32)
    cases = dict(FIXTURES)
    for name, table in GROUP_TABLES.items():
        for kind, (build, _) in BUILDERS.items():
            cases[f"{kind}({name})"] = build(table)
        cases[f"hyper({name})"] = as_hyper(cases[f"group({name})"])
    for n in range(3, 9):
        cases[f"function(max{n})"] = build_function_algebra(max_monoid(n))
    for name in list(cases):
        cases[f"{name} permuted"] = permuted(cases[name], rng)
    for theta in (0.5, 1.0, 1.5):
        cases[f"two_point({theta})"] = two_point_hypergroup(theta)
    for name, b in FIXTURES.items():
        for field in ("mult", "coproduct"):
            for by in (1e-3, -1e-3, 1e-2, -1e-2, 1e-1, -1e-1):
                cases[f"{name} {field} {by:+g}"] = moved_entry(b, field, rng, by)
    cases["skew(Alg(S3))"] = skew(FIXTURES["Alg(S3)"], 77)
    cases["skew(C(S3))"] = skew(FIXTURES["C(S3)"], 65536)
    return cases


def test_real_narrowing_matches_complex_validation():
    # validate_bialgebra runs exactly real tensors over R; a product or a sum
    # of real numbers rounds as the complex one with zero imaginary parts,
    # so every residual, tolerance and location keeps its bits
    cases = narrowing_cases()
    verdicts = {all(r.passed for r in complex_validate(b)) for b in cases.values()}
    assert verdicts == {True, False}
    bad = [name for name, b in cases.items()
           if listed(validate_bialgebra(b)) != listed(complex_validate(b))]
    assert not bad, bad


def first_failure(results):
    return next(((r.name, r.residual, r.where) for r in results if not r.passed), None)


def test_imaginary_part_alone_fails_validation():
    # +1e-3 i on one entry: a narrowing that took .real unconditionally, or
    # compared the imaginary parts with a tolerance, would pass these
    rng = np.random.default_rng(7)
    for name, b in FIXTURES.items():
        for field in ("mult", "coproduct"):
            moved = moved_entry(b, field, rng, 1e-3j)
            want = first_failure(complex_validate(moved))
            assert want is not None, (name, field)
            assert first_failure(validate_bialgebra(moved)) == want, (name, field)


# -- assert_valid stops at the first failure -----------------------------------

def assert_valid_outcome(b):
    """(axiom, residual, where) of the AxiomViolation assert_valid raises, or
    None when it returns b."""
    try:
        out = assert_valid(b)
    except AxiomViolation as exc:
        return exc.axiom, exc.residual, exc.where
    assert out is b
    return None


def early_exit_cases():
    cases = {**CASES, **narrowing_cases()}
    rng = np.random.default_rng(35)
    for name, b in FIXTURES.items():
        for field in ("mult", "coproduct"):
            cases[f"{name} {field} +1e-3i"] = moved_entry(b, field, rng, 1e-3j)
    # CASES holds two_point(theta) for theta in THETAS, 1.05, 1.5 and 2.0 among them
    return {**cases, **{f"hyper {name}": as_hyper(b) for name, b in cases.items()}}


def test_assert_valid_raises_the_first_failure():
    # assert_valid draws the checks in order and stops at the first failure:
    # that axiom, residual and location are validate_bialgebra's
    cases = early_exit_cases()
    bad, firsts, later = [], set(), 0
    for name, b in cases.items():
        results = validate_bialgebra(b)
        want = first_failure(results)
        if assert_valid_outcome(b) != want:
            bad.append(name)
        if want is not None:
            firsts.add(want[0])
            later += [r.name for r in results if not r.passed][-1] != want[0]
    assert not bad, bad
    # rejections at many places, most with more failures after the first
    assert len(firsts) >= 6 and later >= 100, (firsts, later)
    assert any(first_failure(validate_bialgebra(b)) is None for b in cases.values())


# every builder and table shape, as built and in a permuted basis
def builder_charts():
    rng = np.random.default_rng(35)
    out = {}
    for name, table in {**GROUP_TABLES, **MONOID_TABLES}.items():
        for kind, (build, _) in BUILDERS.items():
            if (kind, name) in BUILDER_CASES:
                b = build(table)
                out[f"{kind}({name})"] = b
                out[f"{kind}({name}) permuted"] = permuted(b, rng)
    return out


def is_permutation(m):
    return bool(np.isin(m, (0, 1)).all() and (m.sum(axis=0) == 1).all()
                and (m.sum(axis=1) == 1).all())


def test_chart_inverse_matches_pinv_on_builder_charts():
    # every builder's chart is square and well conditioned, so it takes the
    # LU inverse, which is the pseudo-inverse to rounding; on the identity
    # and permutation charts of the function algebras and class hypergroups
    # both are exact
    exact = 0
    for name, b in builder_charts().items():
        chart, inverse, _ = _block_chart(b.rep_images, b.rep_blocks)
        pinv = np.linalg.pinv(chart, rcond=RCOND)
        assert np.array_equal(inverse, np.linalg.inv(chart)), name
        if is_permutation(chart):
            exact += 1
            assert np.array_equal(inverse, chart.T) and np.array_equal(pinv, chart.T), name
        assert maxabs(inverse - pinv) <= 1e-12 * max(1.0, maxabs(pinv)), name
    assert exact >= 40


def chart_of_condition(rng, d, cond):
    """Images (d, d, d) with 1 x 1 blocks whose chart is a random complex
    d x d matrix of 2-norm condition number cond."""
    def unitary():
        return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    chart = unitary() @ np.diag(np.logspace(0, -np.log10(cond), d)) @ unitary()
    images = np.zeros((d, d, d), dtype=complex)
    images[:, np.arange(d), np.arange(d)] = chart
    return images


@pytest.mark.parametrize("d", [3, 8])
def test_chart_inverse_falls_back_on_its_defect(d):
    # at condition 1e8 the LU inverse misses the identity by ~1e-9 while the
    # condition bound still admits it: the defect check alone sends the
    # chart to the pseudo-inverse; at condition 10 the LU inverse is kept
    rng = np.random.default_rng(d)
    for cond, lu in ((10.0, True), (1e8, False)):
        images = chart_of_condition(rng, d, cond)
        chart, inverse, _ = _block_chart(images, (1,) * d)
        lu_inverse = np.linalg.inv(chart)
        assert d * d * maxabs(chart) * maxabs(lu_inverse) * RCOND < 1.0
        assert (maxabs(lu_inverse @ chart - np.eye(d)) <= SPECTRAL_TOL) == lu
        want = lu_inverse if lu else np.linalg.pinv(chart, rcond=RCOND)
        assert np.array_equal(inverse, want), cond


def test_repeated_block_chart_keeps_pinv():
    # blocks 1, 1, 2, 2: the chart is 6 x 10, and only the pseudo-inverse exists
    b = CASES["Alg(S3) 2-block twice"]
    chart, inverse, _ = _block_chart(b.rep_images, b.rep_blocks)
    assert chart.shape == (6, 10)
    assert np.array_equal(inverse, np.linalg.pinv(chart, rcond=RCOND))


def random_table(rng):
    """A d x d table over 0..d-1 that is often close to a monoid: random,
    a cyclic group with one entry changed, or a max-monoid with a row
    replaced; sometimes with a broken identity row or out-of-range entry."""
    d = int(rng.integers(1, 7))
    shape = rng.integers(4)
    if shape == 0:
        t = rng.integers(0, d, size=(d, d))
    elif shape == 1:
        t = cyclic_table(d)
        t[rng.integers(d), rng.integers(d)] = rng.integers(d)
    elif shape == 2:
        t = max_monoid(d)
        t[rng.integers(d)] = rng.integers(0, d, size=d)
    else:
        t = relabeled(np.asarray(s3_table()) if d > 3 else cyclic_table(d), rng)
    if rng.random() < 0.8:
        t[0] = t[:, 0] = np.arange(len(t))
    if rng.random() < 0.05:
        t[rng.integers(len(t)), rng.integers(len(t))] = len(t)
    return t


def verdict(message):
    if message is None:
        return None
    return next(w for w in ("square", "identity", "associative", "inverse") if w in message)


def test_check_table_messages_match_loops():
    rng = np.random.default_rng(20061)
    seen = set()
    for _ in range(400):
        t = random_table(rng)
        for need_group in (False, True):
            try:
                _check_table(t, need_group)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == loop_check_table(t, need_group), t
            seen.add(verdict(got))
    # every verdict occurs, so the comparison covers each message
    assert seen == {None, "square", "identity", "associative", "inverse"}


def loop_cocycle_residuals(data):
    t, u, xi, lam = data.table, data.unitaries, data.xi, data.lam
    pairs = list(itertools.product(range(data.order), repeat=2))
    return {
        "unitary": max(maxabs(ug @ dagger(ug) - np.eye(data.d_noise)) for ug in u),
        "representation": max(maxabs(u[t[g, h]] - u[g] @ u[h]) for g, h in pairs),
        "xi_cocycle": max(maxabs(xi[t[g, h]] - xi[g] - u[g] @ xi[h]) for g, h in pairs),
        "lambda_relation": max(abs(lam[t[g, h]] - lam[g] - lam[h]
                                   + np.vdot(xi[g], u[g] @ xi[h]).imag) for g, h in pairs),
    }


def loop_psi_blocks(data):
    k = data.d_noise
    out = np.zeros((data.order, 1 + k, 1 + k), dtype=complex)
    for g in range(data.order):
        xg, ug = data.xi[g], data.unitaries[g]
        out[g, 0, 0] = 1j * data.lam[g] - 0.5 * np.vdot(xg, xg).real
        out[g, 0, 1:] = -np.conjugate(xg) @ ug
        out[g, 1:, 0] = xg
        out[g, 1:, 1:] = ug - np.eye(k)
    return out


def loop_group_relation_residuals(psi, table):
    n = len(table)
    dqs = np.diag([0.0] + [1.0] * (psi.shape[1] - 1))
    inv = [next(h for h in range(n) if table[g, h] == 0) for g in range(n)]
    return {
        "multiplicative": max(maxabs(psi[table[g, h]] - psi[g] - psi[h] - psi[g] @ dqs @ psi[h])
                              for g in range(n) for h in range(n)),
        "adjoint": max(maxabs(dagger(psi[g]) - psi[inv[g]]) for g in range(n)),
        "at_identity": maxabs(psi[0]),
    }


@pytest.mark.parametrize("name", ["Z4", "S3", "D4"])
@settings(derandomize=True, deadline=None, max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1), eps=st.sampled_from([1e-6, 1e-2, 1.0]))
def test_group_residuals_match_pair_loops(name, seed, eps):
    table = GROUP_TABLES[name]
    rng = np.random.default_rng(seed)
    # a coboundary of the group's irreps, then every field moved off the
    # cocycle relations by eps
    u = build_group_algebra(table).rep_images
    d_noise = u.shape[1]

    def noise(shape):
        return eps * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    exact = coboundary_data(table, u, noise(d_noise) / eps)
    data = GroupCocycleData(table, exact.unitaries + noise(u.shape),
                            exact.xi + noise(exact.xi.shape),
                            exact.lam + noise(exact.lam.shape).real)
    size = max(1.0, maxabs(data.unitaries), maxabs(data.xi), maxabs(data.lam))
    tol = 1e-12 * (1 + d_noise) * size ** 2
    fast, slow = data.residuals(), loop_cocycle_residuals(data)
    assert fast.keys() == slow.keys()
    for key, value in slow.items():
        assert abs(fast[key] - value) <= tol, (key, fast[key], value)
    assert slow["xi_cocycle"] > 1e-3 * eps
    psi = loop_psi_blocks(data)
    assert np.allclose(psi_blocks(data), psi, rtol=0, atol=tol)
    fast = group_relation_residuals(psi, table)
    slow = loop_group_relation_residuals(psi, table)
    tol = 1e-12 * (1 + d_noise) * max(1.0, maxabs(psi)) ** 2
    assert fast.keys() == slow.keys()
    for key, value in slow.items():
        assert abs(fast[key] - value) <= tol, (key, fast[key], value)
    assert slow["multiplicative"] > 1e-3 * eps


# -- innerness systems and the Leibniz residual against per-basis loops -------
# Every innerness solve stacks the commutator system of one helper, built by
# broadcasting; the oracle is the per-basis Kronecker loop it replaced.

def kron_commutator_system(left, right):
    p, q = left.shape[-1], right.shape[-1]
    return np.concatenate([np.kron(np.eye(q), lk) - np.kron(rk.T, np.eye(p))
                           for lk, rk in zip(left, right)], axis=0)


def loop_constraint_matrix(src, chi_prime, chi):
    d = src.dim
    cp, c = chi_prime.as_vector(), chi.as_vector()
    out = np.zeros((d * d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i * d + j] = src.mult[i, j]
            out[i * d + j, i] -= c[j]
            out[i * d + j, j] -= cp[i]
    return out


def loop_leibniz(pi, delta):
    """max |delta(e_i e_j) - delta(e_i) eps(e_j) - pi(e_i) delta(e_j)| for a
    (pi, eps)-derivation into columns, one basis pair at a time."""
    src = pi.source
    dv = delta.values[:, :, 0]
    return max(maxabs(src.mult[i, j] @ dv - dv[i] * src.counit[j] - pi.values[i] @ dv[j])
               for i, j in itertools.product(range(src.dim), repeat=2))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_commutator_system_matches_kron_loop(name):
    b = FIXTURES[name]
    pi, eps = b.rep_images, counit_map(b).values
    for left, right in ((pi, pi), (pi, eps), (eps, pi)):
        assert np.array_equal(commutator_system(left, right),
                              kron_commutator_system(left, right))
    chars = [eps[:, 0, 0]] + ([OTHER_CHARACTERS[name]] if name in OTHER_CHARACTERS else [])
    for cp, c in itertools.product(chars, repeat=2):
        cp, c = functional(b, cp), functional(b, c)
        assert np.array_equal(derivation_constraint_matrix(b, cp, c),
                              loop_constraint_matrix(b, cp, c))


def test_commutator_system_random_stacks():
    rng = np.random.default_rng(0)
    for m in (1, 4, 7):
        left = rng.standard_normal((m, 3, 3)) + 1j * rng.standard_normal((m, 3, 3))
        right = rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))
        for a, b in ((left, right), (right, left)):
            assert np.array_equal(commutator_system(a, b), kron_commutator_system(a, b))


@pytest.mark.parametrize("name", ["S3", "D4", "Z6"])
def test_coboundary_system_matches_kron_loop(name):
    u = build_group_algebra(GROUP_TABLES[name]).rep_images
    ones = np.ones((len(u), 1, 1))
    assert np.array_equal(commutator_system(u, ones), kron_commutator_system(u, ones))


@pytest.mark.parametrize("name", ["Alg(S3)", "C(S3)"])
def test_leibniz_residual_negative_control(name):
    b = FIXTURES[name]
    rng = np.random.default_rng(1)
    pi = OperatorMap(b, b.rep_images)
    triple, _ = gns_construct(make_structure_map(pi, rng.standard_normal(pi.p)).lam_block())
    dv = triple.delta.values.copy()
    dv[1, :, 0] += 0.1 * (rng.standard_normal(triple.n) + 1j * rng.standard_normal(triple.n))
    bad = dataclasses.replace(triple, delta=OperatorMap(b, dv))
    for t in (triple, bad):
        res = t.residuals()["derivation"]
        assert res == check_derivation(DerivationProblem(t.pi, counit_map(b), t.delta))
        want = loop_leibniz(t.pi, t.delta)
        assert abs(res - want) <= 1e-12 * max(1.0, maxabs(dv), maxabs(t.pi.values)) ** 2
    want = loop_leibniz(bad.pi, bad.delta)
    assert want > 1e-3
    assert abs(bad.residuals()["derivation"] - want) <= 1e-12 * want
