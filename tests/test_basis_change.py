"""Transport a fixture through a random complex change of basis and re-check
everything.  All structure tensors (star matrix, counit, coproduct) become
genuinely complex, so this exercises the conjugation bookkeeping that the
bundled fixtures (real permutation star matrices) cannot see."""

import dataclasses

import numpy as np
import pytest

from qlevy.algebra import AxiomViolation, Bialgebra, assert_valid, validate_bialgebra
from qlevy.cocycle import check_cocycle_identity
from qlevy.convolution import OperatorMap, convolve, e_map, lifted_compose, r_map
from qlevy.fixtures import bundled_fixtures
from qlevy.generators import check_structure_map, gns_construct, make_structure_map
from qlevy.linalg import maxabs

from conftest import random_generator, random_operator_map, random_step


def change_basis(b, t):
    tinv = np.linalg.inv(t)
    mult = np.einsum("ia,jb,ijk,ck->abc", t, t, b.mult, tinv)
    coproduct = np.einsum("ka,kij,pi,qj->apq", t, b.coproduct, tinv, tinv)
    return Bialgebra(
        dim=b.dim, basis_labels=tuple(f"f{i}" for i in range(b.dim)),
        unit=tinv @ b.unit, mult=mult,
        star_matrix=tinv @ b.star_matrix @ np.conjugate(t),
        counit=t.T @ b.counit, coproduct=coproduct,
        rep_blocks=b.rep_blocks,
        rep_images=np.einsum("ia,iuv->auv", t, b.rep_images), kind=b.kind)


def skew(b, seed):
    """b through a random complex change of basis, validated."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((b.dim, b.dim)) + 1j * rng.standard_normal((b.dim, b.dim))
    t += 3.0 * np.eye(b.dim)  # keep it well conditioned
    b = change_basis(b, t)
    for r in validate_bialgebra(b, 1e-10):
        if not r.passed:
            raise AxiomViolation(r.name, r.residual, r.where)
    return b


def conditioned_change(b, seed):
    """b through a random complex change of basis U diag(s) W, U and W
    unitary and s in [0.5, 2], so of condition number at most 4."""
    rng = np.random.default_rng(seed)
    u, w = (np.linalg.qr(rng.standard_normal((b.dim, b.dim))
                         + 1j * rng.standard_normal((b.dim, b.dim)))[0] for _ in range(2))
    return change_basis(b, u * rng.uniform(0.5, 2.0, b.dim) @ w)


def test_validation_tolerance_scales_with_entry_size():
    # C(S3) in this basis has coproduct entries up to ~430, so rounding in the
    # coassociativity and multiplicativity products passes 1e-10; each
    # structural tolerance scales with the entries its identity multiplies
    b = skew(bundled_fixtures()["C(S3)"], 65536)
    results = {r.name: r for r in validate_bialgebra(b)}
    assert all(r.passed for r in results.values())
    coassociativity = results["OSC1-coassociativity"]
    assert coassociativity.residual > 1e-10
    assert coassociativity.tol == 1e-12 * maxabs(b.coproduct) ** 2
    cop = b.coproduct.copy()
    cop[1, 2, 3] += 1e-3
    with pytest.raises(AxiomViolation, match="OSC1-coassociativity"):
        assert_valid(dataclasses.replace(b, coproduct=cop))


@pytest.fixture(scope="module")
def skewed():
    return skew(bundled_fixtures()["Alg(S3)"], 77)


def test_skewed_axioms(skewed):
    assert maxabs(np.abs(skewed.star_matrix.imag)) > 1e-3
    assert maxabs(np.abs(skewed.counit.imag)) > 1e-3


def test_skewed_r_e_identities(skewed):
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = random_operator_map(rng, skewed, 2)
        psi = random_operator_map(rng, skewed, 2)
        assert maxabs(e_map(r_map(phi)).values - phi.values) < 1e-10
        assert maxabs(r_map(convolve(phi, psi)).data
                      - lifted_compose(r_map(phi), r_map(psi)).data) < 1e-10
        assert maxabs(r_map(phi.conjugate_map()).data
                      - r_map(phi).conjugate_map().data) < 1e-10


def test_skewed_cocycle_identity(skewed):
    rng = np.random.default_rng(2)
    for _ in range(10):
        phi = random_generator(rng, skewed, 2)
        s, t = rng.uniform(0.1, 0.8, size=2)
        f = random_step(rng, 2, s + t)
        fp = random_step(rng, 2, s + t)
        assert check_cocycle_identity(phi, s, t, f, fp) < 1e-9


def test_skewed_structure_map_and_gns(skewed):
    rng = np.random.default_rng(3)
    pi = OperatorMap(skewed, skewed.rep_images)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = make_structure_map(pi, c)
    assert max(check_structure_map(phi).values()) < 1e-10
    triple, phi2 = gns_construct(phi.lam_block())
    assert triple.max_residual() < 1e-8
    assert max(check_structure_map(phi2).values()) < 1e-8
