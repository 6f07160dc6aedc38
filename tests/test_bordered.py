"""The one writer of the C + k block form against the writers it replaced:
each generator value, phi(1), Delta_QS and D_h was a zero matrix filled
block by block, and the GNS chart was phased one column at a time."""

from dataclasses import fields

import numpy as np
import pytest

from qlevy.algebra import build_function_algebra, build_group_algebra
from qlevy.cocycle import as_generator, delta_qs, toy_fock_step_map
from qlevy.convolution import OperatorMap, counit_map, functional
from qlevy.fixtures import bundled_fixtures, cyclic_table, s3_table
from qlevy.generators import (SchurmannTriple, canonical_phi1, gns_construct,
                              implemented_chi_structure, is_character, kernel_gram,
                              make_structure_map)
from qlevy.harness import coboundary_data, psi_blocks, random_generator
from qlevy.linalg import RCOND, SPECTRAL_TOL, bordered, dagger, rank_of

from test_basis_change import change_basis


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- the replaced writers -------------------------------------------------------

def ref_implemented_chi_structure(pi, chi, xi):
    src = pi.source
    n = pi.p
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    b = pi.values - chi.as_vector()[:, None, None] * np.eye(n)[None, :, :]
    vals = np.zeros((src.dim, 1 + n, 1 + n), dtype=complex)
    vals[:, 0, 0] = np.einsum("a,kab,b->k", np.conjugate(xi), b, xi)
    vals[:, 0, 1:] = np.einsum("a,kab->kb", np.conjugate(xi), b)
    vals[:, 1:, 0] = np.einsum("kab,b->ka", b, xi)
    vals[:, 1:, 1:] = b
    return vals


def ref_gns_construct(gamma):
    """(pi, delta, n, phi) of the GNS chart with its per-column phase loop."""
    src = gamma.source
    gv = gamma.as_vector()
    gram, kb = kernel_gram(gamma)
    gram = 0.5 * (gram + dagger(gram))
    vals, vecs = np.linalg.eigh(gram)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rank = rank_of(vals)
    vecs = vecs[:, :rank].copy()
    for r in range(rank):
        col = vecs[:, r]
        first = np.nonzero(np.abs(col) > 1e-8)[0][0]
        vecs[:, r] = col * np.exp(-1j * np.angle(col[first]))
    roots = np.sqrt(vals[:rank])
    chart = roots[:, None] * dagger(vecs)
    chart_inv = vecs / roots[None, :]
    kb_pinv = np.linalg.pinv(kb, rcond=RCOND)
    pi_vals = chart @ (kb_pinv @ (src.mult.transpose(0, 2, 1) @ kb)) @ chart_inv
    proj = np.eye(src.dim, dtype=complex) - np.outer(src.unit, src.counit)
    delta = OperatorMap(src, (chart @ kb_pinv @ proj).T[:, :, None])
    vals_phi = np.zeros((src.dim, 1 + rank, 1 + rank), dtype=complex)
    vals_phi[:, 0, 0] = gv
    vals_phi[:, 1:, 0] = delta.values[:, :, 0]
    vals_phi[:, 0, 1:] = delta.conjugate_map().values[:, 0, :]
    vals_phi[:, 1:, 1:] = pi_vals - src.counit[:, None, None] * np.eye(rank)
    return pi_vals, delta.values, rank, vals_phi


def ref_psi_blocks(data):
    xi, u = data.xi, data.unitaries
    k = data.d_noise
    out = np.zeros((data.order, 1 + k, 1 + k), dtype=complex)
    row = xi.conj()[:, None, :]
    out[:, 0, 0] = 1j * data.lam - 0.5 * (row @ xi[:, :, None])[:, 0, 0].real
    out[:, 0, 1:] = (-row @ u)[:, 0]
    out[:, 1:, 0] = xi
    out[:, 1:, 1:] = u - np.eye(k)
    return out


def ref_canonical_phi1(big_d, e=None, t=None):
    big_d = np.asarray(big_d, dtype=complex)
    k = big_d.shape[1]
    c = np.eye(k) - dagger(big_d) @ big_d
    c = 0.5 * (c + dagger(c))
    if e is None:
        e = np.zeros(k, dtype=complex)
    e = np.asarray(e, dtype=complex).reshape(-1)
    vals, vecs = np.linalg.eigh(c)
    vals = np.clip(vals, 0.0, None)
    chalf = vecs @ np.diag(np.sqrt(vals)) @ dagger(vecs)
    e = chalf @ chalf @ np.linalg.pinv(c, rcond=RCOND) @ e
    col = chalf @ e
    tmax = -float(np.vdot(e, e).real)
    t = tmax if t is None else min(float(t), tmax)
    out = np.zeros((1 + k, 1 + k), dtype=complex)
    out[0, 0] = t
    out[0, 1:] = np.conjugate(col)
    out[1:, 0] = col
    out[1:, 1:] = -c
    return out


def ref_delta_qs(p):
    dqs = np.eye(p, dtype=complex)
    dqs[0, 0] = 0.0
    return dqs


def ref_toy_fock_step_map(phi, h):
    phi = as_generator(phi)
    dh = np.eye(phi.p, dtype=complex)
    dh[0, 0] = np.sqrt(h)
    return phi.source.counit[:, None, None] * np.eye(phi.p)[None, :, :] \
        + dh @ phi.values @ dh


# -- the one writer ---------------------------------------------------------------

def test_bordered_places_each_block():
    rng = np.random.default_rng(0)
    corner, row, column = complex_normal(rng, 5), complex_normal(rng, 5, 3), \
        complex_normal(rng, 5, 3)
    body = complex_normal(rng, 5, 3, 3)
    out = bordered(corner, row, column, body)
    assert out.shape == (5, 4, 4) and out.dtype == complex
    assert np.array_equal(out[:, 0, 0], corner)
    assert np.array_equal(out[:, 0, 1:], row)
    assert np.array_equal(out[:, 1:, 0], column)
    assert np.array_equal(out[:, 1:, 1:], body)
    assert np.array_equal(bordered(2.0, 0.0, 0.0, np.zeros((0, 0))), [[2.0]])


@pytest.mark.parametrize("name", ["C(Z4)", "C(S3)", "Alg(Z4)", "Alg(Z6)"])
def test_implemented_chi_structure(name):
    b = bundled_fixtures()[name]
    rng = np.random.default_rng(1)
    pi = OperatorMap(b, b.rep_images)
    point = functional(b, b.rep_images[:, 1, 1])
    assert is_character(point) and not np.array_equal(point.as_vector(), b.counit)
    for chi in (counit_map(b), point):
        for _ in range(3):
            xi = complex_normal(rng, pi.p)
            assert np.array_equal(implemented_chi_structure(pi, chi, xi).values,
                                  ref_implemented_chi_structure(pi, chi, xi))


@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
def test_gns_construct(name):
    b = bundled_fixtures()[name]
    rng = np.random.default_rng(2)
    pi = OperatorMap(b, b.rep_images)
    for c in (np.zeros(pi.p), complex_normal(rng, pi.p), complex_normal(rng, pi.p)):
        gamma = make_structure_map(pi, c).lam_block()
        triple, phi = gns_construct(gamma)
        pi_ref, delta_ref, n_ref, phi_ref = ref_gns_construct(gamma)
        assert np.array_equal(triple.pi.values, pi_ref)
        assert np.array_equal(triple.delta.values, delta_ref)
        assert triple.n == n_ref == phi.d_noise
        assert np.array_equal(phi.values, phi_ref)


def test_gns_construct_phases_the_first_sizable_entry():
    """C(Z4) with e2, e3 rotated into each other: the Gram matrix is
    0.1 (+) a dense block, so the two leading eigenvectors are 0 in their
    first entry and take their phase from the second."""
    t = np.eye(4, dtype=complex)
    t[2:, 2:] = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    b = change_basis(bundled_fixtures()["C(Z4)"], t)
    gamma = functional(b, t.T @ np.array([-1.2, 0.1, 0.7, 0.4]))
    vecs = np.linalg.eigh(kernel_gram(gamma)[0])[1][:, ::-1]
    assert np.abs(vecs[0, :2]).max() <= 1e-8 < np.abs(vecs[0, 2])
    triple, phi = gns_construct(gamma)
    pi_ref, delta_ref, n_ref, phi_ref = ref_gns_construct(gamma)
    assert triple.n == n_ref == 3
    assert np.array_equal(triple.pi.values, pi_ref)
    assert np.array_equal(triple.delta.values, delta_ref)
    assert np.array_equal(phi.values, phi_ref)


def test_gns_construct_on_the_one_dimensional_algebra():
    """Ker eps is 0, so the chart has no rows and no columns to phase."""
    for build in (build_function_algebra, build_group_algebra):
        src = build(cyclic_table(1))
        triple, phi = gns_construct(functional(src, np.zeros(1)))
        assert triple.n == 0 and np.array_equal(phi.values, np.zeros((1, 1, 1)))


def rotated_regular_data(table, rng):
    """Coboundary data of the left-regular representation conjugated by a
    random unitary, so every block is dense and complex."""
    n = len(table)
    u = (np.arange(n)[None, :, None] == table[:, None, :]).astype(complex)
    v, _ = np.linalg.qr(complex_normal(rng, n, n))
    return coboundary_data(table, v @ u @ dagger(v), complex_normal(rng, n))


@pytest.mark.parametrize("table", [cyclic_table(4), s3_table(), cyclic_table(6)],
                         ids=["Z4", "S3", "Z6"])
def test_psi_blocks(table):
    rng = np.random.default_rng(3)
    for _ in range(3):
        data = rotated_regular_data(table, rng)
        assert np.array_equal(psi_blocks(data), ref_psi_blocks(data))


@pytest.mark.parametrize("shape", [(3, 2), (4, 3), (2, 1)])
def test_canonical_phi1(shape):
    rng = np.random.default_rng(4)
    d = complex_normal(rng, *shape)
    d = 0.8 * d / np.linalg.norm(d, 2)
    e = complex_normal(rng, shape[1])
    tmax = canonical_phi1(d, e)[0, 0].real
    for args in ((), (e,), (e, tmax - 0.5), (e, tmax + 0.5), (None, -1.0)):
        assert np.array_equal(canonical_phi1(d, *args), ref_canonical_phi1(d, *args))


@pytest.mark.parametrize("p", range(1, 7))
def test_delta_qs(p):
    assert np.array_equal(delta_qs(p), ref_delta_qs(p))


@pytest.mark.parametrize("d_noise", range(4))
def test_toy_fock_step_map(d_noise):
    rng = np.random.default_rng(5)
    for b in (bundled_fixtures()["C(S3)"], bundled_fixtures()["Alg(S3)"]):
        phi = random_generator(rng, b, d_noise)
        for h in (1e-3, 0.05, 0.5):
            assert np.array_equal(toy_fock_step_map(phi, h).values,
                                  ref_toy_fock_step_map(phi, h))


def test_schurmann_triple_size_is_pis():
    b = bundled_fixtures()["Alg(S3)"]
    gamma = make_structure_map(OperatorMap(b, b.rep_images), [0.2, -0.1, 0.4, 0.3]).lam_block()
    triple, _ = gns_construct(gamma)
    assert [f.name for f in fields(SchurmannTriple)] == ["pi", "delta", "lam"]
    assert triple.n == triple.pi.p == 3
    assert triple.max_residual() <= SPECTRAL_TOL
