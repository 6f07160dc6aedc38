import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.cocycle import Generator
from qlevy.convolution import ConvolutionSemigroup, OperatorMap, functional
from qlevy.fixtures import bundled_fixtures, cyclic_table
from qlevy.generators import (CPQuadruple, NoIntertwiner,
                              NotConditionallyPositive, canonical_phi1,
                              check_conditionally_positive, check_cp_form,
                              check_minimality, check_phi1,
                              check_structure_map, gns_construct,
                              intertwine_minimal, make_cp_generator,
                              make_structure_map)
from qlevy.linalg import (RCOND, commutator_system, dagger, maxabs, min_eig_herm,
                          opnorm)

from conftest import random_generator
from test_basis_change import conditioned_change


def rep_of(b):
    return OperatorMap(b, b.rep_images)


def trivial_rep(b):
    return OperatorMap(b, b.counit.reshape(-1, 1, 1))


def random_unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))[0]


def random_quadruple(rng, b, k_extra=0, d_noise=2, isometric=False):
    rho0 = rep_of(b)
    k = rho0.p
    rho = rho0
    big_d = rng.standard_normal((k, d_noise)) + 1j * rng.standard_normal((k, d_noise))
    if isometric:
        big_d = np.linalg.qr(big_d)[0][:, :d_noise]
        phi1 = np.zeros((1 + d_noise, 1 + d_noise), dtype=complex)
    else:
        big_d *= 0.9 / opnorm(big_d)
        e = rng.standard_normal(d_noise)
        phi1 = canonical_phi1(big_d, e=e, t=-float(e @ e) - 0.3)
    xi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return CPQuadruple(rho, big_d, xi, phi1)


# -- structure maps ------------------------------------------------------------

def test_trivial_representation_gives_zero_map(all_fixtures):
    b = all_fixtures["C(Z4)"]
    phi = make_structure_map(trivial_rep(b), np.array([0.7 + 0.2j]))
    assert maxabs(phi.values) < 1e-14


def test_structure_map_satisfies_group_relations(all_fixtures):
    # character of Z2 with c = 1: psi_g = phi(L_g) satisfies the additive
    # increment relation psi_gh = psi_g + psi_h + psi_g P psi_h
    b = all_fixtures["Alg(Z2)"]
    chi = OperatorMap(b, np.array([1.0, -1.0]).reshape(2, 1, 1))
    phi = make_structure_map(chi, np.array([1.0]))
    psi = phi.values
    p = np.diag([0.0, 1.0])
    table = cyclic_table(2)
    for g in range(2):
        for h in range(2):
            lhs = psi[table[g, h]]
            rhs = psi[g] + psi[h] + psi[g] @ p @ psi[h]
            assert maxabs(lhs - rhs) < 1e-12


def test_structure_map_round_trip(all_fixtures):
    rng = np.random.default_rng(0)
    for name in ("C(S3)", "Alg(S3)", "Alg(Z6)"):
        b = all_fixtures[name]
        c = rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)
        phi = make_structure_map(rep_of(b), c)
        res = check_structure_map(phi)
        assert max(res.values()) <= 1e-12


def test_zero_generator_passes(all_fixtures):
    b = all_fixtures["C(Z2)"]
    phi = Generator(b, np.zeros((2, 2, 2)))
    assert max(check_structure_map(phi).values()) == 0.0


def test_random_map_fails_structure_relation(all_fixtures):
    rng = np.random.default_rng(1)
    b = all_fixtures["C(Z3)"]
    for _ in range(10):
        phi = random_generator(rng, b, 1, scale=1.0)
        assert check_structure_map(phi)["relation"] > 1e-3


def test_structure_map_dimension_check(all_fixtures):
    b = all_fixtures["C(Z2)"]
    with pytest.raises(ValueError, match="does not match"):
        make_structure_map(rep_of(b), np.zeros(5))


def test_make_structure_map_validates_representation(all_fixtures):
    b = all_fixtures["C(Z3)"]
    rng = np.random.default_rng(2)
    bad = OperatorMap(b, rng.standard_normal((3, 2, 2)))
    with pytest.raises(ValueError, match="representation"):
        make_structure_map(bad, np.zeros(2))


# -- CP forms ----------------------------------------------------------------------

def test_degenerate_quadruple(all_fixtures):
    b = all_fixtures["C(Z2)"]
    phi1 = np.diag([0.0, -1.0, -1.0]).astype(complex)
    q = CPQuadruple(trivial_rep(b), np.zeros((1, 2)), np.zeros(1), phi1)
    phi = make_cp_generator(q)
    want = b.counit[:, None, None] * phi1[None, :, :]
    assert maxabs(phi.values - want) < 1e-14


def test_cp_generator_round_trip(all_fixtures):
    rng = np.random.default_rng(3)
    b = all_fixtures["Alg(S3)"]
    q = random_quadruple(rng, b)
    phi = make_cp_generator(q)
    res = check_cp_form(phi, q)
    assert res["decomposition"] <= 1e-12
    assert res["cp_split"] <= 1e-12
    assert check_phi1(phi, q)["ok"]


def test_unital_quadruple_gives_unital_cocycle(all_fixtures):
    rng = np.random.default_rng(4)
    b = all_fixtures["Alg(Z4)"]
    q = random_quadruple(rng, b, isometric=True)
    phi = make_cp_generator(q)
    assert maxabs(np.einsum("k,kab->ab", b.unit, phi.values)) < 1e-12
    sg = ConvolutionSemigroup(phi.lam_block())
    for t in (0.3, 1.0):
        assert abs(complex(sg.at(t).as_vector() @ b.unit) - 1.0) < 1e-10


def test_cp_markov_states(all_fixtures):
    rng = np.random.default_rng(5)
    for name in ("C(S3)", "Alg(Z6)"):
        b = all_fixtures[name]
        q = random_quadruple(rng, b)
        phi = make_cp_generator(q)
        sg = ConvolutionSemigroup(phi.lam_block())
        star = b.star_matrix
        for t in (0.1, 0.5, 1.0):
            lam = sg.at(t).as_vector()
            gram = np.einsum("mi,mjk,k->ij", star, b.mult, lam)
            assert min_eig_herm(gram) >= -1e-9
            assert complex(lam @ b.unit).real <= 1.0 + 1e-10


def test_phi1_perturbation_detected(all_fixtures):
    rng = np.random.default_rng(6)
    b = all_fixtures["C(Z4)"]
    q = random_quadruple(rng, b)
    phi = make_cp_generator(q)
    vals = phi.values.copy()
    vals[:, 0, 0] += 0.5 * b.counit  # push phi(1) corner upward
    assert not check_phi1(Generator(b, vals))["nonpositive"] <= 1e-10


def test_quadruple_invariant_rejection(all_fixtures):
    rng = np.random.default_rng(7)
    b = all_fixtures["C(Z2)"]
    big_d = np.array([[1.7], [0.0]])
    with pytest.raises(ValueError, match="invalid CP quadruple"):
        CPQuadruple(rep_of(b), big_d, np.zeros(2),
                    canonical_phi1(np.array([[0.5], [0.0]]))).validate()


# -- GNS --------------------------------------------------------------------------

def test_gns_zero_functional(all_fixtures):
    b = all_fixtures["C(Z3)"]
    triple, phi = gns_construct(functional(b, np.zeros(3)))
    assert triple.n == 0
    assert phi.values.shape == (3, 1, 1)
    assert maxabs(phi.values) == 0.0


def test_gns_two_state_hand_oracle(all_fixtures):
    # C(Z2), gamma = r(ev_g - ev_e): kernel basis {delta_g}, Gram [r],
    # pi = evaluation at g, delta = sqrt(r)-scaled coordinates
    b = all_fixtures["C(Z2)"]
    r = 0.9
    gamma = functional(b, r * np.array([-1.0, 1.0]))
    ok, margin = check_conditionally_positive(gamma)
    assert ok and abs(margin - r) < 1e-14
    triple, phi = gns_construct(gamma)
    assert triple.n == 1
    assert maxabs(triple.pi.values[:, 0, 0] - np.array([0.0, 1.0])) < 1e-12
    want_delta = np.sqrt(r) * np.array([-1.0, 1.0])
    assert maxabs(triple.delta.values[:, 0, 0] - want_delta) < 1e-12
    assert triple.max_residual() < 1e-12


def test_gns_reconstructs_structure_corner(all_fixtures):
    rng = np.random.default_rng(8)
    for name in ("Alg(S3)", "C(S3)", "Alg(Z4)"):
        b = all_fixtures[name]
        c = rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)
        phi = make_structure_map(rep_of(b), c)
        gamma = phi.lam_block()
        ok, _ = check_conditionally_positive(gamma)
        assert ok  # corners of structure maps are delta*delta-induced on Ker eps
        triple, phi2 = gns_construct(gamma)
        assert triple.max_residual() <= 1e-9
        assert max(check_structure_map(phi2).values()) <= 1e-9
        # corner functional is reproduced exactly
        assert maxabs(phi2.values[:, 0, 0] - gamma.as_vector()) < 1e-12
        # equal vacuum semigroups on [0, 2]
        sg1 = ConvolutionSemigroup(gamma)
        sg2 = ConvolutionSemigroup(phi2.lam_block())
        for t in np.linspace(0.0, 2.0, 9):
            assert maxabs(sg1.at(t).as_vector() - sg2.at(t).as_vector()) <= 1e-9


def test_gns_rejects_non_real(all_fixtures):
    b = all_fixtures["C(Z2)"]
    with pytest.raises(ValueError, match="not real"):
        gns_construct(functional(b, np.array([0.0, 1j])))


def test_gns_rejects_nonvanishing_at_one(all_fixtures):
    b = all_fixtures["C(Z2)"]
    with pytest.raises(ValueError, match="vanish at 1"):
        gns_construct(functional(b, np.array([0.5, 0.5])))


def test_gns_rejects_non_conditionally_positive(all_fixtures):
    b = all_fixtures["C(Z2)"]
    gamma = functional(b, -0.9 * np.array([-1.0, 1.0]))
    ok, margin = check_conditionally_positive(gamma)
    assert not ok and margin < -0.5
    with pytest.raises(NotConditionallyPositive):
        gns_construct(gamma)


def test_compound_poisson_generator_conditionally_positive(all_fixtures):
    rng = np.random.default_rng(9)
    for name in ("C(Z6)", "C(S3)"):
        b = all_fixtures[name]
        mu = rng.uniform(0.0, 1.0, size=b.dim)
        mu /= mu.sum()
        gamma = functional(b, 2.0 * (mu - b.counit))
        ok, margin = check_conditionally_positive(gamma)
        assert ok and margin >= -1e-12


def test_negated_structure_corner_not_conditionally_positive(all_fixtures):
    rng = np.random.default_rng(10)
    b = all_fixtures["Alg(S3)"]
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = make_structure_map(rep_of(b), c)
    gamma = functional(b, -phi.lam_block().as_vector())
    ok, _ = check_conditionally_positive(gamma)
    assert not ok


# -- minimality and intertwiners ------------------------------------------------------

def padded(q):
    """q on a space padded with a dead two-dimensional block: not minimal."""
    b, k = q.rho.source, q.space_dim
    rho_pad = np.zeros((b.dim, k + 2, k + 2), dtype=complex)
    rho_pad[:, :k, :k] = q.rho.values
    rho_pad[:, k:, k:] = b.counit[:, None, None] * np.eye(2)
    return CPQuadruple(OperatorMap(b, rho_pad),
                       np.concatenate([q.big_d, np.zeros((2, q.d_noise))]),
                       np.concatenate([q.xi, np.zeros(2)]), q.phi1)


def lstsq_intertwiner(q1, q2):
    """The reference for intertwine_minimal's V = S2 S1^+: V W1 = W2 and
    rho2(a) V = V rho1(a) solved as one least-squares problem over vec(V),
    O(d K^6); its residual has the entries of the one reported."""
    k1, k2 = q1.space_dim, q2.space_dim
    amat = np.concatenate([np.kron(q1.w.T, np.eye(k2)),
                           commutator_system(q2.rho.values, q1.rho.values)])
    bvec = np.concatenate([q2.w.reshape(-1, order="F"),
                           np.zeros(q1.rho.source.dim * k2 * k1, dtype=complex)])
    v = np.linalg.lstsq(amat, bvec, rcond=RCOND)[0].reshape(k2, k1, order="F")
    return v, maxabs(amat @ v.reshape(-1, order="F") - bvec)


def rotated(q, u):
    """The quadruple q carried to another basis by the unitary u."""
    rho = OperatorMap(q.rho.source, u[None, :, :] @ q.rho.values @ dagger(u)[None, :, :])
    return CPQuadruple(rho, u @ q.big_d, u @ q.xi, q.phi1)


def test_minimality_detection(all_fixtures):
    rng = np.random.default_rng(11)
    b = all_fixtures["Alg(Z4)"]
    q = random_quadruple(rng, b)
    assert check_minimality(q)
    assert not check_minimality(padded(q))


def test_intertwiner_recovers_unitary(all_fixtures):
    rng = np.random.default_rng(12)
    b = all_fixtures["Alg(S3)"]
    q1 = random_quadruple(rng, b)
    u = random_unitary(rng, q1.space_dim)
    v, info = intertwine_minimal(q1, rotated(q1, u))
    assert info["residual"] <= 1e-9
    assert info["isometry_defect"] <= 1e-10
    assert maxabs(v - u) < 1e-9


def test_intertwiner_missing(all_fixtures):
    # unrelated data: the reported residual, that of S2 S1^+, is no smaller
    # than the least-squares best
    rng = np.random.default_rng(13)
    for name in ("Alg(Z4)", "C(Z3)", "C(S3)", "Alg(S3)"):
        q1, q2 = (random_quadruple(rng, all_fixtures[name]) for _ in range(2))
        with pytest.raises(NoIntertwiner) as err:
            intertwine_minimal(q1, q2)
        assert err.value.residual >= lstsq_intertwiner(q1, q2)[1]


def assert_matches_lstsq(q1, u):
    q2 = rotated(q1, u)
    v, info = intertwine_minimal(q1, q2)
    v_ref, residual_ref = lstsq_intertwiner(q1, q2)
    assert maxabs(v - v_ref) <= 1e-12
    assert abs(info["residual"] - residual_ref) <= 1e-13
    assert maxabs(v - u) <= 1e-12


@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
def test_intertwiner_matches_lstsq(all_fixtures, name):
    rng = np.random.default_rng(14)
    for _ in range(3):
        q1 = random_quadruple(rng, all_fixtures[name])
        assert_matches_lstsq(q1, random_unitary(rng, q1.space_dim))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.sampled_from(sorted(bundled_fixtures())), st.integers(0, 2 ** 16))
def test_intertwiner_matches_lstsq_after_a_basis_change(name, seed):
    rng = np.random.default_rng(seed)
    q1 = random_quadruple(rng, conditioned_change(bundled_fixtures()[name], seed))
    assert_matches_lstsq(q1, random_unitary(rng, q1.space_dim))


def test_intertwiner_rejects_a_non_minimal_quadruple(all_fixtures):
    rng = np.random.default_rng(15)
    q = padded(random_quadruple(rng, all_fixtures["Alg(Z4)"]))
    with pytest.raises(ValueError, match="minimal"):
        intertwine_minimal(q, rotated(q, random_unitary(rng, q.space_dim)))

