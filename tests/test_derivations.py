import numpy as np
import pytest

from qlevy.convolution import OperatorMap, functional
from qlevy.derivations import (DerivationProblem, check_chi_structure,
                               check_derivation, derivation_constraint_matrix,
                               implement_chi_structure,
                               implemented_chi_structure, inner_derivation,
                               solve_inner, two_character_derivation_space)
from qlevy.generators import gns_construct, make_structure_map
from qlevy.linalg import maxabs

from conftest import random_generator


def rep_of(b):
    return OperatorMap(b, b.rep_images)


def test_zero_derivation(all_fixtures):
    b = all_fixtures["Alg(Z3)"]
    pi = rep_of(b)
    zero = OperatorMap(b, np.zeros((b.dim, pi.p, pi.p)))
    assert check_derivation(DerivationProblem(pi, pi, zero)) == 0.0


def test_inner_derivations_satisfy_leibniz(all_fixtures):
    rng = np.random.default_rng(0)
    for name in ("Alg(S3)", "C(S3)", "Alg(Z6)"):
        b = all_fixtures[name]
        pi = rep_of(b)
        t0 = rng.standard_normal((pi.p, pi.p)) + 1j * rng.standard_normal((pi.p, pi.p))
        problem = DerivationProblem(pi, pi, inner_derivation(pi, pi, t0))
        assert check_derivation(problem) < 1e-12


def test_random_map_is_not_a_derivation(all_fixtures):
    rng = np.random.default_rng(1)
    b = all_fixtures["C(Z4)"]
    pi = rep_of(b)
    for _ in range(10):
        vals = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        assert check_derivation(DerivationProblem(pi, pi, OperatorMap(b, vals))) > 1e-3


def test_solve_inner_recovers_residual(all_fixtures):
    rng = np.random.default_rng(2)
    b = all_fixtures["Alg(S3)"]
    pi = rep_of(b)
    for _ in range(5):
        t0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        problem = DerivationProblem(pi, pi, inner_derivation(pi, pi, t0))
        t, res = solve_inner(problem)
        assert res <= 1e-9
        # T may differ from t0 by a commutant element; the residual is the
        # assertable quantity
        assert maxabs(inner_derivation(pi, pi, t).values
                      - problem.delta.values) <= 1e-9


def test_solve_inner_mixed_representations(all_fixtures):
    rng = np.random.default_rng(3)
    b = all_fixtures["Alg(S3)"]
    full = rep_of(b)                                  # dim 4
    small = OperatorMap(b, b.rep_images[:, 2:, 2:])   # the 2-dim block
    t0 = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    problem = DerivationProblem(full, small, inner_derivation(full, small, t0))
    t, res = solve_inner(problem)
    assert res <= 1e-9


def test_solve_inner_rejects_non_derivation(all_fixtures):
    rng = np.random.default_rng(4)
    b = all_fixtures["C(Z3)"]
    pi = rep_of(b)
    vals = rng.standard_normal((3, 3, 3))
    with pytest.raises(ValueError, match="not a derivation"):
        solve_inner(DerivationProblem(pi, pi, OperatorMap(b, vals)))


def test_gns_derivation_is_inner(all_fixtures):
    # the GNS cocycle delta is a (pi, eps)-derivation into columns; the
    # solver finds the implementing vector
    rng = np.random.default_rng(5)
    b = all_fixtures["Alg(Z4)"]
    c = rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)
    phi = make_structure_map(rep_of(b), c)
    triple, _ = gns_construct(phi.lam_block())
    eps_rep = OperatorMap(b, b.counit.reshape(-1, 1, 1))
    problem = DerivationProblem(triple.pi, eps_rep, triple.delta)
    xi, res = solve_inner(problem)
    assert res <= 1e-9
    nu = triple.pi.values - b.counit[:, None, None] * np.eye(triple.n)
    assert maxabs(np.einsum("kab,b->ka", nu, xi[:, 0])
                  - triple.delta.values[:, :, 0]) <= 1e-9


def test_two_character_space_is_exactly_the_inner_line(all_fixtures):
    # the Leibniz nullspace for distinct characters is spanned by chi' - chi
    # (a genuine nonzero derivation); modulo inner derivations it vanishes,
    # and for equal characters it is exactly {0}
    for name in ("C(Z2)", "C(Z3)", "C(Z4)", "C(Z6)", "C(S3)"):
        b = all_fixtures[name]
        evs = [functional(b, np.eye(b.dim)[i]) for i in range(min(b.dim, 3))]
        for i, chi_p in enumerate(evs):
            for j, chi in enumerate(evs):
                total, non_inner = two_character_derivation_space(b, chi_p, chi)
                assert non_inner == 0
                assert total == (0 if i == j else 1)


def test_two_character_counterexample_by_hand(all_fixtures):
    # delta = ev0 - ev1 on two points: delta(FG) = F(0)G(0) - F(1)G(1)
    #   = delta(F) G(1) + F(0) delta(G), so it is a nonzero derivation, and
    # it is inner for T = 1 (the innerness theorem, quantitatively)
    b = all_fixtures["C(Z2)"]
    ev0 = functional(b, np.eye(2)[0])
    ev1 = functional(b, np.eye(2)[1])
    delta = OperatorMap(b, (np.eye(2)[0] - np.eye(2)[1]).reshape(2, 1, 1))
    problem = DerivationProblem(ev0, ev1, delta)
    assert check_derivation(problem) == 0.0
    t, res = solve_inner(problem)
    assert res <= 1e-12
    assert abs(t[0, 0] - 1.0) < 1e-12


def test_constraint_matrix_shape(all_fixtures):
    b = all_fixtures["C(Z3)"]
    ev0 = functional(b, np.eye(3)[0])
    ev1 = functional(b, np.eye(3)[1])
    amat = derivation_constraint_matrix(b, ev0, ev1)
    assert amat.shape == (9, 3)
    # chi' - chi solves the system
    sol = ev0.as_vector() - ev1.as_vector()
    assert maxabs(amat @ sol) < 1e-14


# -- chi-structure maps -----------------------------------------------------------

def test_chi_structure_round_trip(all_fixtures):
    rng = np.random.default_rng(6)
    for name in ("C(S3)", "Alg(Z6)"):
        b = all_fixtures[name]
        pi = rep_of(b)
        chi = functional(b, b.counit)
        xi0 = rng.standard_normal(pi.p) + 1j * rng.standard_normal(pi.p)
        phi = implemented_chi_structure(pi, chi, xi0)
        assert check_chi_structure(phi, chi) <= 1e-12
        pi2, xi2, lam2, res = implement_chi_structure(phi, chi)
        assert res["reassembly"] <= 1e-10
        assert maxabs(pi2.values - pi.values) <= 1e-12


def test_chi_structure_with_noncounit_character(all_fixtures):
    # evaluation at a group point is a character of C(S3) distinct from the
    # counit; the chi-structure machinery works verbatim
    rng = np.random.default_rng(7)
    b = all_fixtures["C(S3)"]
    chi = functional(b, np.eye(6)[2])
    pi = rep_of(b)
    xi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    phi = implemented_chi_structure(pi, chi, xi0)
    assert check_chi_structure(phi, chi) <= 1e-12
    _, _, _, res = implement_chi_structure(phi, chi)
    assert res["reassembly"] <= 1e-10


def test_zero_map_is_chi_structure(all_fixtures):
    b = all_fixtures["C(Z4)"]
    chi = functional(b, b.counit)
    phi = OperatorMap(b, np.zeros((4, 3, 3)))
    assert check_chi_structure(phi, chi) == 0.0
    pi, xi, lam, res = implement_chi_structure(phi, chi)
    assert maxabs(xi) < 1e-12
    # pi = chi . I
    want = b.counit[:, None, None] * np.eye(2)
    assert maxabs(pi.values - want) < 1e-14


def test_chi_structure_rejects_random_map(all_fixtures):
    rng = np.random.default_rng(9)
    b = all_fixtures["C(Z3)"]
    chi = functional(b, b.counit)
    phi = random_generator(rng, b, 1, scale=1.0)
    assert check_chi_structure(phi, chi) > 1e-3
    with pytest.raises(ValueError, match="not a chi-structure"):
        implement_chi_structure(phi, chi)


def test_chi_must_be_character(all_fixtures):
    rng = np.random.default_rng(10)
    b = all_fixtures["C(Z3)"]
    bad = functional(b, rng.standard_normal(3))
    phi = OperatorMap(b, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="character"):
        check_chi_structure(phi, bad)
