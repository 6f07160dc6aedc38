"""The one innerness solve and the one rank cut against the forms they
replaced: each commutation equation was a stacked least-squares problem with
its own residual, and each rank decision its own inline cut."""

import numpy as np
import pytest

from qlevy.convolution import OperatorMap, functional
from qlevy.derivations import (DerivationProblem, implement_chi_structure,
                               implemented_chi_structure, inner_derivation,
                               solve_inner)
from qlevy.fixtures import bundled_fixtures, cyclic_table, d4_table, s3_table
from qlevy.harness import coboundary_data, solve_coboundary
from qlevy.linalg import (RCOND, SPECTRAL_TOL, commutator_system, maxabs, null_space,
                          rank_of)

EPS = np.finfo(float).eps


def stacked_lstsq(left, right, vec):
    return np.linalg.lstsq(commutator_system(left, right), vec, rcond=RCOND)[0]


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
def test_solve_inner_is_the_stacked_lstsq(name):
    b = bundled_fixtures()[name]
    rng = np.random.default_rng(1)
    rep = OperatorMap(b, b.rep_images)
    counit = functional(b, b.counit)
    for pi_prime, pi in ((rep, rep), (rep, counit), (counit, rep)):
        delta = inner_derivation(pi_prime, pi, complex_normal(rng, pi_prime.p, pi.p))
        t, residual = solve_inner(DerivationProblem(pi_prime, pi, delta))
        vec = delta.values.transpose(0, 2, 1).reshape(-1)
        t_ref = stacked_lstsq(pi_prime.values, pi.values, vec).reshape(
            pi_prime.p, pi.p, order="F")
        assert np.array_equal(t, t_ref)
        assert residual == maxabs(inner_derivation(pi_prime, pi, t_ref).values
                                  - delta.values)


@pytest.mark.parametrize("name", ["C(Z4)", "C(S3)", "Alg(S3)"])
def test_implement_chi_structure_is_the_stacked_lstsq(name):
    b = bundled_fixtures()[name]
    rng = np.random.default_rng(2)
    pi = OperatorMap(b, b.rep_images)
    chi = functional(b, b.counit)
    for _ in range(3):
        phi = implemented_chi_structure(pi, chi, complex_normal(rng, pi.p))
        _, xi, _, residuals = implement_chi_structure(phi, chi)
        amat = commutator_system(pi.values, chi.values)
        bvec = phi.values[:, 1:, 0].reshape(-1)
        xi_ref = stacked_lstsq(pi.values, chi.values, bvec)
        assert np.array_equal(xi, xi_ref)
        assert abs(residuals["xi_fit"] - maxabs(amat @ xi_ref - bvec)) \
            <= 8 * EPS * maxabs(phi.values)


def regular_rep(table):
    """U_g e_h = e_{gh}: the permutation matrices of the left-regular
    representation, whose trivial summand leaves eta's mean undetermined."""
    n = len(table)
    return (np.arange(n)[None, :, None] == table[:, None, :]).astype(complex)


@pytest.mark.parametrize("table", [cyclic_table(4), s3_table(), d4_table()],
                         ids=["Z4", "S3", "D4"])
def test_solve_coboundary_is_the_stacked_lstsq(table):
    rng = np.random.default_rng(3)
    u = regular_rep(table)
    data = coboundary_data(table, u, complex_normal(rng, len(table)))
    eta, residuals = solve_coboundary(data)
    eta_ref = stacked_lstsq(u, np.ones((len(table), 1, 1)), data.xi.reshape(-1))
    assert np.array_equal(eta, eta_ref)
    fit = coboundary_data(table, u, eta_ref)
    assert residuals == {"xi": maxabs(fit.xi - data.xi), "lambda": maxabs(fit.lam - data.lam)}
    assert max(residuals.values()) <= 1e-10


# -- the rank cut ----------------------------------------------------------------

def numerical_rank_form(s):
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > SPECTRAL_TOL * s[0]))


def minimality_form(s):
    return int(np.sum(s > SPECTRAL_TOL * s[0]))


def null_line_form(s):
    """blocks' test for a one-line solution space, defined from two values on."""
    cut = SPECTRAL_TOL * s[0]
    return bool(s[-1] <= cut < s[-2])


def null_space_form(s):
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return s.size - int(np.sum(s <= SPECTRAL_TOL * scale))


def gram_form(vals):
    scale = float(vals[0]) if vals.size and vals[0] > 0 else 0.0
    return int(np.sum(vals > SPECTRAL_TOL * scale))


CUT = SPECTRAL_TOL * 3.0
SINGULAR_VALUES = [   # (descending values, their rank): a value at the cut is dropped
    ([], 0), ([0.0], 0), ([0.0, 0.0, 0.0], 0),
    ([3.0, np.nextafter(CUT, np.inf), CUT, CUT, np.nextafter(CUT, 0.0), 0.0], 2),
    ([3.0, CUT], 1), ([3.0, np.nextafter(CUT, np.inf)], 2), ([3.0, 2.0, CUT], 2),
    ([1.0, SPECTRAL_TOL, SPECTRAL_TOL], 1), ([1.0], 1), ([5e-300, 5e-310, 0.0], 1),
]
EIGENVALUES = SINGULAR_VALUES + [([0.0, -1.0], 0), ([-1e-12, -1.0], 0), ([-2.0, -3.0], 0),
                                 ([3.0, CUT, 0.0, -CUT, -1.0], 1)]


@pytest.mark.parametrize("s, rank", SINGULAR_VALUES, ids=str)
def test_rank_of_is_each_old_cut(s, rank):
    s = np.array(s)
    assert rank_of(s) == rank == numerical_rank_form(s) == null_space_form(s) == gram_form(s)
    if s.size:
        assert rank == minimality_form(s)
    if s.size >= 2:
        assert (rank == s.size - 1) == null_line_form(s)


@pytest.mark.parametrize("vals, rank", EIGENVALUES, ids=str)
def test_rank_of_is_the_gram_cut(vals, rank):
    vals = np.array(vals)
    assert rank_of(vals) == rank == gram_form(vals)


@pytest.mark.parametrize("rank", [0, 1, 3])
def test_null_space_is_the_old_mask(rank):
    rng = np.random.default_rng(rank)
    a = complex_normal(rng, 7, rank) @ complex_normal(rng, rank, 5)
    _, s, vh = np.linalg.svd(a)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    null = null_space(a)
    assert np.array_equal(null, np.conjugate(vh[s <= SPECTRAL_TOL * scale]))
    assert null.shape == (5 - rank, 5)
    assert maxabs(a @ null.T) <= 1e-12 * max(1.0, maxabs(a))
