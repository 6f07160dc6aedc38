import numpy as np
import pytest

from qlevy.cocycle import (HORIZON_SLACK, HorizonMismatch, MemoryCapExceeded,
                           OverlappingIntervals, StepFunction,
                           check_cocycle_identity, cocycle_functional,
                           constant_collapse, delta_qs, exp_inner_product,
                           matrix_element, refine_pair,
                           simplex_series_oracle, simplex_series_within,
                           toy_fock_evolve, vacuum_semigroup, weak_qlp_moments)
from qlevy.convolution import (ConvolutionSemigroup, OperatorMap, conv_exp,
                               functional, semigroup_generator)
from qlevy.generators import make_structure_map
from qlevy.linalg import SOLVE_TOL, maxabs, min_eig_herm

from conftest import random_element, random_generator, random_step, reversed_steps


def structure_map_on(b, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    pi = OperatorMap(b, b.rep_images)
    c = scale * (rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim))
    return make_structure_map(pi, c)


def test_noise_space_projector():
    for p in (1, 2, 4):
        dqs = delta_qs(p)
        assert maxabs(dqs @ dqs - dqs) == 0.0
        assert maxabs(dqs @ np.eye(p)[0]) == 0.0


def test_step_function_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        StepFunction(np.array([0.0, 0.5, 0.5]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="start at 0"):
        StepFunction(np.array([0.1, 0.5]), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        StepFunction(np.array([0.0, 1.0]), np.array([[np.inf]]))
    f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [2.0]]))
    assert f.value_at(0.49)[0] == 1.0
    assert f.value_at(0.5)[0] == 2.0  # right continuity
    with pytest.raises(HorizonMismatch):
        f.value_at(1.0)


@pytest.mark.parametrize("breakpoints", [[0.0, np.nan, 1.0], [0.0, np.inf],
                                         [np.nan, 1.0], [0.0, 0.5, np.inf]])
def test_non_finite_breakpoints_are_rejected(breakpoints):
    with pytest.raises(ValueError, match="breakpoints must"):
        StepFunction(np.array(breakpoints), np.zeros((len(breakpoints) - 1, 1)))


@pytest.mark.parametrize("a", [-1e-13, -2e-12])
def test_shifted_restriction_starts_at_zero_or_later(a):
    # one rule, one message: the restriction must start inside [0, horizon)
    f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [2.0]]))
    with pytest.raises(HorizonMismatch, match=r"not inside \[0, 1\.0\)"):
        f.shifted_restriction(a, 0.5)


def test_exp_inner_product_vacuum():
    f = StepFunction.zero(2, 1.0)
    assert exp_inner_product(f, f, 1.0) == 1.0


def test_exp_inner_product_constant():
    c = np.array([0.3 + 0.2j, -0.5])
    cp = np.array([1.0, 0.25j])
    f = StepFunction.constant(c, 2.0)
    g = StepFunction.constant(cp, 2.0)
    for t in (0.3, 1.7):
        want = np.exp(t * np.vdot(c, cp))
        assert abs(exp_inner_product(f, g, t) - want) < 1e-13


def test_exp_inner_product_vs_quadrature():
    # trapezoid oracle on a fine grid refined at the breakpoints (the
    # integrand is constant between them, so each panel is exact)
    rng = np.random.default_rng(1)
    f = random_step(rng, 2, 1.0)
    g = random_step(rng, 2, 1.0)
    cuts = np.unique(np.concatenate([f.breakpoints, g.breakpoints, [0.0, 1.0]]))
    cuts = cuts[cuts <= 1.0]
    integral = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        grid = np.linspace(a, b - 1e-13, 200)
        vals = np.array([np.vdot(f.value_at(s), g.value_at(s)) for s in grid])
        integral += np.trapezoid(vals, grid) + vals[-1] * (b - grid[-1])
    got = exp_inner_product(f, g, 1.0)
    assert abs(got - np.exp(integral)) < 1e-12


def test_exp_inner_product_horizon_mismatch():
    f = StepFunction.zero(1, 0.5)
    g = StepFunction.zero(1, 1.0)
    with pytest.raises(HorizonMismatch):
        exp_inner_product(f, g, 1.0)


@pytest.mark.parametrize("t", [0.0, 5e-13])
def test_time_zero_is_the_empty_refinement(all_fixtures, t):
    # t = 5e-13 merges into the point 0, so it has no pieces either; C(S3)
    # has a 2 x 2 block, whose ordered product needs at least one piece
    rng = np.random.default_rng(31)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 2)
    f, fp = random_step(rng, 2, 1.0), random_step(rng, 2, 1.0)
    x = random_element(rng, b)
    eps_x = complex(b.counit @ x.coords)
    assert refine_pair(f, fp, t) == []
    assert exp_inner_product(f, fp, t) == 1.0
    assert matrix_element(phi, x, f, fp, t) == eps_x
    for n_max in (0, 4):
        assert simplex_series_oracle(phi, x, f, fp, t, n_max) == (eps_x, 0.0)
    assert simplex_series_within(phi, x, f, fp, t, 0.0, [0, 4]) == (eps_x, 0, 0.0)


def test_negative_time_is_rejected(all_fixtures):
    rng = np.random.default_rng(32)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 1)
    f = random_step(rng, 1, 1.0)
    x = random_element(rng, b)
    for call in (lambda: refine_pair(f, f, -0.5),
                 lambda: exp_inner_product(f, f, -0.5),
                 lambda: matrix_element(phi, x, f, f, -0.5),
                 lambda: simplex_series_oracle(phi, x, f, f, -0.5, 4),
                 lambda: simplex_series_within(phi, x, f, f, -0.5, 0.0, [4])):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            call()


@pytest.mark.parametrize("gap", [5e-12, 5e-10, 0.99 * HORIZON_SLACK])
def test_refinement_covers_a_horizon_within_the_slack(all_fixtures, gap):
    # f ends `gap` before t: its last value covers the piece past its horizon
    b = all_fixtures["C(S3)"]
    phi = random_generator(np.random.default_rng(33), b, 1)
    x = b.basis_element(1)
    vals = np.array([[0.3], [0.5j]])
    short = StepFunction(np.array([0.0, 0.4, 1.0]), vals)
    t = 1.0 + gap
    full = StepFunction(np.array([0.0, 0.4, t]), vals)
    pieces = refine_pair(short, full, t)
    assert pieces[-1][1][0] == 0.5j and pieces[-1][2][0] == 0.5j
    assert abs(exp_inner_product(short, full, t) - exp_inner_product(full, full, t)) < 1e-14
    want = matrix_element(phi, x, full, full, t)
    assert abs(matrix_element(phi, x, short, full, t) - want) < 1e-12 * max(1.0, abs(want))
    got, tail = simplex_series_oracle(phi, x, short, short, t, 16)
    assert abs(got - want) <= tail + 1e-12 * max(1.0, abs(want))


# -- matrix elements -------------------------------------------------------------

def test_unital_generator_fixes_matrix_element_of_one(all_fixtures):
    rng = np.random.default_rng(2)
    for name in ("Alg(S3)", "C(Z4)"):
        b = all_fixtures[name]
        phi = structure_map_on(b, seed=3)
        f = random_step(rng, phi.d_noise, 1.0)
        fp = random_step(rng, phi.d_noise, 1.0)
        got = matrix_element(phi, b.one(), f, fp, 1.0)
        assert abs(got - exp_inner_product(fp, f, 1.0)) < 1e-10


def test_nonunital_generator_breaks_matrix_element_of_one(all_fixtures):
    # phi(1) != 0 must show up in the matrix element of 1 (only-if direction)
    b = all_fixtures["C(Z2)"]
    rng = np.random.default_rng(3)
    phi = random_generator(rng, b, 1, scale=0.8)
    assert maxabs(np.einsum("k,kab->ab", b.unit, phi.values)) > 1e-3
    f = StepFunction.zero(1, 1.0)
    got = matrix_element(phi, b.one(), f, f, 1.0)
    assert abs(got - 1.0) > 1e-6


def test_vacuum_slice_is_corner_semigroup(all_fixtures):
    rng = np.random.default_rng(4)
    for b in all_fixtures.values():
        phi = random_generator(rng, b, 2)
        f = StepFunction.zero(2, 1.5)
        x = random_element(rng, b)
        got = matrix_element(phi, x, f, f, 1.5)
        want = conv_exp(phi.lam_block(), 1.5)(x)
        assert abs(got - want) < 1e-11


def test_matrix_element_constant_reduces_to_single_factor(all_fixtures):
    b = all_fixtures["Alg(Z3)"]
    rng = np.random.default_rng(5)
    phi = random_generator(rng, b, 2)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    cp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    t = 0.9
    f = StepFunction.constant(c, t)
    fp = StepFunction.constant(cp, t)
    x = random_element(rng, b)
    got = matrix_element(phi, x, f, fp, t)
    gamma = semigroup_generator(phi, cp, c)
    want = np.exp(t * np.vdot(cp, c)) * conv_exp(gamma, t)(x)
    assert abs(got - want) < 1e-12


def test_matrix_element_noise_mismatch(all_fixtures):
    rng = np.random.default_rng(6)
    b = all_fixtures["C(Z2)"]
    phi = random_generator(rng, b, 2)
    f = StepFunction.zero(1, 1.0)
    with pytest.raises(ValueError, match="noise dimension"):
        matrix_element(phi, b.one(), f, f, 1.0)


def test_cocycle_identity_at_zero(all_fixtures):
    rng = np.random.default_rng(7)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 1)
    f = random_step(rng, 1, 1.0)
    fp = random_step(rng, 1, 1.0)
    assert check_cocycle_identity(phi, 0.0, 1.0, f, fp) < 1e-12


def test_cocycle_identity_random(all_fixtures):
    rng = np.random.default_rng(8)
    for b in all_fixtures.values():
        for _ in range(5):
            dn = int(rng.integers(1, 3))
            phi = random_generator(rng, b, dn)
            s, t = rng.uniform(0.05, 0.9, size=2)
            f = random_step(rng, dn, s + t)
            fp = random_step(rng, dn, s + t)
            assert check_cocycle_identity(phi, s, t, f, fp) < 1e-9


# -- long times: from t = 16 on, t + 1e-15 == t --------------------------------

LONG_TIMES = [16.0, 20.0, 100.0]


@pytest.mark.parametrize("t", LONG_TIMES)
def test_vacuum_cocycle_is_corner_semigroup_at_long_times(all_fixtures, t):
    for name in ("Alg(S3)", "C(S3)"):
        phi = structure_map_on(all_fixtures[name], seed=1, scale=0.3)
        f = StepFunction.zero(phi.d_noise, t)
        want = ConvolutionSemigroup(phi.lam_block()).at(t).as_vector()
        assert maxabs(cocycle_functional(phi, f, f, t) - want) < 1e-12


@pytest.mark.parametrize("t", LONG_TIMES)
def test_exp_inner_product_covers_the_last_piece(t):
    c = np.array([[0.1 + 0.05j], [-0.08j]])
    cp = np.array([[0.07], [0.1 - 0.02j]])
    bp = np.array([0.0, 0.5 * t, t])
    got = exp_inner_product(StepFunction(bp, c), StepFunction(bp, cp), t)
    want = np.exp(0.5 * t * (np.vdot(c[0], cp[0]) + np.vdot(c[1], cp[1])))
    assert abs(got - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("t", LONG_TIMES)
def test_cocycle_identity_at_long_times(all_fixtures, t):
    rng = np.random.default_rng(21)
    for name in ("Alg(S3)", "C(S3)"):
        phi = structure_map_on(all_fixtures[name], seed=2, scale=0.3)
        bp = np.array([0.0, 0.3 * t, 0.7 * t, t])
        f = StepFunction(bp, 0.1 * (rng.standard_normal((3, phi.d_noise))
                                    + 1j * rng.standard_normal((3, phi.d_noise))))
        assert check_cocycle_identity(phi, 0.4 * t, 0.6 * t, f, f) <= SOLVE_TOL


@pytest.mark.parametrize("horizon, a, b", [
    (20.0, 8.0, np.nextafter(np.nextafter(20.0, 21.0), 21.0)),
    (20.0, 8.0, 20.0 + 0.5 * HORIZON_SLACK),
    # b = a + (horizon - a) rounds one ulp past the horizon, and b - a
    # rounds back onto horizon - a
    (0.82, 0.179, 0.179 + (0.82 - 0.179)),
], ids=["2ulp", "slack", "rounded-split"])
def test_shifted_restriction_just_past_the_horizon(horizon, a, b):
    f = StepFunction(np.array([0.0, 0.5 * horizon, horizon]), np.array([[1.0], [2.0]]))
    g = f.shifted_restriction(a, b)
    assert g.horizon == b - a
    assert g.value_at(0.0)[0] == 1.0
    assert g.value_at(np.nextafter(g.horizon, 0.0))[0] == 2.0


def test_markov_case_is_semigroup_law(all_fixtures):
    b = all_fixtures["C(Z3)"]
    rng = np.random.default_rng(9)
    phi = random_generator(rng, b, 1)
    sg = vacuum_semigroup(phi)
    s, t = 0.4, 0.8
    f = StepFunction.zero(1, s + t)
    lhs = cocycle_functional(phi, f, f, s + t)
    from qlevy.convolution import convolve
    rhs = convolve(sg.at(s), sg.at(t)).as_vector()
    assert maxabs(lhs - rhs) < 1e-11


def test_reality_transfers_to_matrix_elements(all_fixtures):
    rng = np.random.default_rng(10)
    b = all_fixtures["Alg(S3)"]
    phi = structure_map_on(b, seed=11)
    assert phi.is_real()
    f = random_step(rng, phi.d_noise, 1.0)
    fp = random_step(rng, phi.d_noise, 1.0)
    x = random_element(rng, b)
    lhs = matrix_element(phi, x.star(), f, fp, 1.0)
    rhs = np.conjugate(matrix_element(phi, x, fp, f, 1.0))
    assert abs(lhs - rhs) < 1e-10


def test_markov_states_positive_for_structure_maps(all_fixtures):
    for name in ("C(S3)", "Alg(Z4)"):
        b = all_fixtures[name]
        phi = structure_map_on(b, seed=12)
        sg = vacuum_semigroup(phi)
        star = b.star_matrix
        for t in (0.1, 0.5, 1.0):
            lam = sg.at(t).as_vector()
            gram = np.einsum("mi,mjk,k->ij", star, b.mult, lam)
            assert min_eig_herm(gram) >= -1e-9
            assert abs(complex(lam @ b.unit) - 1.0) < 1e-11


# -- simplex-series oracle --------------------------------------------------------

def test_oracle_order_zero(all_fixtures):
    rng = np.random.default_rng(13)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 2)
    f = random_step(rng, 2, 1.0)
    fp = random_step(rng, 2, 1.0)
    x = random_element(rng, b)
    got, _ = simplex_series_oracle(phi, x, f, fp, 1.0, 0)
    want = exp_inner_product(fp, f, 1.0) * complex(b.counit @ x.coords)
    assert abs(got - want) < 1e-12


def test_oracle_matches_factorization_within_tail(all_fixtures):
    rng = np.random.default_rng(14)
    for b in all_fixtures.values():
        dn = 2
        phi = random_generator(rng, b, dn, scale=0.3)
        f = random_step(rng, dn, 1.0)
        fp = random_step(rng, dn, 1.0)
        x = random_element(rng, b)
        want = matrix_element(phi, x, f, fp, 1.0)
        got, tail = simplex_series_oracle(phi, x, f, fp, 1.0, 4)
        assert abs(got - want) <= tail + 1e-9


def test_oracle_converges(all_fixtures):
    rng = np.random.default_rng(15)
    b = all_fixtures["Alg(S3)"]
    phi = random_generator(rng, b, 1, scale=0.3)
    f = random_step(rng, 1, 1.0)
    fp = random_step(rng, 1, 1.0)
    x = random_element(rng, b)
    want = matrix_element(phi, x, f, fp, 1.0)
    got, tail = simplex_series_oracle(phi, x, f, fp, 1.0, 14)
    assert abs(got - want) < 1e-10
    assert tail < 1e-8


def test_oracle_constant_collapse(all_fixtures):
    b = all_fixtures["C(Z4)"]
    rng = np.random.default_rng(16)
    phi = random_generator(rng, b, 2, scale=0.3)
    c = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    cp = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    t = 0.8
    x = random_element(rng, b)
    f = StepFunction.constant(c, t)
    fp = StepFunction.constant(cp, t)
    for n_max in (2, 4):
        got, _ = simplex_series_oracle(phi, x, f, fp, t, n_max)
        want = constant_collapse(phi, x, c, cp, t, n_max)
        assert abs(got - want) < 1e-11


def test_order_reversal_matters_on_noncocommutative(all_fixtures):
    # C(S3) has a noncocommutative coproduct: the series at the time-reversed
    # pair, the unflipped pairing of the original one, converges to a
    # different number
    rng = np.random.default_rng(17)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 1, scale=0.4)
    f = StepFunction(np.array([0.0, 0.5, 1.0]),
                     0.8 * (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))))
    fp = StepFunction(np.array([0.0, 0.3, 1.0]),
                      0.8 * (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))))
    x = random_element(rng, b)
    want = matrix_element(phi, x, f, fp, 1.0)
    flipped, _ = simplex_series_oracle(phi, x, f, fp, 1.0, 20)
    raw, _ = simplex_series_oracle(phi, x, reversed_steps(f), reversed_steps(fp), 1.0, 20)
    assert abs(flipped - want) < 1e-9
    assert abs(raw - want) > 1e-4


# -- opposite cocycles ---------------------------------------------------------------

def test_opposite_equals_direct_on_cocommutative(all_fixtures):
    rng = np.random.default_rng(18)
    b = all_fixtures["Alg(S3)"]
    phi = random_generator(rng, b, 2)
    f = random_step(rng, 2, 1.0)
    fp = random_step(rng, 2, 1.0)
    x = random_element(rng, b)
    assert abs(matrix_element(phi, x, f, fp, 1.0)
               - matrix_element(phi, x, reversed_steps(f), reversed_steps(fp), 1.0)) < 1e-12


def test_opposite_equals_direct_for_constant_steps(all_fixtures):
    # constant data cut at 0.3 is cut at 0.7 once reversed: the two factors
    # of one semigroup commute
    rng = np.random.default_rng(19)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 1)
    f = StepFunction(np.array([0.0, 0.3, 1.0]), np.array([[0.4], [0.4]]))
    fp = StepFunction.constant([0.1 - 0.2j], 1.0)
    x = random_element(rng, b)
    assert abs(matrix_element(phi, x, f, fp, 1.0)
               - matrix_element(phi, x, reversed_steps(f), reversed_steps(fp), 1.0)) < 1e-13


def test_unflipped_oracle_is_the_opposite_cocycle(all_fixtures):
    # the opposite integral equation attaches the new increment on the left,
    # so its simplex expansion is the unflipped pairing: the flipped one at
    # the time-reversed pair
    rng = np.random.default_rng(30)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 1, scale=0.35)
    f = reversed_steps(random_step(rng, 1, 1.0, scale=0.5))
    fp = reversed_steps(random_step(rng, 1, 1.0, scale=0.5))
    x = random_element(rng, b)
    want = matrix_element(phi, x, f, fp, 1.0)
    got, tail = simplex_series_oracle(phi, x, f, fp, 1.0, 16)
    assert abs(got - want) <= tail + 1e-10
    assert abs(got - want) < 1e-9


def test_opposite_differs_and_time_reversal_restores(all_fixtures):
    rng = np.random.default_rng(20)
    b = all_fixtures["C(S3)"]
    phi = random_generator(rng, b, 1, scale=0.6)
    t = 1.0
    f = StepFunction(np.array([0.0, 0.4, t]),
                     np.array([[0.8 + 0.1j], [-0.5j]]))
    fp = StepFunction(np.array([0.0, 0.6, t]),
                      np.array([[0.2], [0.9 - 0.3j]]))
    x = random_element(rng, b)
    direct = matrix_element(phi, x, f, fp, t)
    rf, rfp = reversed_steps(f), reversed_steps(fp)
    opposite = matrix_element(phi, x, rf, rfp, t)
    assert abs(direct - opposite) > 1e-6
    # reversing twice gives back the pieces, up to the rounding of t - s
    restored = matrix_element(phi, x, reversed_steps(rf), reversed_steps(rfp), t)
    assert abs(direct - restored) < 1e-11


# -- toy Fock -------------------------------------------------------------------------

def test_toy_fock_single_step(all_fixtures):
    b = all_fixtures["C(Z3)"]
    rng = np.random.default_rng(21)
    phi = random_generator(rng, b, 1)
    x = random_element(rng, b)
    t = 0.3
    got = toy_fock_evolve(phi, x, t, 1).vacuum
    want = complex(b.counit @ x.coords) + t * phi.lam_block()(x)
    assert abs(got - want) < 1e-13


def test_toy_fock_zero_generator(all_fixtures):
    b = all_fixtures["C(Z2)"]
    rng = np.random.default_rng(22)
    phi = random_generator(rng, b, 1, scale=0.0)
    x = random_element(rng, b)
    for steps in (1, 7, 64):
        got = toy_fock_evolve(phi, x, 1.0, steps).vacuum
        assert abs(got - complex(b.counit @ x.coords)) < 1e-14


def test_toy_fock_first_order_convergence(all_fixtures):
    rng = np.random.default_rng(23)
    b = all_fixtures["Alg(Z4)"]
    phi = random_generator(rng, b, 1)
    x = random_element(rng, b)
    ref = conv_exp(phi.lam_block(), 1.0)(x)
    errors = [abs(toy_fock_evolve(phi, x, 1.0, n).vacuum - ref)
              for n in (32, 64, 128)]
    for a, bb in zip(errors, errors[1:]):
        assert 1.5 <= a / bb <= 3.0


def test_toy_fock_full_mode_matches_slice(all_fixtures):
    rng = np.random.default_rng(24)
    b = all_fixtures["C(Z2)"]
    phi = random_generator(rng, b, 1)
    x = random_element(rng, b)
    full = toy_fock_evolve(phi, x, 0.7, 5, mode="full")
    slim = toy_fock_evolve(phi, x, 0.7, 5)
    assert abs(full.vacuum - slim.vacuum) < 1e-12
    assert full.full.shape == (2, 32, 32)


def test_toy_fock_memory_cap(all_fixtures):
    rng = np.random.default_rng(25)
    b = all_fixtures["C(Z2)"]
    phi = random_generator(rng, b, 2)
    with pytest.raises(MemoryCapExceeded):
        toy_fock_evolve(phi, b.one(), 1.0, 20, mode="full")


# -- weak quantum Levy process moments --------------------------------------------------

def test_wqlp_single_interval(all_fixtures):
    b = all_fixtures["C(Z3)"]
    rng = np.random.default_rng(26)
    phi = random_generator(rng, b, 1)
    x = random_element(rng, b)
    got = weak_qlp_moments(phi, [(0.3, 1.1)], [x])
    want = conv_exp(phi.lam_block(), 0.8)(x)
    assert abs(got - want) < 1e-12


def test_wqlp_units_give_one(all_fixtures):
    b = all_fixtures["Alg(S3)"]
    phi = structure_map_on(b, seed=27)
    got = weak_qlp_moments(phi, [(0.0, 0.5), (0.5, 1.0), (2.0, 2.5)],
                           [b.one()] * 3)
    assert abs(got - 1.0) < 1e-11


def test_wqlp_stationarity(all_fixtures):
    b = all_fixtures["C(Z4)"]
    rng = np.random.default_rng(28)
    phi = random_generator(rng, b, 1)
    xs = [random_element(rng, b) for _ in range(2)]
    ivs = [(0.1, 0.6), (0.8, 1.3)]
    shifted = [(s + 0.7, t + 0.7) for s, t in ivs]
    assert abs(weak_qlp_moments(phi, ivs, xs)
               - weak_qlp_moments(phi, shifted, xs)) < 1e-12


def test_wqlp_rejects_overlap(all_fixtures):
    b = all_fixtures["C(Z2)"]
    rng = np.random.default_rng(29)
    phi = random_generator(rng, b, 1)
    with pytest.raises(OverlappingIntervals):
        weak_qlp_moments(phi, [(0.0, 1.0), (0.5, 1.5)], [b.one(), b.one()])
