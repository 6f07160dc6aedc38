import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qlevy.algebra import ParseError, _same_block, assert_valid
from qlevy.blocks import _expm_2x2
from qlevy.convolution import (ConvolutionSemigroup, NonFiniteCocycle, OperatorMap,
                               _alternating_ascent, amplified_norm, conv_exp, convolve,
                               counit_map, e_map, functional, lifted_compose,
                               load_operator_map, r_map, semigroup_generator,
                               series_exp, star_power)
from qlevy.generators import make_structure_map
from qlevy.linalg import block_diag, dagger, maxabs, opnorm

from conftest import random_generator, random_operator_map
from test_basis_change import skew

EPS = np.finfo(float).eps


def test_counit_is_convolution_unit(all_fixtures):
    rng = np.random.default_rng(0)
    for b in all_fixtures.values():
        phi = random_operator_map(rng, b, 2)
        eps = counit_map(b)
        assert maxabs(convolve(eps, phi).values - phi.values) < 1e-13
        assert maxabs(convolve(phi, eps).values - phi.values) < 1e-13


def test_convolution_on_group_likes(all_fixtures):
    b = all_fixtures["Alg(S3)"]
    rng = np.random.default_rng(1)
    phi1 = random_operator_map(rng, b, 2)
    phi2 = random_operator_map(rng, b, 3)
    conv = convolve(phi1, phi2)
    for g in range(b.dim):
        assert maxabs(conv.values[g] - np.kron(phi1.values[g], phi2.values[g])) < 1e-13


def test_point_evaluations_convolve_by_group_law(all_fixtures):
    b = all_fixtures["C(Z4)"]
    table = np.array([[(i + j) % 4 for j in range(4)] for i in range(4)])
    evs = [functional(b, np.eye(4)[g]) for g in range(4)]
    for g in range(4):
        for h in range(4):
            got = convolve(evs[g], evs[h]).as_vector()
            assert maxabs(got - np.eye(4)[table[g, h]]) == 0.0


def test_convolution_associative(all_fixtures):
    rng = np.random.default_rng(2)
    for b in all_fixtures.values():
        maps = [random_operator_map(rng, b, p) for p in (2, 1, 2)]
        lhs = convolve(convolve(maps[0], maps[1]), maps[2])
        rhs = convolve(maps[0], convolve(maps[1], maps[2]))
        assert maxabs(lhs.values - rhs.values) < 1e-11


def test_convolution_source_mismatch(all_fixtures):
    rng = np.random.default_rng(3)
    phi1 = random_operator_map(rng, all_fixtures["C(Z2)"], 1)
    phi2 = random_operator_map(rng, all_fixtures["C(Z3)"], 1)
    with pytest.raises(ValueError, match="common source"):
        convolve(phi1, phi2)


def test_r_map_of_counit_is_identity(all_fixtures):
    for b in all_fixtures.values():
        lift = r_map(counit_map(b))
        assert maxabs(lift.data[:, :, 0, 0] - np.eye(b.dim)) < 1e-14


def test_e_after_r_is_identity(all_fixtures):
    rng = np.random.default_rng(4)
    for b in all_fixtures.values():
        for p in (1, 2, 3):
            phi = random_operator_map(rng, b, p)
            assert maxabs(e_map(r_map(phi)).values - phi.values) < 1e-13


def test_r_map_turns_convolution_into_composition(all_fixtures):
    rng = np.random.default_rng(5)
    for b in all_fixtures.values():
        phi1 = random_operator_map(rng, b, 2)
        phi2 = random_operator_map(rng, b, 2)
        lhs = r_map(convolve(phi1, phi2)).data
        rhs = lifted_compose(r_map(phi1), r_map(phi2)).data
        assert maxabs(lhs - rhs) < 1e-12


def test_r_map_conjugation(all_fixtures):
    rng = np.random.default_rng(6)
    for b in all_fixtures.values():
        phi = random_operator_map(rng, b, 2)
        assert maxabs(r_map(phi.conjugate_map()).data
                      - r_map(phi).conjugate_map().data) < 1e-13


def test_pointwise_r_domination(all_fixtures):
    # slicing the lifted map with the contractive counit recovers phi, so the
    # represented norm of (R phi)(x) dominates ||phi(x)||
    rng = np.random.default_rng(7)
    for b in all_fixtures.values():
        phi = random_operator_map(rng, b, 2)
        lift = r_map(phi)
        for _ in range(5):
            x = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
            img = lift.apply(x)                       # (d, p, p) coefficients
            rep = np.einsum("iab,icd->acbd", b.rep_images, img)
            rep = rep.reshape(b.rep_dim * phi.p, b.rep_dim * phi.p)
            val = np.einsum("k,kab->ab", x, phi.values)
            assert opnorm(val) <= opnorm(rep) + 1e-12


def test_conv_exp_zero_generator(all_fixtures):
    b = all_fixtures["C(S3)"]
    gamma = functional(b, np.zeros(b.dim))
    for t in (0.0, 0.7, 2.0):
        assert maxabs(conv_exp(gamma, t).as_vector() - b.counit) < 1e-14


def test_conv_exp_z2_closed_form(all_fixtures):
    b = all_fixtures["C(Z2)"]
    r = 1.3
    gamma = functional(b, r * np.array([-1.0, 1.0]))
    for t in (0.2, 1.0, 1.7):
        lam = conv_exp(gamma, t).as_vector()
        assert abs(lam[0] - 0.5 * (1 + np.exp(-2 * r * t))) < 1e-13
        assert abs(lam[1] - 0.5 * (1 - np.exp(-2 * r * t))) < 1e-13


def test_conv_exp_series_oracle_agrees(all_fixtures):
    rng = np.random.default_rng(8)
    for b in all_fixtures.values():
        gamma = random_operator_map(rng, b, 1, scale=0.6)
        for t in rng.uniform(0.0, 2.0, size=3):
            a = conv_exp(gamma, t).as_vector()
            s = series_exp(gamma, t).as_vector()
            assert maxabs(a - s) < 1e-10


# gamma = scale (arange(6) - 2.5) on C(S3): the partial sums overflow at
# these orders, and the one before is still finite
@pytest.mark.parametrize("scale, t, order", [(50.0, 1e3, 78), (1e6, 1.0, 46)])
def test_series_exp_names_the_order_that_overflows(all_fixtures, scale, t, order):
    b = all_fixtures["C(S3)"]
    gamma = functional(b, scale * (np.arange(b.dim) - 2.5))
    with pytest.raises(NonFiniteCocycle,
                       match=rf"series_exp partial sum not finite at order {order}, "):
        series_exp(gamma, t)
    assert np.isfinite(series_exp(gamma, t, n_max=order - 1).as_vector()).all()


def test_conv_exp_negative_time_is_inverse():
    from qlevy.fixtures import bundled_fixtures
    b = bundled_fixtures()["C(Z3)"]
    rng = np.random.default_rng(9)
    gamma = random_operator_map(rng, b, 1, scale=0.5)
    fwd = conv_exp(gamma, 0.8)
    back = conv_exp(gamma, -0.8)
    assert maxabs(convolve(fwd, back).as_vector() - b.counit) < 1e-12


def test_star_power_zero_is_counit(all_fixtures):
    b = all_fixtures["C(Z2)"]
    rng = np.random.default_rng(10)
    gamma = random_operator_map(rng, b, 1)
    assert maxabs(star_power(gamma, 0).as_vector() - b.counit) == 0.0


def test_semigroup_law(all_fixtures):
    rng = np.random.default_rng(11)
    for b in all_fixtures.values():
        gamma = random_operator_map(rng, b, 1, scale=0.5)
        sg = ConvolutionSemigroup(gamma)
        assert maxabs(sg.at(0.0).as_vector() - b.counit) < 1e-14
        for _ in range(5):
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = sg.at(s + t).as_vector()
            rhs = convolve(sg.at(s), sg.at(t)).as_vector()
            assert maxabs(lhs - rhs) < 1e-10


def test_semigroup_matches_the_2d_expm(all_fixtures):
    # the reference is the 2-D expm that ConvolutionSemigroup.at called before
    # it shared the cocycle engine's block exponentials; they agree to
    # 8 (1 + |t| ||R gamma||) eps cond(V) max(1, |want|)
    rng = np.random.default_rng(12)
    for b in all_fixtures.values():
        cond = b.dual_blocks().cond
        for _ in range(4):
            gamma = random_operator_map(rng, b, 1)
            sg = ConvolutionSemigroup(gamma)
            lifted = b.lift(gamma.as_vector())
            for t in (0.0, -0.7, 0.3, 1.0, 2.5):
                ref = b.counit @ expm(t * lifted)
                bound = 8 * (1 + abs(t) * opnorm(lifted)) * EPS * cond * max(1.0, maxabs(ref))
                assert maxabs(sg.at(t).as_vector() - ref) <= bound


def closed_form_expm(a):
    """The closed-form exponential of a stack (n, 2, 2) of matrices."""
    tau = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    x = (a - tau[:, None, None] * np.eye(2)).reshape(-1, 4, 1)
    out = np.empty(x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        _expm_2x2(tau[:, None], x, out)
    return out.reshape(-1, 2, 2)


def assert_close_to(got, want, a, factor=16):
    """Agreement within factor * eps * (1 + ||A||_1) * max(1, |want|) per matrix."""
    err = np.abs(got - want).max(axis=(1, 2))
    norm = np.abs(a).sum(axis=1).max(axis=1)
    scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
    assert np.all(err <= factor * EPS * (1 + norm) * scale), (err / (EPS * (1 + norm) * scale)).max()


def test_closed_form_2x2_matches_scipy_on_stiff_inputs():
    rng = np.random.default_rng(20)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        a = scale * (rng.standard_normal((300, 2, 2)) + 1j * rng.standard_normal((300, 2, 2)))
        a[:100] = a[:100].real
        got = closed_form_expm(a)
        with np.errstate(over="ignore", invalid="ignore"):
            want = expm(a)
        finite = np.isfinite(want).all(axis=(1, 2))
        assert finite.sum() >= 100
        assert np.isfinite(got[finite]).all()
        assert_close_to(got[finite], want[finite], a[finite])


def test_closed_form_2x2_near_defective_inputs():
    # tau I + N + (tiny): delta -> 0, where sinh(delta) / delta needs expm1
    rng = np.random.default_rng(21)
    n = 300
    nil = np.zeros((n, 2, 2), dtype=complex)
    nil[:, 0, 1] = 10.0 ** rng.uniform(-3, 3, n)
    tau = rng.uniform(-5, 5, n)[:, None, None] * np.eye(2)
    tiny = 10.0 ** rng.uniform(-17, -6, n)[:, None, None] \
        * (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    a = tau + nil + tiny
    assert_close_to(closed_form_expm(a), expm(a), a)
    # exactly defective: delta = 0, e^A = e^tau (I + N)
    a = tau + nil
    assert_close_to(closed_form_expm(a), np.exp(tau[:, :1, :1]) * (np.eye(2) + nil), a, 4)


def test_closed_form_2x2_at_the_overflow_edge():
    # tr A / 2 = -800 and delta = 800: e^tau cosh(delta) would be 0 * inf
    got = closed_form_expm(np.array([[[0.0, 0.0], [0.0, -1600.0]]], dtype=complex))
    assert np.array_equal(got[0], np.diag([1.0, 0.0]))
    # triangular inputs with e^A near the largest double: the exact value is
    # e^tau [[e^eta, sinh(eta) / eta], [0, e^-eta]]; scipy's expm agrees with
    # it only to ~1e-8 at eta = 1e-8 and tau = 355
    taus, etas = np.meshgrid([-800.0, 300.0, 354.85, 354.9, 355.0, 700.0, 705.0],
                             [0.0, 1e-8, 0.5, 5.0, 9.0])
    taus, etas = taus.ravel(), etas.ravel()
    a = np.zeros((taus.size, 2, 2), dtype=complex)
    a[:, 0, 0], a[:, 0, 1], a[:, 1, 1] = taus + etas, 1.0, taus - etas
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.exp(taus)[:, None, None] * np.array(
            [[np.exp(etas), np.sinh(etas) / np.where(etas == 0, 1.0, etas) + (etas == 0)],
             [np.zeros_like(etas), np.exp(-etas)]]).transpose(2, 0, 1)
        scipy_value = expm(a)
    got = closed_form_expm(a)
    finite = np.isfinite(want).all(axis=(1, 2))
    assert np.isfinite(got[np.isfinite(scipy_value).all(axis=(1, 2))]).all()
    assert_close_to(got[finite], want[finite], a[finite])
    assert (~finite).any() and not np.isfinite(got[~finite]).all(axis=(1, 2)).any()


def test_overflowing_semigroup_names_the_time(all_fixtures):
    # on C(S3) the lifted generator of 50 (k - 2.5) has eigenvalues up to 150:
    # its exponential is finite at t = 1, not at t = 50
    b = all_fixtures["C(S3)"]
    sg = ConvolutionSemigroup(functional(b, 50.0 * (np.arange(b.dim) - 2.5)))
    assert np.isfinite(sg.at(1.0).as_vector()).all()
    with pytest.raises(NonFiniteCocycle, match=r"not finite at t = 50\.0"):
        sg.at(50)
    with pytest.raises(NonFiniteCocycle):
        conv_exp(sg.generator, 50.0)
    import qlevy.cocycle
    assert qlevy.cocycle.NonFiniteCocycle is NonFiniteCocycle


def test_semigroup_generator_slices(all_fixtures):
    b = all_fixtures["Alg(Z4)"]
    rng = np.random.default_rng(12)
    phi = random_generator(rng, b, 2)
    zero = np.zeros(2)
    corner = semigroup_generator(phi, zero, zero)
    assert maxabs(corner.as_vector() - phi.values[:, 0, 0]) == 0.0
    # zero generator evolves to the counit
    zero_phi = random_generator(rng, b, 2, scale=0.0)
    gamma = semigroup_generator(zero_phi, rng.standard_normal(2),
                                rng.standard_normal(2))
    assert maxabs(conv_exp(gamma, 1.3).as_vector() - b.counit) < 1e-14


def test_semigroup_generator_against_block_assembly(all_fixtures):
    # independent oracle: assemble the implemented generator with np.block
    # and slice it directly
    b = all_fixtures["Alg(S3)"]
    rng = np.random.default_rng(13)
    pi = OperatorMap(b, b.rep_images)
    c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = make_structure_map(pi, c0)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    gamma = semigroup_generator(phi, cp, c)
    for k in range(b.dim):
        m = b.rep_images[k] - b.counit[k] * np.eye(4)
        blocks = np.block([
            [np.conjugate(c0)[None, :] @ m @ c0[:, None],
             np.conjugate(c0)[None, :] @ m],
            [m @ c0[:, None], m]])
        chat = np.concatenate(([1.0], c))
        chat_p = np.concatenate(([1.0], cp))
        want = np.conjugate(chat_p) @ blocks @ chat
        assert abs(gamma.as_vector()[k] - want) < 1e-12


def test_semigroup_generator_dimension_mismatch(all_fixtures):
    rng = np.random.default_rng(14)
    phi = random_generator(rng, all_fixtures["C(Z2)"], 2)
    with pytest.raises(ValueError, match="noise dimension"):
        semigroup_generator(phi, np.zeros(3), np.zeros(2))


def test_lifted_matrix_is_semigroup_generator_lift(all_fixtures):
    b = all_fixtures["C(S3)"]
    rng = np.random.default_rng(15)
    gamma = random_operator_map(rng, b, 1)
    m = b.lift(gamma.as_vector())
    # eps o M = gamma (counit slice of the lift)
    assert maxabs(b.counit @ m - gamma.as_vector()) < 1e-13


def test_lift_orientation_matches_convolve(all_fixtures, fixture_names):
    # gamma1 @ R gamma2 = gamma1 * gamma2 = gamma2 @ L gamma1; convolve is the
    # independent product.  C(S3) and its skewed basis are noncocommutative,
    # so a lift of the wrong side fails there
    rng = np.random.default_rng(19)
    for b in [all_fixtures[name] for name in fixture_names] + [skew(all_fixtures["C(S3)"], 5)]:
        d = b.dim
        assert np.array_equal(b.lift(np.eye(d)), np.transpose(b.coproduct, (2, 1, 0)))
        for _ in range(3):
            g1, g2 = (random_operator_map(rng, b, 1).as_vector() for _ in range(2))
            want = convolve(functional(b, g1), functional(b, g2)).as_vector()
            bound = 4 * d * d * EPS * maxabs(b.coproduct) * maxabs(g1) * maxabs(g2)
            assert maxabs(g1 @ b.lift(g2) - want) <= bound
            assert maxabs(g2 @ b.left_lift(g1) - want) <= bound


# -- amplified norms ----------------------------------------------------------

def test_amplified_norm_of_counit(all_fixtures):
    b = all_fixtures["Alg(Z3)"]
    for n in (1, 2, 3):
        est = amplified_norm(counit_map(b), n, n_starts=8, n_iters=150)
        assert abs(est - 1.0) < 1e-6


def test_amplified_norm_transpose_map(all_fixtures):
    b = all_fixtures["Alg(S3)"]
    tr = OperatorMap(b, np.array([b.rep_images[g][2:, 2:].T for g in range(6)]))
    est = amplified_norm(tr, 2)
    assert abs(est - 2.0) <= 1e-12


def doubled_block(b):
    """b with a second copy of its last representation block: a faithful
    representation that is not minimal, so its chart has more block entries
    than b has dimensions."""
    m = b.rep_blocks[-1]
    return dataclasses.replace(b, rep_blocks=b.rep_blocks + (m,),
                               rep_images=block_diag([b.rep_images, b.rep_images[:, -m:, -m:]]))


def test_amplified_norm_under_a_repeated_block(all_fixtures):
    b = doubled_block(all_fixtures["Alg(S3)"])
    assert b.rep_blocks == (1, 1, 2, 2)
    assert_valid(b)
    for n in (1, 2, 3):
        assert abs(amplified_norm(counit_map(b), n, n_starts=4, n_iters=75) - 1.0) <= 1e-12
    tr = OperatorMap(b, np.array([b.rep_images[g][2:4, 2:4].T for g in range(6)]))
    value, c = amplified_norm(tr, 2, n_starts=4, n_iters=75, return_point=True)
    assert abs(value - 2.0) <= 1e-12 and abs(_ratio_at(tr, c) - value) <= 1e-12 * value


def test_amplified_norm_submultiplicative(all_fixtures):
    rng = np.random.default_rng(17)
    b = all_fixtures["C(Z3)"]
    for _ in range(3):
        f1 = random_operator_map(rng, b, 1)
        f2 = random_operator_map(rng, b, 1)
        for n in (1, 2):
            lhs = amplified_norm(convolve(f1, f2), n, n_starts=8, n_iters=150)
            r1 = amplified_norm(f1, n, n_starts=8, n_iters=150)
            r2 = amplified_norm(f2, n, n_starts=8, n_iters=150)
            assert lhs <= r1 * r2 + 1e-6


def _ratio_at(phi, c):
    n = c.shape[1]
    num = np.einsum("kab,kcd->acbd", phi.values, c).reshape(phi.p * n, phi.q * n)
    rep = phi.source.rep_images
    den = np.einsum("kab,kcd->acbd", rep, c).reshape(rep.shape[1] * n, -1)
    return np.linalg.norm(num, 2) / np.linalg.norm(den, 2)


@pytest.mark.parametrize("name", ["C(Z3)", "Alg(Z4)", "Hyper(S3-classes)"])
@pytest.mark.parametrize("n", [1, 2])
def test_amplified_norm_is_ratio_at_returned_point(all_fixtures, name, n):
    b = all_fixtures[name]
    phi = random_operator_map(np.random.default_rng(20 + n), b, 2)
    value, c = amplified_norm(phi, n, n_starts=4, n_iters=75, return_point=True)
    assert value > 0 and abs(_ratio_at(phi, c) - value) <= 1e-12 * value


def test_amplified_norm_assembles_each_point_once(all_fixtures, monkeypatch):
    import qlevy.convolution as conv
    points = []
    top = conv._top_pair
    monkeypatch.setattr(conv, "_top_pair",
                        lambda sides, x: points.append(x.shape[0]) or top(sides, x))
    phi = random_operator_map(np.random.default_rng(22), all_fixtures["C(Z3)"], 2)
    n_starts, n_iters = 3, 20
    amplified_norm(phi, 2, n_starts=n_starts, n_iters=n_iters)
    # one numerator per evaluated point: each start, and one trial point per
    # start and step
    assert 0 < sum(points) <= n_starts * (n_iters + 1)
    # once no start gains the ascent stops: the counit's first step reaches
    # its norm 1, and the second gains nothing
    points.clear()
    amplified_norm(counit_map(all_fixtures["C(Z3)"]), 2, n_starts=n_starts, n_iters=n_iters)
    assert points == [n_starts] * 3


# The per-start projected gradient ascent that amplified_norm ran before the
# alternating ascent: every estimate must reach at least its value.

def _starts(d, n, n_starts, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
            for _ in range(n_starts)]


def _reference_amplified_norm(phi, n, n_starts, n_iters, seed=7):
    best_val, best_c = 0.0, None
    for c0 in _starts(phi.source.dim, n, n_starts, seed):
        val, c = _reference_ascent(phi.values, phi.source.rep_images, c0, n_iters)
        if val > best_val:
            best_val, best_c = val, c
    return best_val, best_c


def _reference_ascent(values, rep, c, iters):
    c = c / max(1e-300, maxabs(c))
    step = 0.5
    val, g = _reference_ratio_and_grad(values, rep, c)
    for _ in range(iters):
        gn = maxabs(g)
        if gn < 1e-14:
            break
        c_new = c + step * g / gn
        v_new, g_new = _reference_ratio_and_grad(values, rep, c_new)
        if v_new > val:
            s = max(1e-300, maxabs(c_new))
            c, val, g = c_new / s, v_new, g_new * s
            step = min(step * 1.3, 2.0)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return val, c


def _reference_ratio_and_grad(values, rep, c):
    sa, ga = _reference_top_singular(values, c)
    sr, gr = _reference_top_singular(rep, c)
    if sr < 1e-300:
        return 0.0, np.zeros_like(c)
    return float(sa / sr), np.conjugate((ga * sr - sa * gr) / sr ** 2)


def _reference_top_singular(values, c):
    p, q = values.shape[1:]
    n = c.shape[1]
    a = np.einsum("iab,icd->acbd", values, c).reshape(p * n, q * n)
    u, s, vh = np.linalg.svd(a)
    umat = u[:, 0].reshape(-1, n)
    wmat = vh[0].conj().reshape(-1, n)
    return s[0], np.einsum("an,iab,bm->inm", np.conjugate(umat), values, wmat)


# The alternating ascent one start at a time, the reference for the stack.
# Its two primitives are checked against dense linear algebra below.  An
# independent re-implementation cannot serve for the points: where a block
# of the gradient is rank-deficient (a 1 x 1 block has rank at most
# min(p, q), below n when p or q is) its polar factor is not unique, and near
# the limit a step amplified rounding 2-3-fold in the cases traced, so two
# routes that round differently part by ~1e-5 after 20 steps.

def _one_start(b, values, c, iters):
    val, point = _alternating_ascent(values, b.rep_images, b.rep_blocks, c[None], iters)
    return float(val[0]), point[0]


def _per_start_amplified_norm(phi, n, n_starts, n_iters, seed=7):
    best_val, best_c = 0.0, None
    for c0 in _starts(phi.source.dim, n, n_starts, seed):
        val, c = _one_start(phi.source, phi.values, c0, n_iters)
        if val > best_val:
            best_val, best_c = val, c
    return best_val, best_c


def _check_against_references(phi, n, **kw):
    """amplified_norm against its ascent run one start at a time (the same
    trajectories) and the per-start gradient ascent (a value it must reach)."""
    want, c_want = _per_start_amplified_norm(phi, n, **kw)
    got, c = amplified_norm(phi, n, return_point=True, **kw)
    assert type(got) is float and want > 0
    assert abs(got - want) <= 1e-12 * want
    assert abs(_ratio_at(phi, c) - got) <= 1e-12 * got
    assert maxabs(c - c_want) <= 1e-10
    assert got >= _reference_amplified_norm(phi, n, **kw)[0] * (1.0 - 1e-12)


@pytest.mark.parametrize("name", ["C(Z3)", "Alg(Z4)", "Hyper(S3-classes)", "Alg(S3)"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_ascent_matches_per_start_reference(all_fixtures, name, n):
    b = all_fixtures[name]
    phi = random_operator_map(np.random.default_rng(30 + n), b, 2)
    # the last configuration is the benchmark's: 4 starts and 75 iterations,
    # at n = 2 on C(Z3), Alg(Z4) and Hyper(S3-classes)
    for kw in (dict(n_starts=6, n_iters=60), dict(n_starts=3, n_iters=40, seed=11),
               dict(n_starts=4, n_iters=75, seed=5)):
        _check_against_references(phi, n, **kw)


SWEEP_FIXTURES = ("Alg(S3)", "Alg(Z2)", "Alg(Z3)", "Alg(Z4)", "Alg(Z6)", "C(S3)",
                  "C(Z2)", "C(Z3)", "C(Z4)", "C(Z6)", "Hyper(S3-classes)")


@settings(derandomize=True, deadline=None, max_examples=20)
@given(name=st.sampled_from(SWEEP_FIXTURES), seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from([1, 2, 3]))
def test_batched_ascent_sweep_matches_per_start_reference(all_fixtures, name, seed, n):
    rng = np.random.default_rng(seed)
    b = all_fixtures[name]
    phi = random_operator_map(rng, b, int(rng.integers(1, 4)))
    _check_against_references(phi, n, n_starts=3, n_iters=40, seed=seed)


@pytest.mark.parametrize("p, q", [(1, 3), (3, 1), (2, 4), (4, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_square_ascent_matches_per_start_reference(all_fixtures, p, q, n):
    # the Gram matrix is a^dagger a, of size q n, whichever of p and q is larger
    for name in ("C(Z3)", "Alg(S3)"):
        phi = random_operator_map(np.random.default_rng(40 + 10 * p + q + n),
                                  all_fixtures[name], p, q)
        _check_against_references(phi, n, n_starts=3, n_iters=40)


def test_repeated_block_ascent_matches_per_start_reference(all_fixtures):
    # D > d: rho0 of each step is the projection of its unitary block entries
    b = doubled_block(all_fixtures["Alg(S3)"])
    for n in (1, 2):
        phi = random_operator_map(np.random.default_rng(45 + n), b, 2)
        _check_against_references(phi, n, n_starts=3, n_iters=40)


@pytest.mark.parametrize("p, q, n", [(2, 2, 2), (1, 3, 2), (3, 1, 3)])
def test_top_pair_against_dense_svd(p, q, n):
    # sigma_max of a = sum_k m_k (x) x_k, and h as the gradient of the linear
    # functional Re <a v, a(y) v>, with a and v from np.linalg.svd
    rng = np.random.default_rng(60 + n)
    m = rng.standard_normal((5, p, q)) + 1j * rng.standard_normal((5, p, q))
    x, y = (rng.standard_normal((3, 5, n, n)) + 1j * rng.standard_normal((3, 5, n, n))
            for _ in range(2))
    import qlevy.convolution as conv
    flat = m.reshape(5, -1)
    sigma, h = conv._top_pair((flat.T, np.conjugate(flat), p, q), x)
    for s in range(3):
        a, ay = (np.einsum("kab,kxy->axby", m, z[s]).reshape(p * n, q * n) for z in (x, y))
        _, sv, vh = np.linalg.svd(a)
        v = np.conjugate(vh[0])
        assert abs(sigma[s] - sv[0]) <= 1e-12 * sv[0]
        want = (np.vdot(a @ v, ay @ v)).real
        assert abs(np.vdot(h[s], y[s]).real - want) <= 1e-12 * sv[0] ** 2 * maxabs(y[s]) * 5 * n


def test_polar_step_maximizes_over_the_unit_ball():
    # two blocks of size 1, then two of size 2, as the chart of Alg(S3) with
    # its 2-dimensional block doubled lists them: each block of the step is
    # unitary, and Re <h, x> reaches the dual norm of h, the sum of each
    # block's singular values
    counts, n = [(1, 2), (2, 2)], 2
    rng = np.random.default_rng(61)
    h = rng.standard_normal((3, 10, n, n)) + 1j * rng.standard_normal((3, 10, n, n))
    h[0, 2:6] = np.einsum("ax,ey->aexy", rng.standard_normal((2, n)), rng.standard_normal((2, n))
                          ).reshape(4, n, n)   # a block of rank 1: its polar factor is not unique
    import qlevy.convolution as conv
    x = conv._polar_step(h, counts)

    def blocks(z):
        out = [z[0], z[1]]
        for j in range(2):
            entries = z[2 + 4 * j:6 + 4 * j]
            out.append(np.block([[entries[2 * a + e] for e in range(2)] for a in range(2)]))
        return out
    for s in range(3):
        dual = 0.0
        for hb, xb in zip(blocks(h[s]), blocks(x[s])):
            assert maxabs(xb @ dagger(xb) - np.eye(len(xb))) <= 1e-12
            dual += np.linalg.svd(hb, compute_uv=False).sum()
        assert abs(np.vdot(h[s], x[s]).real - dual) <= 1e-12 * dual


@pytest.mark.parametrize("name, doubled", [("C(Z3)", False), ("Alg(S3)", False),
                                           ("Alg(S3)", True), ("Hyper(S3-classes)", False)])
def test_no_step_lowers_the_numerator(all_fixtures, monkeypatch, name, doubled):
    # from the first step on, each trial point's sigma_max is at least the
    # last one's, for stopped starts too, whose trial points keep stepping
    import qlevy.convolution as conv
    b = doubled_block(all_fixtures[name]) if doubled else all_fixtures[name]
    top, seen = conv._top_pair, []
    monkeypatch.setattr(conv, "_top_pair",
                        lambda sides, x: seen.append(top(sides, x)[0]) or top(sides, x))
    rng = np.random.default_rng(62)
    for p, q, n in ((2, 2, 2), (1, 2, 3), (3, 2, 1)):
        seen.clear()
        phi = random_operator_map(rng, b, p, q)
        amplified_norm(phi, n, n_starts=4, n_iters=40)
        trials = np.array(seen[1:])
        assert len(trials) > 1
        assert np.all(trials[1:] >= trials[:-1] * (1.0 - 1e-13))


@pytest.mark.parametrize("j", [-1000, -600, -300, 300, 500])
def test_amplified_norm_is_scale_equivariant(all_fixtures, j):
    # phi 2^j ascends as phi does: the same point, and exactly 2^j times the
    # value, while the Gram matrices square phi's range
    b = all_fixtures["C(Z3)"]
    phi = random_operator_map(np.random.default_rng(29), b, 2)
    want, c_want = amplified_norm(phi, 2, n_starts=4, n_iters=40, return_point=True)
    got, c = amplified_norm(OperatorMap(b, phi.values * 2.0 ** j), 2, n_starts=4,
                            n_iters=40, return_point=True)
    assert got == 2.0 ** j * want
    assert np.array_equal(c, c_want)


def test_amplified_norm_zero_start_has_ratio_zero(all_fixtures):
    # the denominator vanishes at c = 0: ratio 0
    b = all_fixtures["C(Z3)"]
    phi = random_operator_map(np.random.default_rng(23), b, 2)
    assert amplified_norm(phi, 2, n_starts=0) == 0.0
    assert amplified_norm(phi, 2, n_starts=0, return_point=True) == (0.0, None)
    rng = np.random.default_rng(24)
    starts = np.zeros((3, b.dim, 2, 2), dtype=complex)
    starts[1:] = rng.standard_normal((2, b.dim, 2, 2)) + 1j * rng.standard_normal((2, b.dim, 2, 2))
    vals, points = _alternating_ascent(phi.values, b.rep_images, b.rep_blocks, starts, 0)
    assert vals[0] == 0.0 and not points[0].any()
    # stepping, a zero start, whose gradient vanishes, moves to some unitary,
    # where its value is the ratio; the live starts follow their own ascents
    vals, points = _alternating_ascent(phi.values, b.rep_images, b.rep_blocks, starts, 30)
    assert vals[0] > 0 and abs(_ratio_at(phi, points[0]) - vals[0]) <= 1e-12 * vals[0]
    for k in (1, 2):
        want, c_want = _one_start(b, phi.values, starts[k], 30)
        assert abs(vals[k] - want) <= 1e-12 * want and maxabs(points[k] - c_want) <= 1e-10


def test_frozen_starts_keep_their_point_and_value(all_fixtures, monkeypatch):
    # start 1's second trial point reads lower than its first, so it stops
    # there; it is still evaluated with the stack and must come back at its
    # first step, even when a later trial point of its would gain, while the
    # other starts follow their own ascents
    import qlevy.convolution as conv
    b = all_fixtures["Alg(Z4)"]
    phi = random_operator_map(np.random.default_rng(26), b, 2)
    rng = np.random.default_rng(27)
    starts = rng.standard_normal((3, b.dim, 2, 2)) + 1j * rng.standard_normal((3, b.dim, 2, 2))
    iters = 60
    want = {k: _one_start(b, phi.values, starts[k], steps)
            for k, steps in ((0, iters), (1, 1), (2, iters))}
    evaluate, calls = conv._top_pair, []

    def stuck(sides, x):
        val, h = evaluate(sides, x)
        if len(calls) >= 2:
            val[1] = -1.0 if len(calls) < 6 else 2.0 * calls[1]
        calls.append(val[1])
        return val, h
    monkeypatch.setattr(conv, "_top_pair", stuck)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, points = conv._alternating_ascent(phi.values, b.rep_images, b.rep_blocks,
                                                starts, iters)
    assert len(calls) > 6   # the stack ran on after start 1 stopped
    for k, (value, point) in want.items():
        assert abs(vals[k] - value) <= 1e-12 * value and maxabs(points[k] - point) <= 1e-10


def test_amplified_norm_first_maximal_start_wins(all_fixtures, monkeypatch):
    import qlevy.convolution as conv
    b = all_fixtures["C(Z3)"]
    phi = random_operator_map(np.random.default_rng(25), b, 2)

    def fixed(values, rep, blocks, c, iters):
        points = np.arange(len(c))[:, None, None, None] * np.ones(c.shape[1:])
        return vals[:len(c)].copy(), points
    monkeypatch.setattr(conv, "_alternating_ascent", fixed)
    vals = np.array([1.0, 3.0, 2.0, 3.0])
    value, c = amplified_norm(phi, 2, n_starts=4, return_point=True)
    assert value == 3.0 and np.all(c == 1)
    vals = np.zeros(4)
    assert amplified_norm(phi, 2, n_starts=4, return_point=True) == (0.0, None)


def test_amplified_norm_names_bad_input(all_fixtures):
    b = all_fixtures["C(Z3)"]
    phi = random_operator_map(np.random.default_rng(28), b, 2)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        amplified_norm(phi, 0)
    with pytest.raises(ValueError, match="n_starts must be >= 0, got -1"):
        amplified_norm(phi, 2, n_starts=-1)
    for bad in (np.nan, np.inf):
        values = phi.values.copy()
        values[1, 0, 1] = bad
        with pytest.raises(ValueError, match="phi has non-finite values"):
            amplified_norm(OperatorMap(b, values), 2)


# a ratio that overflows to inf at the returned point, whatever the block sizes
@pytest.mark.parametrize("name, n", [("C(Z3)", 2), ("Alg(S3)", 1), ("C(Z3)", 1)])
def test_amplified_norm_names_an_overflow(all_fixtures, name, n):
    b = all_fixtures[name]
    phi = OperatorMap(b, np.full((b.dim, 2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="amplified_norm overflowed"):
            amplified_norm(phi, n, n_starts=4, n_iters=20)


# -- files ---------------------------------------------------------------------

def test_operator_map_round_trip(tmp_path, all_fixtures):
    b = all_fixtures["Alg(Z4)"]
    rng = np.random.default_rng(18)
    phi = random_operator_map(rng, b, 3)
    path = tmp_path / "phi.json"
    phi.save(path)
    phi2 = load_operator_map(path, b)
    assert maxabs(phi2.values - phi.values) < 1e-15
    assert path.read_text(encoding="utf-8") == json.dumps(phi.to_dict())


def test_operator_map_hash_mismatch(tmp_path, all_fixtures):
    rng = np.random.default_rng(19)
    phi = random_operator_map(rng, all_fixtures["C(Z2)"], 1)
    path = tmp_path / "phi.json"
    phi.save(path)
    with pytest.raises(ParseError, match="saved for bialgebra"):
        load_operator_map(path, all_fixtures["C(Z3)"])
