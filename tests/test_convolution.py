import numpy as np
import pytest

from qlevy.algebra import ParseError
from qlevy.convolution import (ConvolutionSemigroup, NonFiniteCocycle, OperatorMap,
                               amplified_norm, amplified_norm_profile,
                               conv_exp, convolve, counit_map, e_map,
                               functional, lifted_compose, lifted_matrix,
                               load_operator_map, r_map, semigroup_generator,
                               star_power)
from qlevy.generators import make_structure_map
from qlevy.linalg import maxabs, opnorm

from conftest import random_generator, random_operator_map


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
            s = conv_exp(gamma, t, method="series").as_vector()
            assert maxabs(a - s) < 1e-10


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
    m = lifted_matrix(gamma)
    # eps o M = gamma (counit slice of the lift)
    assert maxabs(b.counit @ m - gamma.as_vector()) < 1e-13


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
    assert abs(est - 2.0) < 1e-3


def test_amplified_norm_nondecreasing(all_fixtures):
    rng = np.random.default_rng(16)
    b = all_fixtures["C(Z3)"]
    phi = random_operator_map(rng, b, 2)
    profile = amplified_norm_profile(phi, 3, n_starts=8, n_iters=150)
    assert profile[0] <= profile[1] + 1e-9 <= profile[2] + 2e-9


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


@pytest.mark.parametrize("name", ["C(Z3)", "Alg(Z4)", "Hyper(S3-classes)"])
@pytest.mark.parametrize("n", [1, 2])
def test_amplified_norm_is_ratio_at_returned_point(all_fixtures, name, n):
    b = all_fixtures[name]
    phi = random_operator_map(np.random.default_rng(20 + n), b, 2)
    value, c = amplified_norm(phi, n, n_starts=4, n_iters=75, return_point=True)
    num = np.einsum("kab,kcd->acbd", phi.values, c).reshape(phi.p * n, phi.q * n)
    den = np.einsum("kab,kcd->acbd", b.rep_images, c).reshape(b.rep_dim * n, -1)
    ratio = np.linalg.norm(num, 2) / np.linalg.norm(den, 2)
    assert value > 0 and abs(ratio - value) <= 1e-12 * value


def test_amplified_norm_assembles_each_point_once(all_fixtures, monkeypatch):
    import qlevy.convolution as conv
    calls = []
    assemble = conv._assemble
    monkeypatch.setattr(conv, "_assemble",
                        lambda values, c: calls.append(1) or assemble(values, c))
    phi = random_operator_map(np.random.default_rng(22), all_fixtures["C(Z3)"], 2)
    n_starts, n_iters = 3, 20
    amplified_norm(phi, 2, n_starts=n_starts, n_iters=n_iters)
    # one numerator and one denominator per evaluated point: the start and
    # at most one trial point per iteration
    assert 0 < len(calls) <= n_starts * 2 * (n_iters + 1)


def test_amplified_norm_zero_start_has_ratio_zero(all_fixtures):
    # the denominator vanishes at c = 0: ratio 0 and no ascent direction
    b = all_fixtures["C(Z3)"]
    phi = random_operator_map(np.random.default_rng(23), b, 2)
    assert amplified_norm(phi, 2, n_starts=0,
                          warm_starts=[np.zeros((b.dim, 2, 2))]) == 0.0


# -- files ---------------------------------------------------------------------

def test_operator_map_round_trip(tmp_path, all_fixtures):
    b = all_fixtures["Alg(Z4)"]
    rng = np.random.default_rng(18)
    phi = random_operator_map(rng, b, 3)
    path = tmp_path / "phi.json"
    phi.save(path)
    phi2 = load_operator_map(path, b)
    assert maxabs(phi2.values - phi.values) < 1e-15


def test_operator_map_hash_mismatch(tmp_path, all_fixtures):
    rng = np.random.default_rng(19)
    phi = random_operator_map(rng, all_fixtures["C(Z2)"], 1)
    path = tmp_path / "phi.json"
    phi.save(path)
    with pytest.raises(ParseError, match="saved for bialgebra"):
        load_operator_map(path, all_fixtures["C(Z3)"])
