import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlevy.algebra import build_group_algebra
from qlevy.cocycle import toy_fock_evolve
from qlevy.convolution import OperatorMap
from qlevy.fixtures import bundled_fixtures, cyclic_table, d4_table, s3_table
from qlevy.generators import make_structure_map
from qlevy.harness import (GroupCocycleData, RunConfig, _poisson_counts,
                           build_group_generator, coboundary_data,
                           compound_poisson_law, group_relation_residuals,
                           psi_blocks, run_report, simulate_compound_poisson,
                           solve_coboundary)
from qlevy.linalg import dagger, maxabs


def two_dim_rep(table):
    """A genuine two-dimensional unitary representation of the table group."""
    b = build_group_algebra(table)
    if b.rep_blocks[-1] == 2:
        ofs = sum(b.rep_blocks[:-1])
        return np.array([b.rep_images[g][ofs:, ofs:] for g in range(len(table))])
    # abelian: direct sum of the two most interesting characters
    chars = [np.array([b.rep_images[g][i, i] for g in range(len(table))])
             for i in range(b.dim)]
    a, c = chars[min(1, len(chars) - 1)], chars[-1]
    return np.array([np.diag([a[g], c[g]]) for g in range(len(table))])


GROUPS = {"Z2": cyclic_table(2), "Z5": cyclic_table(5), "Z8": cyclic_table(8),
          "S3": s3_table(), "D4": d4_table()}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_coboundary_data_satisfies_invariants(name):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    table = GROUPS[name]
    u = two_dim_rep(table)
    eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    data = coboundary_data(table, u, eta)
    assert max(data.residuals().values()) <= 1e-10
    gen = build_group_generator(data)
    res = group_relation_residuals(psi_blocks(data), table)
    assert max(res.values()) <= 1e-10
    assert gen.is_real()


def test_trivial_data_gives_zero_generator():
    table = cyclic_table(4)
    u = np.array([np.eye(2)] * 4, dtype=complex)
    data = GroupCocycleData(table, u, np.zeros((4, 2)), np.zeros(4))
    gen = build_group_generator(data)
    assert maxabs(gen.values) == 0.0


def test_coboundary_equals_structure_map_on_group_likes():
    rng = np.random.default_rng(1)
    table = s3_table()
    b = build_group_algebra(table)
    u = two_dim_rep(table)
    eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    data = coboundary_data(table, u, eta)
    gen = build_group_generator(data, algebra=b)
    ref = make_structure_map(OperatorMap(b, u), eta)
    assert maxabs(gen.values - ref.values) < 1e-12


def test_perturbed_cocycle_rejected():
    rng = np.random.default_rng(2)
    table = s3_table()
    u = two_dim_rep(table)
    data = coboundary_data(table, u, rng.standard_normal(2))
    data.xi[3] += 0.01
    with pytest.raises(ValueError, match="invalid group cocycle data"):
        build_group_generator(data)


def test_solve_coboundary_recovers_eta():
    rng = np.random.default_rng(3)
    for table in (s3_table(), d4_table(), cyclic_table(6)):
        u = two_dim_rep(table)
        eta0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        data = coboundary_data(table, u, eta0)
        eta, res = solve_coboundary(data)
        assert eta is not None
        assert max(res.values()) <= 1e-10


def test_solve_coboundary_scrambled_basis():
    # conjugating the representation is an opaque relabeling of the noise
    # space; resolving still succeeds
    rng = np.random.default_rng(4)
    table = s3_table()
    u = two_dim_rep(table)
    w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    u_scr = np.array([w @ u[g] @ dagger(w) for g in range(6)])
    eta0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    data = coboundary_data(table, u_scr, eta0)
    eta, res = solve_coboundary(data)
    assert eta is not None and max(res.values()) <= 1e-9


def test_trivial_representation_forces_zero_cocycle():
    # with U = I the 1-cocycle identity forces xi = 0, and a real additive
    # character on a finite group vanishes, so eta = 0 solves exactly
    table = cyclic_table(5)
    u = np.array([np.eye(2)] * 5, dtype=complex)
    data = GroupCocycleData(table, u, np.zeros((5, 2)), np.zeros(5)).validate()
    eta, res = solve_coboundary(data)
    assert maxabs(eta) < 1e-12
    assert max(res.values()) < 1e-12


def test_w_correspondence_on_group_likes():
    # for group-like L_g the toy-Fock vacuum value is the scalar walk
    # (1 + h psi_00)^N, first-order close to exp(t psi_00)
    rng = np.random.default_rng(5)
    table = s3_table()
    b = build_group_algebra(table)
    u = two_dim_rep(table)
    eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    data = coboundary_data(table, u, eta)
    gen = build_group_generator(data, algebra=b)
    g = 3
    z = gen.values[g, 0, 0]
    x = b.basis_element(g)
    t = 1.0
    for steps in (16, 64, 256):
        got = toy_fock_evolve(gen, x, t, steps).vacuum
        assert abs(got - (1 + t / steps * z) ** steps) < 1e-10
    errs = [abs(toy_fock_evolve(gen, x, t, n).vacuum - np.exp(t * z))
            for n in (128, 256, 512)]
    for a, bb in zip(errs, errs[1:]):
        assert 1.5 <= a / bb <= 3.0


# -- Monte Carlo ------------------------------------------------------------------

def test_mc_zero_rate_stays_at_identity():
    mc = simulate_compound_poisson(cyclic_table(3), 0.0, [0.2, 0.5, 0.3],
                                   1.0, 5000, seed=1)
    assert mc.frequencies[0] == 1.0


def test_mc_two_state_closed_form():
    r, t = 1.2, 0.9
    mc = simulate_compound_poisson(cyclic_table(2), r, [0.0, 1.0], t,
                                   100000, seed=42)
    p_e = 0.5 * (1 + np.exp(-2 * r * t))
    assert abs(mc.frequencies[0] - p_e) <= 3 * mc.standard_errors[0]


def test_mc_matches_semigroup_law_in_total_variation():
    fx = bundled_fixtures()
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        table = cyclic_table(n)
        mu = rng.uniform(0.1, 1.0, size=n)
        mu /= mu.sum()
        r, t = 1.4, 0.7
        mc = simulate_compound_poisson(table, r, mu, t, 100000, seed=100 + n)
        law = compound_poisson_law(fx[f"C(Z{n})"], r, mu, t)
        for h in range(n):
            assert abs(mc.frequencies[h] - law[h]) <= 3 * max(mc.standard_errors[h], 1e-12)
        tv = 0.5 * np.abs(mc.frequencies - law).sum()
        assert tv <= 3 * mc.standard_errors.max()


def test_mc_standard_errors_scale_as_clt():
    kw = dict(table=cyclic_table(3), rate=1.0, jump_measure=[0.3, 0.3, 0.4], t=1.0)
    small = simulate_compound_poisson(n_samples=10 ** 3, seed=7, **kw)
    large = simulate_compound_poisson(n_samples=10 ** 5, seed=7, **kw)
    ratio = small.standard_errors.max() / large.standard_errors.max()
    assert 8.0 <= ratio <= 12.0


def test_mc_three_sigma_meta_rate():
    # fixed seed battery: the 3-sigma check must pass in >= 99% of runs
    table = cyclic_table(2)
    fx = bundled_fixtures()["C(Z2)"]
    mu = np.array([0.25, 0.75])
    r, t, n = 1.0, 0.8, 2000
    law = compound_poisson_law(fx, r, mu, t)
    passes = 0
    runs = 200
    for seed in range(runs):
        mc = simulate_compound_poisson(table, r, mu, t, n, seed)
        point = np.all(np.abs(mc.frequencies - law) <= 3 * np.maximum(mc.standard_errors, 1e-12))
        tv = 0.5 * np.abs(mc.frequencies - law).sum() <= 3 * mc.standard_errors.max()
        passes += bool(point and tv)
    assert passes >= int(0.99 * runs)


def test_mc_rejects_bad_measure():
    with pytest.raises(ValueError, match="probability vector"):
        simulate_compound_poisson(cyclic_table(2), 1.0, [0.5, 0.6], 1.0, 10, 0)


def test_poisson_counts_moments():
    rng = np.random.Generator(np.random.Philox(key=5))
    rt = 3.0
    counts = _poisson_counts(rng, rt, 200000)
    assert abs(counts.mean() - rt) < 0.05
    assert abs(counts.var() - rt) < 0.1
    big = _poisson_counts(rng, 45.0, 100000)  # the +-40 sigma window starts at 0
    assert abs(big.mean() - 45.0) < 0.3


@pytest.mark.parametrize("rate_t", [31.0, 45.0])
def test_poisson_counts_large_rate_exact_law(rate_t):
    # the exact pmf in log space, independent of scipy
    k = np.arange(int(rate_t + 20 * np.sqrt(rate_t)))
    pmf = np.exp(k * np.log(rate_t) - rate_t - np.array([math.lgamma(x + 1) for x in k]))
    n = 400000
    counts = _poisson_counts(np.random.Generator(np.random.Philox(key=31)), rate_t, n)
    # one uniform block, inverted through the exact CDF
    u = np.random.Generator(np.random.Philox(key=31)).random(n)
    assert np.array_equal(counts, np.searchsorted(np.cumsum(pmf), u))
    # rounded normals were 0.023 (rate_t = 31) off in total variation
    freq = np.bincount(counts, minlength=k.size)[:k.size] / n
    assert 0.5 * np.abs(freq - pmf).sum() < 0.01


def _window_end(rate_t):
    return int(rate_t + 40.0 * np.sqrt(rate_t)) + 40


@pytest.mark.parametrize("rate_t", [1.2, 31.0, 45.0, 1000.0])
def test_poisson_counts_match_pdtr_inversion(rate_t):
    from scipy.special import pdtr
    n = 100000
    counts = _poisson_counts(np.random.Generator(np.random.Philox(key=17)), rate_t, n)
    u = np.random.Generator(np.random.Philox(key=17)).random(n)
    cdf = pdtr(np.arange(_window_end(rate_t)), rate_t)
    assert np.array_equal(counts, np.searchsorted(cdf, u))


def test_poisson_counts_rate_zero_draws_one_block():
    rng = np.random.Generator(np.random.Philox(key=4))
    counts = _poisson_counts(rng, 0.0, 50)
    assert counts.shape == (50,) and not counts.any()
    ref = np.random.Generator(np.random.Philox(key=4))
    ref.random(50)
    assert rng.random() == ref.random()


class _TopUniform:
    """Draws only the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("rate_t", [0.5, 1.2, 29.9, 31.0, 60.0, 1000.0])
def test_poisson_counts_top_uniform_stays_in_window(rate_t):
    counts = _poisson_counts(_TopUniform(), rate_t, 3)
    assert (counts > rate_t).all() and (counts < _window_end(rate_t)).all()


def test_sampling_leaves_scipy_special_unimported():
    import qlevy
    code = ("import sys; from qlevy.fixtures import cyclic_table; "
            "from qlevy.harness import simulate_compound_poisson; "
            "simulate_compound_poisson(cyclic_table(3), 60.0, [0.2, 0.5, 0.3], "
            "1.0, 1000, 1); assert 'scipy.special' not in sys.modules")
    src = str(Path(qlevy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_mc_reproducible():
    a = simulate_compound_poisson(cyclic_table(3), 1.0, [0.5, 0.25, 0.25],
                                  1.0, 20000, seed=99)
    b = simulate_compound_poisson(cyclic_table(3), 1.0, [0.5, 0.25, 0.25],
                                  1.0, 20000, seed=99)
    assert np.array_equal(a.frequencies, b.frequencies)


# -- reports -----------------------------------------------------------------------

def test_axioms_battery_all_pass(tmp_path):
    config = RunConfig(seed=5, out=str(tmp_path / "axioms.json"))
    report = run_report(config, suite="axioms")
    assert report["all_pass"]
    assert report["n_cases"] > 100


def test_report_determinism(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        run_report(RunConfig(seed=42, n_samples=4000, out=str(p)),
                   suite="montecarlo")
    assert p1.read_bytes() == p2.read_bytes()


def test_report_matches_pinned():
    # pinned from the seed-42 report of the whole suite; names, tolerances
    # and verdicts must match exactly, residuals up to 1e-3 of their
    # tolerance, which leaves room for another BLAS
    pinned = json.loads((Path(__file__).parent / "data" / "report_all_seed42.json")
                        .read_text())
    report = run_report(RunConfig(seed=42), "all")
    assert {k: v for k, v in report.items() if k != "batteries"} \
        == {k: v for k, v in pinned.items() if k != "batteries"}
    assert sorted(report["batteries"]) == sorted(pinned["batteries"])
    for battery, cases in pinned["batteries"].items():
        got = report["batteries"][battery]
        assert [(c["name"], c["tol"], c["pass"]) for c in got] \
            == [(c["name"], c["tol"], c["pass"]) for c in cases], battery
        for new, old in zip(got, cases):
            assert abs(new["residual"] - old["residual"]) <= 1e-3 * old["tol"], new["name"]


def test_cocycle_battery_passes():
    report = run_report(RunConfig(seed=11), suite="cocycle")
    assert report["all_pass"]


def test_unknown_battery_rejected():
    with pytest.raises(ValueError, match="unknown battery"):
        run_report(RunConfig(), suite="nope")


def test_run_config_validation():
    with pytest.raises(ValueError, match="positive"):
        RunConfig(n_samples=0)
