"""The batched cocycle engine against the per-piece loop it replaced.

The reference below refines, builds each semigroup generator, lifts it and
exponentiates it one piece at a time.  The batched engine must agree with it
bit for bit: it changes how the pieces are computed, not the arithmetic.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qlevy.cocycle import (Generator, HorizonMismatch, NonFiniteCocycle,
                           StepFunction, _pieces, check_cocycle_identity,
                           cocycle_functional, exp_inner_product, refine_pair)
from qlevy.convolution import (convolve, functional, lifted_matrix,
                               semigroup_generator)
from qlevy.linalg import maxabs

from conftest import random_generator


# -- the per-piece reference ------------------------------------------------------

def ref_value_at(f, s):
    if s < 0 or s >= f.horizon:
        raise HorizonMismatch(f"time {s} outside [0, {f.horizon})")
    i = int(np.searchsorted(f.breakpoints, s, side="right")) - 1
    return f.values[min(i, f.values.shape[0] - 1)]


def ref_shifted_restriction(f, a, b):
    if a < -1e-12 or b > f.horizon + 1e-9 or b <= a:
        raise HorizonMismatch(f"[{a}, {b}) not inside [0, {f.horizon})")
    inside = [float(p) for p in f.breakpoints if 0.0 < p - a < b - a]
    vals = [ref_value_at(f, min(p, np.nextafter(f.horizon, 0.0))) for p in [a] + inside]
    return StepFunction(np.array([0.0] + [p - a for p in inside] + [b - a]), np.array(vals))


def ref_refine_pair(f, f_prime, t):
    if f.d_noise != f_prime.d_noise:
        raise ValueError("step functions live in different noise spaces")
    if f.horizon < t - 1e-9 or f_prime.horizon < t - 1e-9:
        raise HorizonMismatch(f"step functions must cover [0, {t}]")
    pts = np.concatenate([[0.0, t], f.breakpoints, f_prime.breakpoints])
    pts = np.unique(pts[(pts >= 0.0) & (pts <= t)])
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > 1e-12:
            merged.append(p)
    if abs(merged[-1] - t) > 1e-12:
        merged.append(t)
    out = []
    for a, b in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (a + b)
        out.append((b - a, ref_value_at(f, mid), ref_value_at(f_prime, mid)))
    return out


def ref_cocycle_functional(phi, f, f_prime, t, reverse=False):
    src = phi.source
    if t == 0:
        return src.counit.astype(complex).copy()
    pieces = ref_refine_pair(f, f_prime, t)
    if reverse:
        pieces = pieces[::-1]
    lift = np.eye(src.dim, dtype=complex)
    pref = 1.0 + 0.0j
    for dt, c, cp in pieces:
        gamma = semigroup_generator(phi, cp, c)
        lift = lift @ expm(dt * lifted_matrix(gamma))
        pref *= np.exp(dt * np.vdot(cp, c))
    return pref * (src.counit @ lift)


def ref_check_cocycle_identity(phi, s, t, f, f_prime):
    src = phi.source
    lhs = ref_cocycle_functional(phi, f, f_prime, s + t)
    l1 = functional(src, ref_cocycle_functional(phi, f, f_prime, s))
    f2 = ref_shifted_restriction(f, s, s + t)
    fp2 = ref_shifted_restriction(f_prime, s, s + t)
    l2 = functional(src, ref_cocycle_functional(phi, f2, fp2, t))
    return maxabs(lhs - convolve(l1, l2).as_vector())


# -- inputs ---------------------------------------------------------------------------

def step_pair(rng, d_noise, horizon, pieces):
    """f on all of `pieces - 1` random cuts and f' on a random subset of them,
    so the common refinement has exactly `pieces` pieces."""
    cuts = np.sort(rng.uniform(0.0, horizon, size=pieces - 1))
    keep = rng.random(pieces - 1) < 0.5
    out = []
    for c in (cuts, cuts[keep]):
        bp = np.concatenate([[0.0], c, [horizon]])
        vals = 0.7 * (rng.standard_normal((bp.size - 1, d_noise))
                      + 1j * rng.standard_normal((bp.size - 1, d_noise)))
        out.append(StepFunction(bp, vals))
    return out


def near_coincident_pair(gap):
    """f has breakpoint pairs `gap` apart near 0.3 and 0.8; f' has
    breakpoints `gap` or `gap / 2` away from f's."""
    f = StepFunction(np.array([0.0, 0.3, 0.3 + gap, 0.6, 0.8 - gap, 1.0]),
                     np.array([[1.0], [2.0j], [3.0], [4.0 - 1j], [5.0]]))
    fp = StepFunction(np.array([0.0, 0.3 + 0.5 * gap, 0.6 + gap, 0.8, 1.0 - gap, 1.0]),
                      np.array([[-1.0], [0.5j], [2.0], [1.5], [-2.0j]]))
    return f, fp


def assert_same_pieces(got, want):
    assert len(got) == len(want)
    for (dt, c, cp), (dt_r, c_r, cp_r) in zip(got, want):
        assert dt == dt_r
        assert np.array_equal(c, c_r) and np.array_equal(cp, cp_r)


def assert_same_step(got, want):
    assert np.array_equal(got.breakpoints, want.breakpoints)
    assert np.array_equal(got.values, want.values)


# -- bitwise agreement ----------------------------------------------------------------

@pytest.mark.parametrize("pieces", [1, 3, 32, 256])
def test_engine_matches_reference_bitwise(all_fixtures, fixture_names, pieces):
    rng = np.random.default_rng([pieces, 11])
    for name in fixture_names:
        b = all_fixtures[name]
        for d_noise in (1, 2, 3):
            phi = random_generator(rng, b, d_noise)
            t = float(rng.uniform(0.5, 1.5))
            f, fp = step_pair(rng, d_noise, t, pieces)
            assert len(refine_pair(f, fp, t)) == pieces
            for reverse in (False, True):
                got = cocycle_functional(phi, f, fp, t, reverse=reverse)
                want = ref_cocycle_functional(phi, f, fp, t, reverse=reverse)
                assert np.array_equal(got, want), (name, d_noise, reverse)


def test_engine_matches_reference_inside_the_horizon(all_fixtures):
    # t strictly inside the step functions' horizon, and t = 0
    rng = np.random.default_rng(12)
    for name in ("Alg(S3)", "C(S3)", "Hyper(S3-classes)"):
        b = all_fixtures[name]
        phi = random_generator(rng, b, 2)
        f, fp = step_pair(rng, 2, 1.0, 9)
        for t in (0.0, 0.37, 1.0 - 5e-10):
            got = cocycle_functional(phi, f, fp, t)
            assert np.array_equal(got, ref_cocycle_functional(phi, f, fp, t))


def test_identity_and_inner_product_match_reference(all_fixtures):
    rng = np.random.default_rng(13)
    for name in ("Alg(Z6)", "C(S3)", "Hyper(S3-classes)"):
        b = all_fixtures[name]
        phi = random_generator(rng, b, 2)
        f, fp = step_pair(rng, 2, 1.2, 12)
        s = float(rng.uniform(0.1, 1.1))
        assert (check_cocycle_identity(phi, s, 1.2 - s, f, fp)
                == ref_check_cocycle_identity(phi, s, 1.2 - s, f, fp))
        total = 0.0 + 0.0j
        for dt, c, cp in ref_refine_pair(f, fp, 1.2):
            total += dt * np.vdot(c, cp)
        assert exp_inner_product(f, fp, 1.2) == complex(np.exp(total))


def test_batched_pieces_match_the_one_piece_helpers(all_fixtures):
    # the simplex oracle reads its generators and lifted matrices from here
    rng = np.random.default_rng(14)
    for name in ("Alg(S3)", "C(S3)", "Hyper(S3-classes)"):
        phi = random_generator(rng, all_fixtures[name], 3)
        f, fp = step_pair(rng, 3, 1.0, 20)
        *_, gammas, lifted = _pieces(phi, f, fp, 1.0)
        for k, (_, c, cp) in enumerate(ref_refine_pair(f, fp, 1.0)):
            gamma = semigroup_generator(phi, cp, c)
            assert np.array_equal(gammas[k], gamma.as_vector())
            assert np.array_equal(lifted[k], lifted_matrix(gamma))


@pytest.mark.parametrize("gap", [1e-13, 1e-11])
def test_refinement_merges_near_coincident_breakpoints(gap):
    f, fp = near_coincident_pair(gap)
    for t in (1.0, 1.0 - 0.5 * gap, 0.8, 0.6 + 0.5 * gap):
        assert_same_pieces(refine_pair(f, fp, t), ref_refine_pair(f, fp, t))
        assert_same_pieces(refine_pair(fp, f, t), ref_refine_pair(fp, f, t))
    for a, b in ((0.3, 0.6), (0.3 + gap, 0.8), (0.3 + 0.5 * gap, 1.0 - gap),
                 (0.0, 0.8 - gap), (0.6 + gap, 1.0), (0.1, 1.0 + 5e-10)):
        for g in (f, fp):
            assert_same_step(g.shifted_restriction(a, b),
                             ref_shifted_restriction(g, a, b))


def test_merge_can_drop_the_endpoint():
    # a breakpoint within 1e-12 below t absorbs t itself
    f = StepFunction(np.array([0.0, 1.0 - 4e-13, 2.0]), np.array([[1.0], [2.0]]))
    g = StepFunction.zero(1, 2.0)
    got = refine_pair(f, g, 1.0)
    assert_same_pieces(got, ref_refine_pair(f, g, 1.0))
    assert got[-1][0] == 1.0 - 4e-13


def test_shifted_restriction_rejects_what_the_reference_rejects():
    f, _ = near_coincident_pair(1e-13)
    for a, b in ((-5e-13, 0.5), (-1e-11, 0.5), (0.5, 0.5), (0.2, 1.0 + 1e-8)):
        with pytest.raises(HorizonMismatch):
            ref_shifted_restriction(f, a, b)
        with pytest.raises(HorizonMismatch):
            f.shifted_restriction(a, b)


# -- named non-finite failure --------------------------------------------------------

def _overflowing(all_fixtures, name, scale):
    b = all_fixtures[name]
    return Generator(b, scale * np.ones((b.dim, 2, 2)))


@pytest.mark.parametrize("name, scale", [("Alg(Z3)", 800.0), ("C(Z3)", 200.0)])
def test_overflowing_factor_names_the_piece(all_fixtures, name, scale):
    # the lifted generator's largest eigenvalue is 800 on Alg(Z3) and
    # 3 * 200 on C(Z3): its exponential is finite over 0.5, not over 1.5
    # (diagonal stack on Alg(Z3), scipy's expm on C(Z3))
    phi = _overflowing(all_fixtures, name, scale)
    f = StepFunction(np.array([0.0, 0.5, 2.0]), np.zeros((2, 1)))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteCocycle, match=r"piece 1 on \[0\.5, 2\.0\)"):
            cocycle_functional(phi, f, f, 2.0)


def test_overflowing_product_names_the_piece(all_fixtures):
    # every factor exp(400) is finite; their product is not
    phi = _overflowing(all_fixtures, "Alg(Z3)", 800.0)
    f = StepFunction(np.array([0.0, 0.5, 1.0]), np.zeros((2, 1)))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteCocycle,
                           match=r"product of factors not finite at piece 1"):
            cocycle_functional(phi, f, f, 1.0)
        # reversed, the product is taken from the last piece to the first
        with pytest.raises(NonFiniteCocycle, match=r"piece 0 on \[0\.0, 0\.5\)"):
            cocycle_functional(phi, f, f, 1.0, reverse=True)


def test_overflowing_prefactor_names_the_piece(all_fixtures):
    phi = _overflowing(all_fixtures, "Alg(S3)", 0.0)
    f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([[1.0], [40.0]]))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteCocycle, match=r"prefactor not finite at piece 1"):
            cocycle_functional(phi, f, f, 1.0)


def test_finite_results_pass_the_guard(all_fixtures):
    phi = _overflowing(all_fixtures, "Alg(Z3)", 800.0)
    f = StepFunction(np.array([0.0, 0.5]), np.zeros((1, 1)))
    assert np.isfinite(cocycle_functional(phi, f, f, 0.5)).all()
