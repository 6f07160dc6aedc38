"""The refinement path against the slower version it replaced, bit for bit.

``slow_refine`` and ``slow_shifted_restriction`` below are that version,
kept as oracles: ``np.unique`` over every breakpoint in [0, t] and the 1e-12
merge loop on each call, and values looked up one searchsorted per start
time behind a range check, clamped to just below the horizon.  The lean
``refine`` sorts only the interior points and merges only when some gap is
at most 1e-12; ``shifted_restriction`` slices one run of values.  Both make
fewer array passes over the same points, so every array they return must
match the oracle's bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.cocycle import HORIZON_SLACK, HorizonMismatch, Pieces, StepFunction, refine


# -- the slow oracles -------------------------------------------------------------

def slow_values_at(g, s):
    """Values at nondecreasing times s, one row per time."""
    if s.size and not (s[0] >= 0 and s[-1] < g.horizon):
        bad = s[~((s >= 0) & (s < g.horizon))][0]
        raise HorizonMismatch(f"time {bad} outside [0, {g.horizon})")
    return g.values[g.breakpoints.searchsorted(s, side="right") - 1]


def slow_shifted_restriction(g, a, b):
    """The step function u -> g(a + u) on [0, b - a)."""
    if a < -1e-12 or b > g.horizon + HORIZON_SLACK or b <= a:
        raise HorizonMismatch(f"[{a}, {b}) not inside [0, {g.horizon})")
    bp = g.breakpoints
    shifted = bp - a
    inside = (shifted > 0.0) & (shifted < b - a)
    starts = np.concatenate(([a], bp[inside]))
    vals = slow_values_at(g, np.minimum(starts, np.nextafter(g.horizon, 0.0)))
    return StepFunction(np.concatenate(([0.0], shifted[inside], [b - a])), vals)


def slow_refine(f, f_prime, t):
    """Common refinement of f, f' over [0, t] as :class:`Pieces`."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if f.d_noise != f_prime.d_noise:
        raise ValueError("step functions live in different noise spaces")
    if f.horizon < t - HORIZON_SLACK or f_prime.horizon < t - HORIZON_SLACK:
        raise HorizonMismatch(f"step functions must cover [0, {t}]")
    pts = np.concatenate([[0.0, t], f.breakpoints, f_prime.breakpoints])
    pts = np.unique(pts[(pts >= 0.0) & (pts <= t)])
    if (pts[1:] - pts[:-1] <= 1e-12).any():
        merged = [pts[0]]
        for p in pts[1:]:
            if p - merged[-1] > 1e-12:
                merged.append(p)
        if abs(merged[-1] - t) > 1e-12:
            merged.append(t)
        pts = np.array(merged)
    dts = pts[1:] - pts[:-1]
    mids = 0.5 * (pts[:-1] + pts[1:])
    hats = np.ones((2, mids.size, 1 + f.d_noise), dtype=complex)
    for hat, g in zip(hats, (f, f_prime)):
        hat[:, 1:] = g.values[g.breakpoints[:-1].searchsorted(mids, side="right") - 1]
    return Pieces(pts, dts, *hats)


def assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes(), (g, w)


# -- inputs ---------------------------------------------------------------------------

GRID = 0.05   # breakpoints on a shared grid, so that f and f' share points
NUDGES = (0.0, 0.0, 0.0, 1e-13, -1e-13, 6e-13, -6e-13, 1e-11, -1e-11)
PAST_HORIZON = (1e-13, 1e-11, 5e-10, HORIZON_SLACK)


@st.composite
def step_functions(draw, d_noise=2):
    """Breakpoints on the grid, some nudged by 1e-13, 6e-13 or 1e-11, and
    sometimes one or two more points in steps that size past one of them:
    two 6e-13 steps make a run whose last point the merge must keep."""
    ks = draw(st.lists(st.integers(1, 40), min_size=1, max_size=10, unique=True))
    pts = {GRID * k + draw(st.sampled_from(NUDGES)) for k in ks}
    start = draw(st.sampled_from(sorted(pts)))
    step = draw(st.sampled_from((1e-13, 6e-13, 1e-11)))
    pts.update(start + j * step for j in range(1, draw(st.integers(0, 2)) + 1))
    bp = np.array([0.0] + sorted(pts))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shape = (bp.size - 1, d_noise)
    return StepFunction(bp, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def point_in(draw, g, horizon):
    """A time in [0, horizon]: 0, a breakpoint of g (possibly nudged by
    1e-13), or anywhere."""
    kind = draw(st.sampled_from(("zero", "breakpoint", "nudged", "anywhere")))
    if kind == "zero":
        return 0.0
    if kind == "anywhere":
        return draw(st.floats(0.0, horizon))
    p = float(draw(st.sampled_from([p for p in g.breakpoints if p <= horizon])))
    return p + 1e-13 if kind == "nudged" and p + 1e-13 <= horizon else p


# -- the sweeps -----------------------------------------------------------------------

SWEEP = settings(derandomize=True, deadline=None, max_examples=300)


@SWEEP
@given(st.data())
def test_refine_matches_the_slow_refinement(data):
    f, fp = data.draw(step_functions()), data.draw(step_functions())
    horizon = min(f.horizon, fp.horizon)
    if data.draw(st.booleans()):   # t within HORIZON_SLACK past the shorter horizon
        t = horizon + data.draw(st.sampled_from(PAST_HORIZON))
    else:
        t = point_in(data.draw, data.draw(st.sampled_from((f, fp))), horizon)
    assert_same_bytes(refine(f, fp, t), slow_refine(f, fp, t))


@SWEEP
@given(st.data())
def test_shifted_restriction_matches_the_slow_restriction(data):
    g = data.draw(step_functions())
    a = point_in(data.draw, g, np.nextafter(g.horizon, 0.0))
    kind = data.draw(st.sampled_from(("past", "breakpoint", "anywhere")))
    if kind == "past":   # b within HORIZON_SLACK past the horizon
        b = g.horizon + data.draw(st.sampled_from(PAST_HORIZON))
    elif kind == "breakpoint" and (g.breakpoints > a).any():
        b = float(data.draw(st.sampled_from(list(g.breakpoints[g.breakpoints > a]))))
    else:
        b = data.draw(st.floats(a, g.horizon, exclude_min=True))
    if data.draw(st.integers(0, 9)) == 0:   # a start just before 0 is rejected by both
        a = -1e-13
        for restrict in (g.shifted_restriction, lambda a, b: slow_shifted_restriction(g, a, b)):
            with pytest.raises(HorizonMismatch):
                restrict(a, b)
        return
    got, want = g.shifted_restriction(a, b), slow_shifted_restriction(g, a, b)
    assert_same_bytes((got.breakpoints, got.values), (want.breakpoints, want.values))


def test_restriction_rejects_breakpoints_that_round_together():
    # 1.5 and 1.5 + 2^-52 both round to 1.5 once shifted by 2^-53: the one
    # check the restriction keeps on data cut from a checked function
    g = StepFunction(np.array([0.0, 1.5, 1.5 + 2.0 ** -52, 3.0]), np.ones((3, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        g.shifted_restriction(2.0 ** -53, 3.0)


def test_refine_of_a_shared_grid_matches_the_slow_refinement():
    # f and f' cut at the same 256-piece grid: every interior point comes
    # twice, and the 1e-12 merge keeps one of each
    rng = np.random.default_rng(256)
    bp = np.linspace(0.0, 1.0, 257)
    f, fp = (StepFunction(bp, rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)))
             for _ in range(2))
    for t in (1.0, 1.0 + HORIZON_SLACK, 0.5, 0.3):
        assert_same_bytes(refine(f, fp, t), slow_refine(f, fp, t))
    assert refine(f, fp, 1.0).durations.size == 256


def test_refine_one_ulp_past_a_shared_horizon_matches_the_slow_refinement():
    # f and f' on different 256-piece grids ending at one horizon 1.3; with
    # s = 0.14, s + (1.3 - s) rounds one ulp past it, so the only gaps of at
    # most 1e-12 are the last two and the merge starts there
    rng = np.random.default_rng(257)
    horizon, s = 1.3, 0.14
    t = s + (horizon - s)
    assert t == np.nextafter(horizon, 2.0)
    f, fp = (StepFunction(np.concatenate(([0.0], np.sort(rng.uniform(0.0, horizon, 255)),
                                          [horizon])),
                          rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)))
             for _ in range(2))
    got = refine(f, fp, t)
    assert_same_bytes(got, slow_refine(f, fp, t))
    assert got.durations.size == 511 and got.points[-1] == horizon
