"""The compound-Poisson sampler against the loops it replaced.

``simulate_compound_poisson`` keeps the samples still jumping as a compact
frontier, their counts and group states compressed together after each
round, and moves each sample at its last jump into a histogram of finished
samples; it inverts its CDFs with ``_inverse_cdf``.  Both references below
keep a full-length int64 state instead.  The first masks all samples in
every round and inverts with ``np.searchsorted``, as the sampler once did;
the second keeps the samples still jumping as an index array, shrinks it by
boolean-mask indexing, gathers and scatters the states through it by fancy
indexing, and takes one ``bincount`` of the final states.  Each must draw
the same uniforms in the same order and agree on every byte of the
frequencies and standard errors.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlevy.fixtures import cyclic_table, d4_table, s3_table
from qlevy.harness import _inverse_cdf, _poisson_counts, simulate_compound_poisson


# -- the round-mask reference ---------------------------------------------------------

def mask_poisson_counts(rng, rate_t, size):
    u = rng.random(size)
    if rate_t == 0:
        return np.zeros(size, dtype=np.int64)
    lo = max(0, int(rate_t - 40.0 * np.sqrt(rate_t)))
    k = np.arange(lo, int(rate_t + 40.0 * np.sqrt(rate_t)) + 40)
    log_pmf = k * np.log(rate_t) - rate_t - np.array([math.lgamma(j + 1) for j in k])
    return lo + np.searchsorted(np.cumsum(np.exp(log_pmf))[:-1], u)


def mask_sampler(table, rate, mu, t, n_samples, seed):
    table = np.asarray(table, dtype=int)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = mask_poisson_counts(rng, rate * t, n_samples)
    state = np.zeros(n_samples, dtype=np.int64)
    cdf = np.cumsum(mu)
    for round_idx in range(int(counts.max()) if n_samples else 0):
        active = counts > round_idx
        jumps = np.searchsorted(cdf, rng.random(int(active.sum())))
        state[active] = table[state[active], jumps]
    freqs = np.bincount(state, minlength=table.shape[0]) / max(1, n_samples)
    return freqs, np.sqrt(freqs * (1.0 - freqs) / max(1, n_samples))


def index_sampler(table, rate, mu, t, n_samples, seed):
    """The shrinking-index loop with boolean-mask and fancy indexing."""
    table = np.asarray(table, dtype=int)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = _poisson_counts(rng, rate * t, n_samples)
    state = np.zeros(n_samples, dtype=np.int64)
    cdf, products, order = np.cumsum(mu), table.ravel(), table.shape[0]
    live, rounds = np.flatnonzero(counts), 0
    while live.size:
        jumps = _inverse_cdf(cdf, rng.random(live.size))
        state[live] = products[state[live] * order + jumps]
        rounds += 1
        live = live[counts[live] > rounds]
    freqs = np.bincount(state, minlength=table.shape[0]) / max(1, n_samples)
    return freqs, np.sqrt(freqs * (1.0 - freqs) / max(1, n_samples))


# -- the sampler against them --------------------------------------------------------------

TABLES = {f"Z{n}": cyclic_table(n) for n in range(2, 7)}
TABLES.update({"S3": s3_table(), "D4": d4_table()})
# 17 * 17 - 1 table indices do not fit one byte: the states take two
TABLES["Z17"] = cyclic_table(17)


def measure(order, seed, zero_mass):
    """A random jump measure; with ``zero_mass``, zero on every even index
    (the identity among them)."""
    mu = np.random.default_rng([order, seed]).uniform(0.1, 1.0, order)
    if zero_mass:
        mu[::2] = 0.0
    return mu / mu.sum()


def assert_same_bytes(reference, table, mu, lam_t, n_samples, seed):
    got = simulate_compound_poisson(table, 2.0, mu, lam_t / 2.0, n_samples, seed)
    freqs, ses = reference(table, 2.0, mu, lam_t / 2.0, n_samples, seed)
    assert got.frequencies.tobytes() == freqs.tobytes()
    assert got.standard_errors.tobytes() == ses.tobytes()


# (lambda t, n_samples); the total number of draws stays under ~1e6 a case.
# From lambda t ~ 1602 the counts' +-40 sigma window starts above 0 and the
# counts are int64; below it they keep _inverse_cdf's unsigned dtype.
RUNS = [(0.0, 1000), (0.7, 0), (0.7, 1), (1.5, 7), (1.5, 100_000), (6.0, 1000),
        (40.0, 1000), (300.0, 7), (600.0, 1), (1700.0, 5), (2500.0, 3)]


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("lam_t, n_samples", RUNS)
@pytest.mark.parametrize("zero_mass", [False, True])
def test_sampler_matches_round_masks(name, lam_t, n_samples, zero_mass):
    table = TABLES[name]
    mu = measure(len(table), int(lam_t * 10) + n_samples, zero_mass)
    seed = 1000 + len(table) + n_samples
    assert_same_bytes(mask_sampler, table, mu, lam_t, n_samples, seed)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(name=st.sampled_from(sorted(TABLES)), lam_t=st.floats(0.0, 50.0),
       n_samples=st.integers(0, 400), zero_mass=st.booleans(),
       seed=st.integers(0, 2 ** 63 - 1))
def test_sampler_matches_round_masks_sweep(name, lam_t, n_samples, zero_mass, seed):
    table = TABLES[name]
    mu = measure(len(table), seed % 1000, zero_mass)
    assert_same_bytes(mask_sampler, table, mu, lam_t, n_samples, seed)


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z5", "Z6", "S3"])
@pytest.mark.parametrize("lam_t", [0.25, 1.2, 3.0])
@pytest.mark.parametrize("n_samples", [10_000, 100_000])
def test_sampler_matches_index_loop(name, lam_t, n_samples):
    table = TABLES[name]
    mu = measure(len(table), int(lam_t * 100) + n_samples, False)
    seed = 2000 + len(table) + n_samples
    assert_same_bytes(index_sampler, table, mu, lam_t, n_samples, seed)


@pytest.mark.parametrize("rate_t", [0.0, 0.5, 23.0, 24.0, 30.0, 600.0, 1601.0,
                                    1603.0, 2000.0, 1e5])
def test_poisson_counts_match_searchsorted(rate_t):
    rng, ref = (np.random.Generator(np.random.Philox(key=23)) for _ in range(2))
    counts = _poisson_counts(rng, rate_t, 5000)
    # the window's first count and its size; at rate_t = 0 the same formulas
    # give the window 0..39
    lo = max(0, int(rate_t - 40.0 * np.sqrt(rate_t)))
    size = int(rate_t + 40.0 * np.sqrt(rate_t)) + 40 - lo
    assert counts.dtype == (np.min_scalar_type(size) if lo == 0 else np.int64)
    assert np.array_equal(counts, mask_poisson_counts(ref, rate_t, 5000))


CDF = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300).map(
    lambda w: np.cumsum(w) / max(sum(w), 1.0))


DRAW = st.one_of(st.sampled_from([0.0, np.nextafter(1.0, 0.0)]),
                 st.floats(0.0, 1.0, exclude_max=True))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cdf=CDF, picks=st.lists(st.integers(0, 10 ** 6), max_size=40),
       extra=st.lists(DRAW, max_size=40))
@example(cdf=np.array([0.25, 1.0]), picks=[], extra=[])
def test_inverse_cdf_matches_searchsorted(cdf, picks, extra):
    # draws on CDF values (ties), at 0.0, at the largest double below 1,
    # anywhere in [0, 1), and no draws at all
    u = np.array([cdf[p % cdf.size] for p in picks] + extra, dtype=float)
    k = _inverse_cdf(cdf, u)
    assert k.dtype == np.min_scalar_type(cdf.size)
    assert np.array_equal(k, np.searchsorted(cdf[:-1], u))
