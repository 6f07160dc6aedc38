"""The cocycle engine against the version with more array calls it replaced,
bit for bit.

``ref_cocycle_functional``, ``ref_counit_of_exponentials``,
``ref_ordered_product`` and ``ref_simplex_series`` below are that version,
kept as oracles the way ``test_refinement.py`` keeps ``slow_refine``: the
functional conjugates the hat rows twice and reads the generator through
its properties; the counit concatenates the character exponentials with
nothing; the ordered product multiplies blocks stacked piece-major, one
broadcast product per inner index; and every level of the series cumsums a
leading zero row and builds fresh node and total arrays.  The engine
computes the same floating-point operations in the same order with fewer
array calls, so every value it returns must match the oracle's bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.blocks import _ordered_product, block_exponentials, group_blocks
from qlevy.cocycle import (_GL_NODES, _GL_QUAD, Pieces, _gammas, _simplex_series,
                           as_generator, check_cocycle_identity, cocycle_functional, refine,
                           simplex_series_oracle, simplex_series_within)
from qlevy.convolution import convolve, functional
from qlevy.linalg import maxabs

from conftest import random_element, random_generator
from test_cocycle_engine import step_pair
from test_refinement import slow_refine, slow_shifted_restriction


# -- the oracles --------------------------------------------------------------------

def ref_ordered_product(f):
    """f[0] @ ... @ f[n-1] over the leading axis of a stack (n, m, k, k)."""
    k = f.shape[-1]
    while f.shape[0] > 1:
        a, b = f[:-1:2], f[1::2]
        pairs = a[..., :, :1] * b[..., :1, :]
        for j in range(1, k):
            pairs += a[..., :, j:j + 1] * b[..., j:j + 1, :]
        f = np.concatenate((pairs, f[-1:])) if f.shape[0] % 2 else pairs
    return f[0]


def ref_counit_of_exponentials(blocks, characters, pieces):
    out = [np.exp(characters)]
    rest = blocks.groups[1:] if blocks.characters else blocks.groups
    if rest:
        factors = block_exponentials(rest, pieces)
        if factors.shape[0] > 1:
            factors = np.concatenate([ref_ordered_product(g).transpose(1, 2, 0).reshape(1, -1)
                                      for g in group_blocks(rest, factors)], axis=1)
        out.append(factors[0])
    return np.concatenate(out) @ blocks.counit_table


def ref_cocycle_functional(phi, f, f_prime, t):
    phi = as_generator(phi)
    src = phi.source
    _, dts, chat, chat_p = slow_refine(f, f_prime, t)
    if not dts.size:
        return src.counit.astype(complex).copy()
    blocks = src.dual_blocks()
    m = blocks.characters
    p = phi.p
    values = phi.values.reshape(src.dim, p * p)
    rest = blocks.table[:, m:]
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = dts[:, None] * chat
        integrated = np.conjugate(chat_p).T @ weighted
        entries = None
        if rest.shape[1]:
            outer = np.conjugate(chat_p)[:, :, None] * weighted[:, None, :]
            entries = outer.reshape(-1, p * p) @ (values.T @ rest)
        characters = values @ integrated.reshape(-1) @ blocks.table[:, :m]
        return (np.exp(np.trace(integrated[1:, 1:]))
                * ref_counit_of_exponentials(blocks, characters, entries))


def ref_check_cocycle_identity(phi, s, t, f, f_prime):
    src = phi.source
    lhs = ref_cocycle_functional(phi, f, f_prime, s + t)
    l1 = functional(src, ref_cocycle_functional(phi, f, f_prime, s))
    f2 = slow_shifted_restriction(f, s, s + t)
    fp2 = slow_shifted_restriction(f_prime, s, s + t)
    l2 = functional(src, ref_cocycle_functional(phi, f2, fp2, t))
    return maxabs(lhs - convolve(l1, l2).as_vector())


def ref_simplex_series(phi, x, pieces, lifts, pref, n_max):
    src = phi.source
    d = src.dim
    eps = src.counit.astype(complex)
    half = 0.5 * pieces.durations[:, None, None]
    nodes = np.broadcast_to(eps, (lifts.shape[0], _GL_NODES, d))
    total = eps.copy()
    for _level in range(n_max):
        quad = half * (_GL_QUAD @ (nodes @ lifts))
        bounds = np.cumsum(np.concatenate((np.zeros((1, d)), quad[:, -1])), axis=0)
        nodes = bounds[:-1, None] + quad[:, :-1]
        total = total + bounds[-1]
    return complex(pref * (total @ x.coords))


def ref_oracle(phi, x, f, f_prime, t, n_max):
    """The oracle's value, summed by ``ref_simplex_series``."""
    phi = as_generator(phi)
    pieces = slow_refine(f, f_prime, t)
    return ref_simplex_series(phi, x, pieces, phi.source.lift(_gammas(phi, pieces)),
                              pieces.prefactor(), n_max)


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


# -- the sweeps -----------------------------------------------------------------------

FIXTURES = ("Alg(S3)", "Alg(Z2)", "Alg(Z3)", "Alg(Z4)", "Alg(Z6)", "C(S3)", "C(Z2)",
            "C(Z3)", "C(Z4)", "C(Z6)", "Hyper(S3-classes)")
PIECES = st.one_of(st.integers(1, 8), st.integers(9, 256))


def test_the_sweep_covers_every_fixture(all_fixtures):
    assert sorted(FIXTURES) == sorted(all_fixtures)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(name=st.sampled_from(FIXTURES), seed=st.integers(0, 2 ** 32 - 1), pieces=PIECES,
       d_noise=st.integers(1, 3), scale=st.sampled_from([0.05, 0.4, 3.0]))
def test_engine_matches_the_old_engine_bit_for_bit(all_fixtures, name, seed, pieces,
                                                   d_noise, scale):
    rng = np.random.default_rng(seed)
    b = all_fixtures[name]
    phi = random_generator(rng, b, d_noise, scale)
    t = float(rng.uniform(0.3, 1.5))
    f, fp = step_pair(rng, d_noise, t, pieces)
    s = float(rng.uniform(0.05, 0.95)) * t
    for u in (t, s):
        assert same_bytes(cocycle_functional(phi, f, fp, u),
                          ref_cocycle_functional(phi, f, fp, u))
    assert same_bytes(check_cocycle_identity(phi, s, t - s, f, fp),
                      ref_check_cocycle_identity(phi, s, t - s, f, fp))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(name=st.sampled_from(FIXTURES), seed=st.integers(0, 2 ** 32 - 1), pieces=PIECES,
       d_noise=st.integers(1, 3), n_max=st.sampled_from([0, 1, 4, 16]))
def test_oracle_matches_the_old_series_bit_for_bit(all_fixtures, name, seed, pieces, d_noise,
                                                   n_max):
    rng = np.random.default_rng(seed)
    b = all_fixtures[name]
    phi = random_generator(rng, b, d_noise, 0.3)
    x = random_element(rng, b)
    t = float(rng.uniform(0.3, 1.0))
    f, fp = step_pair(rng, d_noise, t, pieces)
    value, tail = simplex_series_oracle(phi, x, f, fp, t, n_max)
    assert same_bytes(value, ref_oracle(phi, x, f, fp, t, n_max))
    # the oracle is the series at one order, its tail bound that order's
    assert (value, n_max, tail) == simplex_series_within(phi, x, f, fp, t, 0.0, (n_max,))
    value, n, _ = simplex_series_within(phi, x, f, fp, t, 1e-9, (1, 4, 16))
    assert same_bytes(value, ref_oracle(phi, x, f, fp, t, n))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), m=st.integers(1, 3),
       k=st.integers(2, 4))
def test_ordered_product_matches_the_piece_major_product(seed, n, m, k):
    # the larger blocks arise only outside the bundled fixtures (a dual that
    # is not semisimple is one block of size d), so they are swept here
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, m, k, k)) + 1j * rng.standard_normal((n, m, k, k))
    assert same_bytes(_ordered_product(f.transpose(2, 3, 0, 1)).transpose(2, 0, 1),
                      ref_ordered_product(f))


def test_zero_pieces_sum_to_the_counit(all_fixtures):
    rng = np.random.default_rng(3)
    b = all_fixtures["C(S3)"]
    phi = as_generator(random_generator(rng, b, 1))
    x = random_element(rng, b)
    f, fp = step_pair(rng, 1, 1.0, 3)
    pieces = slow_refine(f, fp, 0.0)
    lifts = b.lift(_gammas(phi, pieces))
    assert lifts.shape[0] == 0
    for n_max in (0, 4):
        assert _simplex_series(phi, x, pieces, lifts, pieces.prefactor(), n_max, 0.0) == \
            complex(b.counit @ x.coords)


def ref_prefactor(pieces):
    """The prefactor as the builtin sum over the pieces, in piece order."""
    return np.exp(sum(pieces.durations * pieces.inner_products()))


@pytest.mark.parametrize("pieces", [1, 4, 256])
def test_prefactor_matches_the_builtin_sum_bit_for_bit(pieces):
    rng = np.random.default_rng(pieces)
    for _ in range(20):
        f, fp = step_pair(rng, 2, 1.0, pieces)
        got = refine(f, fp, 1.0)
        assert same_bytes(got.prefactor(), ref_prefactor(got))


class _GivenProducts(Pieces):
    """Pieces whose inner products are the second column of ``hats``."""

    def inner_products(self):
        return self.hats[:, 1]


def test_prefactor_keeps_the_builtin_sums_signed_zeros():
    # the sum's start 0 turns a -0.0 part into +0.0; a sequential sum that
    # starts at the first piece keeps it
    products = np.array([complex(-1.0, -0.0), complex(-0.5, -0.0), complex(-2.0, -0.0)])
    pieces = _GivenProducts(np.arange(4.0), np.ones(3), np.stack([np.ones(3), products], 1),
                            np.ones((3, 2)))
    assert np.signbit(np.cumsum(pieces.durations * products)[-1].imag)
    assert same_bytes(pieces.prefactor(), ref_prefactor(pieces))
    assert not np.signbit(pieces.prefactor().imag)


def test_prefactor_of_no_pieces_is_the_float_one():
    f, fp = step_pair(np.random.default_rng(5), 1, 1.0, 3)
    got = refine(f, fp, 0.0)
    assert same_bytes(got.prefactor(), ref_prefactor(got))
    assert got.prefactor().dtype == np.float64
