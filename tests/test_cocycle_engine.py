"""The Fourier-form cocycle engine against the per-piece loop it replaced.

The reference below refines, builds each semigroup generator, lifts it and
exponentiates it one piece at a time with scipy's dense ``expm``.  The engine
exponentiates the same factors block by block in the basis of
``Bialgebra.dual_blocks()``, one exponential of the summed exponents for the
characters, and multiplies them in another order, so the two agree to
rounding, not bit for bit: within 8 (n + h) eps cond(V) max(1, |want|), for
n pieces whose exponents d_i R gamma_i have summed norm h.  The refinement
itself must still match the reference exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qlevy.algebra import build_function_algebra, build_group_algebra
from qlevy.cocycle import (_GL_NODES, _GL_QUAD, Generator, HorizonMismatch,
                           NonFiniteCocycle, StepFunction, _gammas,
                           check_cocycle_identity, cocycle_functional,
                           exp_inner_product, refine, refine_pair,
                           opposite_matrix_element, simplex_series_oracle,
                           simplex_series_within)
from qlevy.convolution import _exp_tail, convolve, functional, semigroup_generator
from qlevy.fixtures import cyclic_table, d4_table, s3_table
from qlevy.linalg import maxabs, opnorm

from conftest import random_element, random_generator
from test_basis_change import change_basis, skew

EPS = np.finfo(float).eps


# -- the per-piece reference ------------------------------------------------------

def lifted(gamma):
    """R gamma of a functional: the d x d matrix eta -> eta * gamma."""
    return gamma.source.lift(gamma.as_vector())


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
        # a step function ending within the slack before t covers the last piece
        out.append((b - a, ref_value_at(f, min(mid, np.nextafter(f.horizon, 0.0))),
                    ref_value_at(f_prime, min(mid, np.nextafter(f_prime.horizon, 0.0)))))
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
        lift = lift @ expm(dt * lifted(gamma))
        pref *= np.exp(dt * np.vdot(cp, c))
    return pref * (src.counit @ lift)


def exponent_norm(phi, f, f_prime, t):
    """h = sum_i d_i ||R gamma_i||, the summed norm of the pieces' exponents."""
    return sum(dt * opnorm(lifted(semigroup_generator(phi, cp, c)))
               for dt, c, cp in ref_refine_pair(f, f_prime, t))


def engine_bound(b, pieces, h, want):
    """Rounding allowance of the block engine against the reference."""
    return 8 * (pieces + h) * EPS * b.dual_blocks().cond * max(1.0, maxabs(want))


def assert_engine_matches(phi, f, fp, t, pieces, reverse=False):
    got = cocycle_functional(phi, f, fp, t, reverse=reverse)
    want = ref_cocycle_functional(phi, f, fp, t, reverse=reverse)
    h = exponent_norm(phi, f, fp, t)
    assert maxabs(got - want) <= engine_bound(phi.source, pieces, h, want), \
        (maxabs(got - want), engine_bound(phi.source, pieces, h, want))


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


# -- agreement to rounding --------------------------------------------------------------

@pytest.mark.parametrize("pieces", [1, 3, 32, 256])
def test_engine_matches_reference_within_rounding(all_fixtures, fixture_names, pieces):
    rng = np.random.default_rng([pieces, 11])
    for name in fixture_names:
        b = all_fixtures[name]
        for d_noise in (1, 2, 3):
            phi = random_generator(rng, b, d_noise)
            t = float(rng.uniform(0.5, 1.5))
            f, fp = step_pair(rng, d_noise, t, pieces)
            assert len(refine_pair(f, fp, t)) == pieces
            for reverse in (False, True):
                assert_engine_matches(phi, f, fp, t, pieces, reverse)


def test_engine_matches_reference_inside_the_horizon(all_fixtures):
    # t strictly inside the step functions' horizon, and t = 0
    rng = np.random.default_rng(12)
    for name in ("Alg(S3)", "C(S3)", "Hyper(S3-classes)"):
        b = all_fixtures[name]
        phi = random_generator(rng, b, 2)
        f, fp = step_pair(rng, 2, 1.0, 9)
        for t in (0.37, 1.0 - 5e-10):
            assert_engine_matches(phi, f, fp, t, len(refine_pair(f, fp, t)))
        assert np.array_equal(cocycle_functional(phi, f, fp, 0.0),
                              ref_cocycle_functional(phi, f, fp, 0.0))


def test_identity_and_inner_product_match_reference(all_fixtures):
    rng = np.random.default_rng(13)
    for name in ("Alg(Z6)", "C(S3)", "Hyper(S3-classes)"):
        b = all_fixtures[name]
        phi = random_generator(rng, b, 2)
        f, fp = step_pair(rng, 2, 1.2, 12)
        s = float(rng.uniform(0.1, 1.1))
        # both residuals are rounding; they may differ by the engine's
        # allowance on the three evaluations
        bound = 3 * engine_bound(b, 12, exponent_norm(phi, f, fp, 1.2),
                                 ref_cocycle_functional(phi, f, fp, 1.2))
        assert abs(check_cocycle_identity(phi, s, 1.2 - s, f, fp)
                   - ref_check_cocycle_identity(phi, s, 1.2 - s, f, fp)) <= bound
        total = 0.0 + 0.0j
        for dt, c, cp in ref_refine_pair(f, fp, 1.2):
            total += dt * np.vdot(c, cp)
        want = complex(np.exp(total))
        assert abs(exp_inner_product(f, fp, 1.2) - want) <= 8 * 12 * EPS * abs(want)


# basis changes t = P D: a permutation times nonzero complex scales, so that
# the dual's eigenvectors are rescaled and reordered
SWEEP_FIXTURES = ("C(S3)", "Hyper(S3-classes)", "Alg(S3)", "C(Z4)", "Alg(Z6)")


@settings(derandomize=True, deadline=None, max_examples=25)
@given(name=st.sampled_from(SWEEP_FIXTURES), seed=st.integers(0, 2 ** 32 - 1),
       pieces=st.sampled_from([1, 2, 7, 64, 256]), reverse=st.booleans())
def test_engine_sweep_over_rescaled_bases(all_fixtures, name, seed, pieces, reverse):
    rng = np.random.default_rng(seed)
    b = all_fixtures[name]
    scales = rng.uniform(0.3, 3.0, b.dim) * np.exp(2j * np.pi * rng.random(b.dim))
    b = change_basis(b, np.eye(b.dim)[rng.permutation(b.dim)] * scales)
    d_noise = int(rng.integers(1, 4))
    phi = random_generator(rng, b, d_noise)
    t = float(rng.uniform(0.3, 1.5))
    f, fp = step_pair(rng, d_noise, t, pieces)
    assert_engine_matches(phi, f, fp, t, pieces, reverse)


# -- the character route ---------------------------------------------------------------

def lifts_commute(b):
    """Whether the basis lifts L(e_j) commute, i.e. the dual is commutative;
    decided without blocks.py."""
    lifts = np.transpose(b.coproduct, (2, 1, 0))
    return maxabs(lifts[:, None] @ lifts[None] - lifts[None] @ lifts[:, None]) \
        <= 64 * b.dim * EPS * maxabs(b.coproduct) ** 2


def ref_integrated(phi, f, f_prime, t):
    """<eps(f'), eps(f)> eps o expm(sum_i d_i L(gamma_i)): the cocycle when
    the lifts commute, as one dense exponential."""
    total = np.zeros((phi.source.dim,) * 2, dtype=complex)
    pref = 0.0 + 0.0j
    for dt, c, cp in ref_refine_pair(f, f_prime, t):
        total += dt * lifted(semigroup_generator(phi, cp, c))
        pref += dt * np.vdot(cp, c)
    return np.exp(pref) * (phi.source.counit @ expm(total))


@pytest.mark.parametrize("pieces", [1, 3, 32, 256])
def test_character_route_is_one_exponential(all_fixtures, fixture_names, pieces):
    commutative = [name for name in fixture_names if lifts_commute(all_fixtures[name])]
    assert sorted(set(fixture_names) - set(commutative)) == ["C(S3)"]
    rng = np.random.default_rng([pieces, 16])
    for name in commutative:
        b = all_fixtures[name]
        assert b.dual_blocks().groups == ((1, b.dim),), name
        for d_noise in (1, 2, 3):
            phi = random_generator(rng, b, d_noise)
            t = float(rng.uniform(0.5, 1.5))
            f, fp = step_pair(rng, d_noise, t, pieces)
            want = ref_integrated(phi, f, fp, t)
            bound = engine_bound(b, pieces, exponent_norm(phi, f, fp, t), want)
            for reverse in (False, True):
                got = cocycle_functional(phi, f, fp, t, reverse=reverse)
                assert maxabs(got - want) <= bound, (name, maxabs(got - want), bound)


def test_cancelling_exponents_stay_finite(all_fixtures):
    # exponents of about +800 on [0, 1) and -800 on [1, 2): a product of
    # per-piece exponentials overflows at the first factor, exp(800) = inf,
    # while the summed exponent is of order 1
    b = all_fixtures["Alg(Z3)"]
    rng = np.random.default_rng(17)
    values = 0.3 * (rng.standard_normal((b.dim, 2, 2)) + 1j * rng.standard_normal((b.dim, 2, 2)))
    values[:, 1, 1] += 800.0
    phi = Generator(b, values)
    f = StepFunction(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [1.0]]))
    fp = StepFunction(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [-1.0]]))
    first = lifted(semigroup_generator(phi, [1.0], [1.0]))
    assert np.linalg.eigvals(first).real.max() > 790.0
    want = ref_integrated(phi, f, fp, 2.0)
    assert np.isfinite(want).all()
    bound = engine_bound(b, 2, exponent_norm(phi, f, fp, 2.0), want)
    for reverse in (False, True):
        got = cocycle_functional(phi, f, fp, 2.0, reverse=reverse)
        assert maxabs(got - want) <= bound, (maxabs(got - want), bound)


# -- the block decomposition -----------------------------------------------------------

# (groups, copies) of the bundled fixtures; every other one: d characters
BLOCK_LAYOUT = {"C(S3)": (((1, 2), (2, 1)), (1, 1, 2))}


def copy_blocks(b):
    """The diagonal blocks of V^-1 L(e_j) V, recomputed from V: per sigma,
    the (d, k, k) stack of each of its copies."""
    blocks = b.dual_blocks()
    full = blocks.inverse @ np.transpose(b.coproduct, (2, 1, 0)) @ blocks.basis
    dims = [k for k, m in blocks.groups for _ in range(m)]
    out, ofs = [], 0
    for k, n in zip(dims, blocks.copies):
        out.append([full[:, ofs + a * k:ofs + (a + 1) * k, ofs + a * k:ofs + (a + 1) * k]
                    for a in range(n)])
        ofs += n * k
    return out


def assert_folded(b):
    """Block diagonal to rounding, and every copy of a sigma carries the
    block of its first copy."""
    blocks = b.dual_blocks()
    tol = 64 * b.dim * EPS * blocks.cond * maxabs(b.coproduct)
    ids = np.repeat(np.arange(len(blocks.sizes)), blocks.sizes)
    lifts = np.transpose(b.coproduct, (2, 1, 0))
    off = maxabs((blocks.inverse @ lifts @ blocks.basis)[:, ids[:, None] != ids])
    assert off <= tol
    for copies in copy_blocks(b):
        for other in copies[1:]:
            assert maxabs(other - copies[0]) <= tol
    assert np.allclose(blocks.basis @ blocks.inverse, np.eye(b.dim))
    assert blocks.table.shape == (b.dim, sum(k * k * m + (m if k == 2 else 0)
                                             for k, m in blocks.groups))
    assert blocks.counit_table.shape == (sum(k * k * m for k, m in blocks.groups), b.dim)


def test_block_decomposition_of_every_fixture(all_fixtures):
    for name, b in all_fixtures.items():
        blocks = b.dual_blocks()
        assert blocks is b.dual_blocks()
        groups, copies = BLOCK_LAYOUT.get(name, (((1, b.dim),), (1,) * b.dim))
        assert (blocks.groups, blocks.copies) == (groups, copies), name
        assert blocks.characters == groups[0][1]
        assert_folded(b)
        assert blocks.cond <= 2.0, name


def dihedral_table(n):
    """The dihedral group of order 2n: elements r^a s^b, s r s = r^-1."""
    elems = [(a, c) for c in range(2) for a in range(n)]
    idx = {e: i for i, e in enumerate(elems)}
    return np.array([[idx[((a + (-1) ** c * a2) % n, (c + c2) % 2)] for a2, c2 in elems]
                     for a, c in elems])


@pytest.mark.parametrize("table, groups, copies", [
    # D4 has one 2-dimensional irrep: its two 2 x 2 blocks are copies of one
    # sigma, held once in the table, the counit table summing their rows
    (d4_table(), ((1, 4), (2, 1)), (1, 1, 1, 1, 2)),
    # D5 has two distinct ones: four 2 x 2 blocks fold into two sigma, not one
    (dihedral_table(5), ((1, 2), (2, 2)), (1, 1, 2, 2)),
])
def test_dihedral_duals_fold_per_sigma(table, groups, copies):
    b = build_function_algebra(table)
    blocks = b.dual_blocks()
    assert (blocks.groups, blocks.copies) == (groups, copies)
    assert_folded(b)
    rng = np.random.default_rng(18)
    for pieces in (1, 2, 9, 64):
        phi = random_generator(rng, b, 2)
        f, fp = step_pair(rng, 2, 1.0, pieces)
        for reverse in (False, True):
            assert_engine_matches(phi, f, fp, 1.0, pieces, reverse)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_max_monoid_duals_are_semisimple(n):
    # C[max-monoid] is commutative and semisimple: 1 x 1 blocks, V not unitary
    table = np.maximum.outer(np.arange(n), np.arange(n))
    blocks = build_function_algebra(table).dual_blocks()
    assert blocks.sizes == (1,) * n
    assert 2.0 < blocks.cond < 20.0


def test_nilpotent_dual_falls_back_to_one_block():
    # functions on {e, a, 0} with a^2 = 0: the dual has a Jordan block, so the
    # eigenvectors of a generic left multiplication do not span
    b = build_function_algebra(np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]]))
    blocks = b.dual_blocks()
    assert blocks.sizes == (3,)
    assert np.array_equal(blocks.basis, np.eye(3))
    rng = np.random.default_rng(15)
    for pieces in (1, 2, 9, 64):
        phi = random_generator(rng, b, 2)
        f, fp = step_pair(rng, 2, 1.0, pieces)
        for reverse in (False, True):
            assert_engine_matches(phi, f, fp, 1.0, pieces, reverse)
        x = random_element(rng, b)
        got = complex(cocycle_functional(phi, f, fp, 1.0) @ x.coords)
        oracle, tail = simplex_series_oracle(phi, x, f, fp, 1.0, 24)
        assert abs(got - oracle) <= tail + 1e-12 * max(1.0, abs(got))


def test_group_algebra_blocks_are_the_basis():
    # a group algebra's dual is the function algebra: V permutes the basis,
    # up to phases
    for table in (cyclic_table(5), s3_table()):
        modulus = np.abs(build_group_algebra(table).dual_blocks().basis)
        assert np.isin(modulus, (0.0, 1.0)).all()
        assert (modulus.sum(axis=0) == 1.0).all()


def ref_tail_bound(phi, x, f, f_prime, t, n_max, apply_order_reversal=True):
    """The prefactor and the tail bound of the simplex oracle, one piece at a
    time: the largest norm of the lifts its levels multiply by, right lifts
    for the flipped pairing and left lifts for the unflipped one, is one
    opnorm per piece."""
    src = phi.source
    lift = src.lift if apply_order_reversal else src.left_lift
    pieces = ref_refine_pair(f, f_prime, t)
    pref = np.exp(sum(dt * np.einsum("a,a->", np.conjugate(cp), c) for dt, c, cp in pieces))
    m = max((opnorm(lift(semigroup_generator(phi, cp, c).as_vector())) for _, c, cp in pieces),
            default=0.0)
    return pref, (_exp_tail(m * t, n_max) * float(np.linalg.norm(phi.source.counit))
                  * float(np.linalg.norm(x.coords)) * abs(pref))


def ref_simplex_series(phi, x, f, f_prime, t, orders, apply_order_reversal=True):
    """The simplex series summed piece by piece, one node list per piece; the
    (value, tail bound) at each order in ``orders``."""
    src = phi.source
    gls, glw = _GL_QUAD[:-1], _GL_QUAD[-1]
    pieces = ref_refine_pair(f, f_prime, t)
    gammas = [semigroup_generator(phi, cp, c).as_vector() for _, c, cp in pieces]
    spec = "kij,ni,j->nk" if apply_order_reversal else "kij,nj,i->nk"
    eps = src.counit.astype(complex)
    total = eps.copy()
    prev_nodes = [np.tile(eps, (_GL_NODES, 1)) for _ in pieces]
    out = {}
    for level in range(max(orders) + 1):
        if level:
            cur_nodes = []
            boundary = np.zeros(src.dim, dtype=complex)
            for (dt, _, _), nodes, gamma in zip(pieces, prev_nodes, gammas):
                integrand = np.einsum(spec, src.coproduct, nodes, gamma)
                half = dt / 2.0
                cur_nodes.append(boundary[None, :] + half * (gls @ integrand))
                boundary = boundary + half * (glw @ integrand)
            total = total + boundary
            prev_nodes = cur_nodes
        if level in orders:
            pref, tail = ref_tail_bound(phi, x, f, f_prime, t, level, apply_order_reversal)
            out[level] = (complex(pref * (total @ x.coords)), tail)
    return [out[n] for n in orders]


ORACLE_ORDERS = (0, 1, 4, 16)


def test_stacked_oracle_matches_the_per_piece_loop(all_fixtures, fixture_names):
    rng = np.random.default_rng(19)
    for name in fixture_names:
        b = all_fixtures[name]
        for pieces in range(1, 9):
            d_noise = int(rng.integers(1, 3))
            phi = random_generator(rng, b, d_noise)
            x = random_element(rng, b)
            t = float(rng.uniform(0.3, 1.2))
            f, fp = step_pair(rng, d_noise, t, pieces)
            assert len(refine_pair(f, fp, t)) == pieces
            for flip in (True, False):
                want = ref_simplex_series(phi, x, f, fp, t, ORACLE_ORDERS, flip)
                for n_max, (value, tail) in zip(ORACLE_ORDERS, want):
                    got, got_tail = simplex_series_oracle(phi, x, f, fp, t, n_max, flip)
                    assert abs(got - value) <= 1e-13 * max(1.0, abs(value)), \
                        (name, pieces, flip, n_max, abs(got - value))
                    assert got_tail == tail, (name, pieces, n_max)


def test_unflipped_oracle_is_bounded_by_its_left_lifts(all_fixtures):
    # the unflipped series multiplies by left lifts; in a skewed basis of
    # C(S3) their norms are not the right lifts', and the tail takes theirs
    b = skew(all_fixtures["C(S3)"], 5)
    rng = np.random.default_rng(34)
    phi, x = random_generator(rng, b, 2), random_element(rng, b)
    f, fp = step_pair(rng, 2, 1.0, 4)
    gammas = _gammas(phi, refine(f, fp, 1.0))
    left = np.linalg.norm(b.left_lift(gammas), 2, axis=(1, 2)).max()
    right = np.linalg.norm(b.lift(gammas), 2, axis=(1, 2)).max()
    assert left > 1.1 * right   # so a bound from the right lifts would be smaller
    want = opposite_matrix_element(phi, x, f, fp, 1.0)
    for n_max in (2, 4, 8, 16):
        got, tail = simplex_series_oracle(phi, x, f, fp, 1.0, n_max, apply_order_reversal=False)
        assert tail == ref_tail_bound(phi, x, f, fp, 1.0, n_max, apply_order_reversal=False)[1]
        assert abs(got - want) <= tail + 64 * n_max * EPS * max(1.0, abs(want)), n_max


def test_batched_pieces_match_the_one_piece_helpers(all_fixtures):
    # the simplex oracle reads its generators from _gammas and its tail bound
    # from their lifts
    rng = np.random.default_rng(14)
    for name in ("Alg(S3)", "C(S3)", "Hyper(S3-classes)"):
        b = all_fixtures[name]
        phi = random_generator(rng, b, 3)
        f, fp = step_pair(rng, 3, 1.0, 20)
        gammas = _gammas(phi, refine(f, fp, 1.0))
        for k, (_, c, cp) in enumerate(ref_refine_pair(f, fp, 1.0)):
            assert np.array_equal(gammas[k], semigroup_generator(phi, cp, c).as_vector())
        x = random_element(rng, b)
        want = [ref_tail_bound(phi, x, f, fp, 1.0, n)[1] for n in ORACLE_ORDERS]
        assert [simplex_series_oracle(phi, x, f, fp, 1.0, n)[1] for n in ORACLE_ORDERS] == want


def test_series_within_is_the_oracle_at_the_first_fitting_order(all_fixtures):
    # cocycle-eval's one call: the order from the tail bounds, then the series
    rng = np.random.default_rng(23)
    orders = (4, 8, 16, 32, 64)
    for name in ("C(Z3)", "C(S3)", "Alg(S3)"):
        b = all_fixtures[name]
        phi, x = random_generator(rng, b, 2), random_element(rng, b)
        f, fp = step_pair(rng, 2, 1.3, 5)
        tails = [simplex_series_oracle(phi, x, f, fp, 1.3, n)[1] for n in orders]
        for slack in (1e-3, 1e-9, 1e-30, 0.0):
            n_max = next((n for n, tail in zip(orders, tails) if tail <= slack), orders[-1])
            want = simplex_series_oracle(phi, x, f, fp, 1.3, n_max)
            got = simplex_series_within(phi, x, f, fp, 1.3, slack, orders)
            assert got == (want[0], n_max, want[1]), (name, slack)


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
