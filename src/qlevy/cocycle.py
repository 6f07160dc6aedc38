"""Quantum stochastic convolution cocycles evaluated between exponential vectors.

For a stochastic generator phi (values on C + k, the "noise" space) and step
functions f, f' the matrix element of the cocycle at time t factors exactly:

    < eps(f'), l_t(x) eps(f) >
        = < eps(f'), eps(f) > (lam^{c'_1,c_1}_{d_1} * ... * lam^{c'_m,c_m}_{d_m})(x)

where the common refinement of f, f' on [0, t] has pieces of length d_i and
values c_i, c'_i, and each factor is the convolution semigroup generated by
x -> < (1,c'), phi(x) (1,c) >.  The factorization route is exact, so the
simplex-series expansion is kept only as an independent oracle, and truncation
appears only in the toy-Fock random-walk evolver.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre

from .blocks import block_exponentials, counit_of_exponentials, group_blocks
from .convolution import (ConvolutionSemigroup, NonFiniteCocycle, OperatorMap, _convolved,
                          _exp_tail, functional, star_power)
from .linalg import SPECTRAL_TOL, bordered, maxabs

HORIZON_SLACK = 1e-9   # a step function ending this close before a time covers it
TOY_FOCK_CAP_BYTES = 2 ** 28   # largest full toy-Fock map, checked before allocating


class HorizonMismatch(ValueError):
    """A step function does not cover the requested time interval."""


class MemoryCapExceeded(RuntimeError):
    """Full-matrix toy-Fock evolution would exceed ``TOY_FOCK_CAP_BYTES``."""


class OverlappingIntervals(ValueError):
    """Weak quantum Levy process moments need pairwise disjoint intervals."""


def delta_qs(p):
    """The quantum Ito projection Delta_QS onto k in B(C + k), p = 1 + dim k."""
    return bordered(0.0, 0.0, 0.0, np.eye(p - 1))


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function [0, t_m) -> C^{d_noise}."""

    breakpoints: np.ndarray  # (m+1,), starts at 0, strictly increasing
    values: np.ndarray       # (m, d_noise)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.atleast_2d(np.asarray(self.values, dtype=complex))
        if bp.ndim != 1 or bp.size < 2 or not abs(bp[0]) <= 1e-15:
            raise ValueError("breakpoints must start at 0 with at least one piece")
        # a nan fails every comparison, and +inf can only be the last point
        if not ((bp[1:] > bp[:-1]).all() and bp[-1] < np.inf):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if vals.shape[0] != bp.size - 1:
            raise ValueError("need one value row per piece")
        if not np.isfinite(vals).all():
            raise ValueError("step values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, c, horizon):
        c = np.asarray(c, dtype=complex).reshape(1, -1)
        return cls(np.array([0.0, float(horizon)]), c)

    @classmethod
    def zero(cls, d_noise, horizon):
        return cls.constant(np.zeros(d_noise), horizon)

    @property
    def d_noise(self):
        return self.values.shape[1]

    @property
    def horizon(self):
        return float(self.breakpoints[-1])

    def value_at(self, s):
        if not 0.0 <= s < self.horizon:
            raise HorizonMismatch(f"time {s} outside [0, {self.horizon})")
        return self.values[self.breakpoints[1:-1].searchsorted(s, side="right")].copy()

    def shifted_restriction(self, a, b):
        """The step function u -> f(a + u) on [0, b - a)."""
        bp = self.breakpoints
        if not 0.0 <= a < b <= bp[-1] + HORIZON_SLACK:
            raise HorizonMismatch(f"[{a}, {b}) not inside [0, {self.horizon})")
        # the pieces from the one holding a on: the breakpoints past a, kept
        # by their shifted value, so that none rounds onto the new horizon b - a
        first = bp.searchsorted(a, side="right") - 1
        shifted = bp[first + 1:] - a
        inside = shifted[:shifted.searchsorted(b - a)]
        # two breakpoints one ulp apart can round onto one shifted value; the
        # rest of the data is cut from this checked function and needs no
        # second pass through __post_init__
        if not np.logical_and.reduce(inside[1:] > inside[:-1]):
            raise ValueError("breakpoints must be finite and strictly increasing")
        points = np.empty(inside.size + 2)
        points[0] = 0.0
        points[1:-1] = inside
        points[-1] = b - a
        # their values are one run, clipped to the pieces there are: a piece
        # past the horizon (b within HORIZON_SLACK of it) takes the last value
        vals = self.values.take(np.arange(first, first + inside.size + 1), axis=0, mode="clip")
        out = object.__new__(StepFunction)
        out.__dict__.update(breakpoints=points, values=vals)
        return out


class Pieces(NamedTuple):
    """The common refinement of two step functions, as :func:`refine` gives it."""

    points: np.ndarray      # (n + 1,) bounding the n pieces
    durations: np.ndarray   # (n,)
    hats: np.ndarray        # (n, 1 + d_noise) the rows (1, c_i), c_i the value of f
    hats_prime: np.ndarray  # (n, 1 + d_noise) the rows (1, c'_i), c'_i the value of f'

    def inner_products(self):
        """<c'_i, c_i> for every piece."""
        return np.einsum("na,na->n", np.conjugate(self.hats_prime[:, 1:]), self.hats[:, 1:])

    def prefactor(self):
        """<eps(f'), eps(f)> over the pieces; no pieces give 1.0."""
        return np.exp(sum(self.durations * self.inner_products()))


def refine(f, f_prime, t):
    """Common refinement of f, f' over [0, t] as :class:`Pieces`; t = 0 gives
    no pieces.  A point within 1e-12 of the last one kept is merged into it."""
    if not t >= 0:   # a nan t fails this too
        raise ValueError("time must be nonnegative")
    fb, fv, gb, gv = f.breakpoints, f.values, f_prime.breakpoints, f_prime.values
    d_noise = fv.shape[1]
    if gv.shape[1] != d_noise:
        raise ValueError("step functions live in different noise spaces")
    if fb[-1] < t - HORIZON_SLACK or gb[-1] < t - HORIZON_SLACK:
        raise HorizonMismatch(f"step functions must cover [0, {t}]")
    bps = np.concatenate((fb, gb))
    bps.sort()
    # the points inside (0, t), framed by 0 and t
    inner = bps[bps.searchsorted(0.0, side="right"):bps.searchsorted(t)]
    pts = np.empty(inner.size + 2)
    pts[0] = 0.0
    pts[1:-1] = inner
    pts[-1] = t
    dts = pts[1:] - pts[:-1]
    if np.minimum.reduce(dts) <= 1e-12:
        # A point after a gap over 1e-12 is kept: its distance to the last
        # point kept is at least that gap.  A point after a lone short gap
        # follows a kept point and is dropped.  Only after two short gaps in
        # a row does the distance to the last point kept need the loop.
        keep = np.empty(pts.size, dtype=bool)
        keep[0] = True
        np.greater(dts, 1e-12, out=keep[1:])
        runs = ~(keep[1:-1] | keep[2:])
        if np.logical_or.reduce(runs):
            i = int(runs.argmax()) + 2
            merged = pts[:i].compress(keep[:i]).tolist()
            for p in pts[i:].tolist():
                if p - merged[-1] > 1e-12:
                    merged.append(p)
            pts = np.array(merged)
        else:
            pts = pts.compress(keep)
        dts = pts[1:] - pts[:-1]
    mids = 0.5 * (pts[:-1] + pts[1:])
    hats = np.empty((2, mids.size, 1 + d_noise), dtype=complex)
    hats[:, :, 0] = 1.0
    # searched without the end points, a piece past the horizon (within
    # HORIZON_SLACK) takes the last value
    hats[0, :, 1:] = fv.take(fb[1:-1].searchsorted(mids, side="right"), axis=0)
    hats[1, :, 1:] = gv.take(gb[1:-1].searchsorted(mids, side="right"), axis=0)
    return Pieces(pts, dts, hats[0], hats[1])


def refine_pair(f, f_prime, t):
    """Common-refinement pieces of f, f' over [0, t].

    Returns a list of (duration, c, c') triples; near-coincident breakpoints
    (within 1e-12) are merged.
    """
    _, dts, chat, chat_p = refine(f, f_prime, t)
    return list(zip(dts, chat[:, 1:], chat_p[:, 1:]))


def exp_inner_product(f, g, t):
    """< eps(f), eps(g) > = exp of the integral of <f(s), g(s)> over [0, t]."""
    return complex(refine(g, f, t).prefactor())


# -- stochastic generators ----------------------------------------------------

class Generator(OperatorMap):
    """An operator map into B(C + k), values (d, 1 + d_noise, 1 + d_noise):
    the noise dimension ``d_noise``, the corner functional ``lam_block`` and
    the reality test ``is_real``."""

    def __post_init__(self):
        super().__post_init__()
        if self.p != self.q or self.p < 1:
            raise ValueError("a stochastic generator must take square values on C + k")

    @property
    def d_noise(self):
        return self.p - 1

    def lam_block(self):
        """Corner functional x -> phi(x)_{00}."""
        return functional(self.source, self.values[:, 0, 0])

    def is_real(self):
        return self.reality_defect() <= SPECTRAL_TOL


def as_generator(phi):
    if isinstance(phi, Generator):
        return phi
    return Generator(phi.source, phi.values)


# -- matrix elements via semigroup factorization -----------------------------

def _refined(phi, f, f_prime, t):
    """:func:`refine` (f, f', t), once f and f' are checked to live in the
    generator's noise space."""
    d_noise = phi.values.shape[1] - 1
    for g in (f, f_prime):
        if g.values.shape[1] != d_noise:
            raise ValueError(f"noise dimension mismatch: generator {d_noise}, "
                             f"step function {g.values.shape[1]}")
    return refine(f, f_prime, t)


def _gammas(phi, pieces):
    """Per piece the generator x -> <(1, c'_i), phi(x) (1, c_i)>, in
    coordinates (n, d)."""
    return np.einsum("na,kab,nb->nk", np.conjugate(pieces.hats_prime), phi.values,
                     pieces.hats)


def cocycle_functional(phi, f, f_prime, t):
    """Coordinates of the functional x -> < eps(f'), l_t(x) eps(f) >.

    The inner-product prefactor over [0, t] is included.  At f(t - .),
    f'(t - .) this is the opposite cocycle: the same factors in reverse
    interval order.  Each factor expm(d_i R gamma_i) is block
    diagonal in the Fourier basis of ``source.dual_blocks()``.  The
    characters commute, so their blocks are the exponentials of the
    integrated generator sum_i d_i gamma_i = vec(phi) . vec(M), with
    M = sum_i d_i (1, c'_i)^* (1, c_i)^T one p x p product, and the
    prefactor is exp(tr M[1:, 1:]): O(p^2) a piece.  Only a sigma of
    dimension >= 2 is exponentiated per piece, its entries one product
    (d_i (1, c'_i)^* (x) (1, c_i)) @ (vec phi)^T @ table, and the blocks
    multiplied in O(log pieces) array calls.  Raises
    :class:`NonFiniteCocycle` when the result overflows.
    """
    phi = as_generator(phi)
    src = phi.source
    pieces = _refined(phi, f, f_prime, t)
    _, dts, chat, chat_p = pieces
    if not dts.size:   # t = 0, or t within the 1e-12 merge of 0
        return src.counit.astype(complex)
    blocks = src.dual_blocks()
    table = blocks.table
    m = blocks.characters
    p = chat.shape[1]
    values = phi.values.reshape(src.dim, p * p)
    conj = chat_p.conj()
    # an overflow is reported once, by the NonFiniteCocycle raised below;
    # a non-finite prefactor makes the coordinates non-finite too
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = dts[:, None] * chat
        integrated = conj.T @ weighted
        entries = None
        if table.shape[1] > m:
            outer = (conj[:, :, None] * weighted[:, None, :]).reshape(-1, p * p)
            entries = outer @ (values.T @ table[:, m:])
        characters = values @ integrated.reshape(-1) @ table[:, :m]
        coords = (np.exp(integrated[1:, 1:].trace())
                  * counit_of_exponentials(blocks, characters, entries))
        if not np.logical_and.reduce(np.isfinite(coords)):
            _raise_non_finite(phi, blocks, pieces)
    return coords


def _raise_non_finite(phi, blocks, pieces):
    """Build every piece's factor (its blocks, per group) and prefactor, walk
    the pieces in product order and name the first one whose factor, running
    product or running prefactor is not finite."""
    pts, dts, _, _ = pieces
    factors = group_blocks(blocks.groups, block_exponentials(
        blocks.groups, (_gammas(phi, pieces) @ blocks.table) * dts[:, None]))
    scalars = np.exp(dts * pieces.inner_products())
    lift = [np.eye(g.shape[-1], dtype=complex) for g in factors]
    pref = 1.0 + 0.0j
    for i in range(dts.size):
        lift = [p @ g[i] for p, g in zip(lift, factors)]
        pref *= scalars[i]
        for what, parts in (("semigroup factor", [g[i] for g in factors]),
                            ("prefactor", [scalars[i]]),
                            ("product of factors", lift),
                            ("running prefactor", [pref])):
            if not all(np.isfinite(v).all() for v in parts):
                raise NonFiniteCocycle(
                    f"{what} not finite at piece {i} on "
                    f"[{float(pts[i])!r}, {float(pts[i + 1])!r})")
    raise NonFiniteCocycle("cocycle coordinates not finite")


def matrix_element(phi, x, f, f_prime, t):
    """< eps(f'_{[0,t[}), l_t(x) eps(f_{[0,t[}) > for the cocycle generated by
    phi."""
    coords = cocycle_functional(phi, f, f_prime, t)
    return complex(coords @ x.coords)


def check_cocycle_identity(phi, s, t, f, f_prime):
    """Max residual over basis elements of the increment factorization

        l_{s+t}^{e',e} = l_s^{e'_1,e_1} * l_t^{e'_2,e_2}

    with e_1 from f on [0,s) and e_2 from the back-shifted f on [s, s+t).
    The three functionals are evaluated independently and convolved as
    coordinate vectors by :func:`~qlevy.convolution.convolve`'s contraction.
    An empty window, t = 0 or a t so small that s + t rounds onto s, has
    l_t = eps; t < 0 raises ``ValueError``."""
    if not t >= 0:   # a nan t fails this too
        raise ValueError("time must be nonnegative")
    phi = as_generator(phi)
    src = phi.source
    lhs = cocycle_functional(phi, f, f_prime, s + t)
    l1 = cocycle_functional(phi, f, f_prime, s)
    if s + t == s:
        l2 = src.counit.astype(complex)
    else:
        f2 = f.shifted_restriction(s, s + t)
        fp2 = f_prime.shifted_restriction(s, s + t)
        l2 = cocycle_functional(phi, f2, fp2, t)
    rhs = _convolved(src.coproduct, l1.reshape(-1, 1, 1), l2.reshape(-1, 1, 1))
    return maxabs(lhs - rhs.reshape(-1))


# -- simplex-series oracle -----------------------------------------------------

_GL_NODES = 16


def _legendre_integration(n):
    """The (n + 1, n) quadrature of Gauss-Legendre node values over [-1, 1]:
    row j < n integrates the Lagrange interpolant from -1 to the j-th node,
    row n over all of [-1, 1].

    Lagrange polynomials are expanded in Legendre polynomials, whose
    antiderivatives are closed-form; this keeps the matrix well conditioned.
    """
    nodes, gl_w = legendre.leggauss(n)
    # column l: the Legendre coefficients of the l-th Lagrange polynomial
    lagrange = (gl_w[:, None] * legendre.legvander(nodes, n - 1) * (np.arange(n) + 0.5)).T
    return np.vstack((legendre.legvander(nodes, n) @ legendre.legint(lagrange, lbnd=-1),
                      gl_w))


_GL_QUAD = _legendre_integration(_GL_NODES)


def simplex_series_oracle(phi, x, f, f_prime, t, n_max):
    """Truncated simplex-integral expansion of the matrix element.

    The n-th term integrates, over the ordered simplex 0 < s_1 < ... < s_n < t,
    the n-fold convolution of the sliced generators gamma_{s_i}; the correct
    pairing puts earlier times in earlier convolution slots (this is the
    order-reversing flip of the raw kernel).

    Integration is piecewise Gauss-Legendre (16 nodes per dimension) split at
    the step-function breakpoints, so each smooth piece is integrated exactly.
    Returns ``(value, tail_bound)`` with a rigorous bound on the dropped tail;
    raises :class:`NonFiniteCocycle` when either is not finite.
    """
    value, _, tail = simplex_series_within(phi, x, f, f_prime, t, 0.0, (n_max,))
    return value, tail


def simplex_series_within(phi, x, f, f_prime, t, slack, orders):
    """:func:`simplex_series_oracle` at the first order in ``orders`` whose
    tail bound is at most ``slack``, else at the last one, as ``(value,
    n_max, tail_bound)``; the bounds of all orders are taken in one call."""
    phi = as_generator(phi)
    pieces = _refined(phi, f, f_prime, t)
    lifts, pref = phi.source.lift(_gammas(phi, pieces)), pieces.prefactor()
    tails = _tail_bounds(phi, x, t, lifts, pref, orders)
    n_max, tail = next(((n, tail) for n, tail in zip(orders, tails) if tail <= slack),
                       (orders[-1], tails[-1]))
    return _simplex_series(phi, x, pieces, lifts, pref, n_max, tail), n_max, tail


def _simplex_series(phi, x, pieces, lifts, pref, n_max, tail):
    """The simplex series summed to order n_max over the pieces, level k
    taking H_k = integral of H_{k-1} @ lifts[i] over each piece i.  Raises
    :class:`NonFiniteCocycle` when the bound ``tail`` on what it drops, or
    the sum, is not finite: a gap checked against either certifies nothing."""
    if not np.isfinite(tail):
        raise NonFiniteCocycle(f"simplex series tail bound at order {n_max} not finite")
    src = phi.source
    d = src.dim
    eps = src.counit.astype(complex)
    half = 0.5 * pieces.durations[:, None, None]
    # per level: H_k at the GL nodes of every piece (pieces, nodes, d), each
    # piece starting from the running value at its left boundary
    nodes = np.broadcast_to(eps, (lifts.shape[0], _GL_NODES, d))
    total = eps.copy()
    # an overflow is reported once, by the NonFiniteCocycle raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for _level in range(n_max if lifts.shape[0] else 0):   # no pieces: the series is eps
            quad = half * (_GL_QUAD @ (nodes @ lifts))
            # the running value at the right end of every piece, added to the
            # nodes of the next piece in place
            ends = np.add.accumulate(quad[:, -1])
            nodes = quad[:, :-1]
            nodes[1:] += ends[:-1, None]
            total += ends[-1]
        value = complex(pref * (total @ x.coords))
    if not np.isfinite(value):
        raise NonFiniteCocycle(f"simplex series not finite at order {n_max}")
    return value


def _tail_bounds(phi, x, t, lifts, pref, orders):
    """Per order n the bound exp-tail(m t, n) ||eps|| ||x|| |prefactor| on
    the tail of the series summed over ``lifts``, m their largest 2-norm:
    the largest singular value of all of them, taken in one stacked SVD (the
    LAPACK call that ``np.linalg.norm(lifts, 2, axis=(1, 2))`` wraps)."""
    m = float(np.maximum.reduce(np.linalg.svd(lifts, compute_uv=False), axis=None,
                                initial=0.0))
    eps_norm = float(np.linalg.norm(phi.source.counit))
    x_norm = float(np.linalg.norm(x.coords))
    return [_exp_tail(m * t, n) * eps_norm * x_norm * abs(pref) for n in orders]


# -- toy Fock random walk ------------------------------------------------------

@dataclass
class ToyFockResult:
    vacuum: complex
    full: np.ndarray = None  # values (d, D^N, D^N) when requested


def toy_fock_step_map(phi, h):
    """One random-walk step: x -> eps(x) I + D_h phi(x) D_h, D_h = diag(sqrt h, I)."""
    phi = as_generator(phi)
    dh = bordered(np.sqrt(h), 0.0, 0.0, np.eye(phi.p - 1))
    vals = phi.source.counit[:, None, None] * np.eye(phi.p)[None, :, :] \
        + dh @ phi.values @ dh
    return OperatorMap(phi.source, vals)


def toy_fock_evolve(phi, x, t, steps, mode="slice"):
    """N-step toy-Fock approximation of the cocycle at time t.

    ``slice`` mode contracts the vacuum slot step by step (no size cap);
    ``full`` mode returns the whole map into the N-fold matrix tensor power
    and raises :class:`MemoryCapExceeded` above ``TOY_FOCK_CAP_BYTES``.
    """
    phi = as_generator(phi)
    if steps < 1:
        raise ValueError("need at least one step")
    src = phi.source
    h = t / steps
    if mode == "slice":
        m = np.eye(src.dim, dtype=complex) + h * src.lift(phi.lam_block().as_vector())
        coords = src.counit @ np.linalg.matrix_power(m, steps)
        return ToyFockResult(vacuum=complex(coords @ x.coords))
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")
    dim_total = phi.p ** steps
    need = src.dim * dim_total * dim_total * 16
    if need > TOY_FOCK_CAP_BYTES:
        raise MemoryCapExceeded(f"full toy-Fock map needs {need} bytes "
                                f"(cap {TOY_FOCK_CAP_BYTES})")
    walk = star_power(toy_fock_step_map(phi, h), steps)
    full = np.einsum("k,kab->ab", x.coords, walk.values)
    return ToyFockResult(vacuum=complex(full[0, 0]),
                         full=walk.values)


# -- weak quantum Levy process distributions ----------------------------------

def weak_qlp_moments(phi, intervals, elements):
    """Joint moment of increments over pairwise disjoint intervals:
    the product of the marginal vacuum-semigroup values.

    The weak axioms give no recipe for overlapping intervals, so those are
    rejected rather than guessed at.
    """
    if len(intervals) != len(elements):
        raise ValueError("need one element per interval")
    ivs = [(float(s), float(t)) for s, t in intervals]
    for s, t in ivs:
        if t <= s:
            raise ValueError(f"empty interval [{s}, {t})")
    for i, (s1, t1) in enumerate(ivs):
        for s2, t2 in ivs[i + 1:]:
            if max(s1, s2) < min(t1, t2) - 1e-15:
                raise OverlappingIntervals(
                    f"intervals [{s1},{t1}) and [{s2},{t2}) overlap")
    sg = vacuum_semigroup(phi)
    out = 1.0 + 0.0j
    for (s, t), x in zip(ivs, elements):
        out *= sg(t - s, x)
    return complex(out)


def vacuum_semigroup(phi):
    return ConvolutionSemigroup(as_generator(phi).lam_block())
