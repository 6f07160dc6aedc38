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

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import expm

from .convolution import (ConvolutionSemigroup, NonFiniteCocycle, OperatorMap,
                          _exp_tail, conv_exp, convolve, functional,
                          lifted_matrix, semigroup_generator, star_power)
from .linalg import SPECTRAL_TOL, maxabs, opnorm

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
    dqs = np.eye(p, dtype=complex)
    dqs[0, 0] = 0.0
    return dqs


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function [0, t_m) -> C^{d_noise}."""

    breakpoints: np.ndarray  # (m+1,), starts at 0, strictly increasing
    values: np.ndarray       # (m, d_noise)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.atleast_2d(np.asarray(self.values, dtype=complex))
        if bp.ndim != 1 or bp.size < 2 or abs(bp[0]) > 1e-15:
            raise ValueError("breakpoints must start at 0 with at least one piece")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape[0] != bp.size - 1:
            raise ValueError("need one value row per piece")
        if not np.all(np.isfinite(vals)):
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
        return self._values_at(np.array([s], dtype=float))[0]

    def _values_at(self, s):
        """Values at nondecreasing times s, one row per time."""
        if s.size and not (s[0] >= 0 and s[-1] < self.horizon):
            bad = s[~((s >= 0) & (s < self.horizon))][0]
            raise HorizonMismatch(f"time {bad} outside [0, {self.horizon})")
        return self.values[self.breakpoints.searchsorted(s, side="right") - 1]

    def shifted_restriction(self, a, b):
        """The step function u -> f(a + u) on [0, b - a)."""
        if a < -1e-12 or b > self.horizon + HORIZON_SLACK or b <= a:
            raise HorizonMismatch(f"[{a}, {b}) not inside [0, {self.horizon})")
        # breakpoints are kept by their shifted value, so that none
        # rounds onto the new horizon b - a
        bp = self.breakpoints
        shifted = bp - a
        inside = (shifted > 0.0) & (shifted < b - a)
        starts = np.concatenate(([a], bp[inside]))
        vals = self._values_at(np.minimum(starts, np.nextafter(self.horizon, 0.0)))
        return StepFunction(np.concatenate(([0.0], shifted[inside], [b - a])), vals)


def _refine(f, f_prime, t):
    """Common refinement of f, f' over [0, t] as arrays: the points (n + 1,)
    bounding the n pieces, their durations (n,), and the values (n, d_noise)
    of f and of f' on each piece.  A point within 1e-12 of the last one kept
    is merged into it.
    """
    if f.d_noise != f_prime.d_noise:
        raise ValueError("step functions live in different noise spaces")
    if f.horizon < t - HORIZON_SLACK or f_prime.horizon < t - HORIZON_SLACK:
        raise HorizonMismatch(f"step functions must cover [0, {t}]")
    pts = np.concatenate([[0.0, t], f.breakpoints, f_prime.breakpoints])
    pts = np.unique(pts[(pts >= 0.0) & (pts <= t)])
    dts = pts[1:] - pts[:-1]
    if dts.min() <= 1e-12:
        merged = [pts[0]]
        for p in pts[1:]:
            if p - merged[-1] > 1e-12:
                merged.append(p)
        if abs(merged[-1] - t) > 1e-12:
            merged.append(t)
        pts = np.array(merged)
        dts = pts[1:] - pts[:-1]
    mids = 0.5 * (pts[:-1] + pts[1:])
    return pts, dts, f._values_at(mids), f_prime._values_at(mids)


def refine_pair(f, f_prime, t):
    """Common-refinement pieces of f, f' over [0, t].

    Returns a list of (duration, c, c') triples; near-coincident breakpoints
    (within 1e-12) are merged.
    """
    _, dts, c, cp = _refine(f, f_prime, t)
    return list(zip(dts, c, cp))


def _inner_products(c, c_prime):
    """<c'_i, c_i> for every piece, one ``np.vdot`` each."""
    return np.array([np.vdot(b, a) for a, b in zip(c, c_prime)], dtype=complex)


def exp_inner_product(f, g, t):
    """< eps(f), eps(g) > = exp of the integral of <f(s), g(s)> over [0, t]."""
    _, dts, cf, cg = _refine(f, g, t)
    total = 0.0 + 0.0j
    for term in dts * _inner_products(cg, cf):
        total += term
    return complex(np.exp(total))


# -- stochastic generators ----------------------------------------------------

class Generator(OperatorMap):
    """An operator map into B(C + k) with block accessors (lam, delta, nu)."""

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

def _pieces(phi, f, f_prime, t):
    """The common refinement of f, f' over [0, t] (see :func:`_refine`) and
    per piece the generator x -> <(1,c'), phi(x) (1,c)> in coordinates (n, d)
    and its lifted d x d matrix (n, d, d)."""
    for g in (f, f_prime):
        if g.d_noise != phi.d_noise:
            raise ValueError(f"noise dimension mismatch: generator {phi.d_noise}, "
                             f"step function {g.d_noise}")
    pts, dts, c, cp = _refine(f, f_prime, t)
    chat = np.empty((dts.size, phi.p), dtype=complex)
    chat_p = np.empty_like(chat)
    chat[:, 0] = chat_p[:, 0] = 1.0
    chat[:, 1:] = c
    chat_p[:, 1:] = cp
    gammas = np.einsum("na,kab,nb->nk", np.conjugate(chat_p), phi.values, chat)
    lifted = np.einsum("kij,nj->nik", phi.source.coproduct, gammas)
    return pts, dts, c, cp, gammas, lifted


def _expm_stack(a):
    """expm of every slice of a C-contiguous (n, d, d) stack.  A stack of
    diagonal matrices (every group algebra) is exponentiated entrywise,
    which is the branch ``scipy.linalg.expm`` takes for each diagonal slice."""
    n, d, _ = a.shape
    # row i of this view holds the d entries that follow a[:, i, i] in memory;
    # together the rows hold every off-diagonal entry
    if a.reshape(n, d * d)[:, :-1].reshape(n, d - 1, d + 1)[:, :, 1:].any():
        return expm(a)
    out = np.zeros_like(a)
    idx = np.arange(d)
    out[:, idx, idx] = np.exp(a[:, idx, idx])
    return out


def cocycle_functional(phi, f, f_prime, t, reverse=False):
    """Coordinates of the functional x -> < eps(f'), l_t(x) eps(f) >.

    The inner-product prefactor over [0, t] is included.  ``reverse=True``
    composes the per-interval semigroup factors in reverse interval order,
    which is the opposite cocycle.  All pieces are refined, lifted and
    exponentiated in a few array calls; the factors are then multiplied left
    to right, one d x d product per piece.  Raises :class:`NonFiniteCocycle`
    when the result overflows.
    """
    phi = as_generator(phi)
    src = phi.source
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return src.counit.astype(complex).copy()
    pts, dts, c, cp, _, lifted = _pieces(phi, f, f_prime, t)
    order = range(dts.size - 1, -1, -1) if reverse else range(dts.size)
    # an overflow is reported once, by the NonFiniteCocycle raised below
    with np.errstate(over="ignore", invalid="ignore"):
        factors = _expm_stack(dts[:, None, None] * lifted)
        scalars = np.exp(dts * _inner_products(c, cp))
        lift = np.eye(src.dim, dtype=complex)
        pref = 1.0 + 0.0j
        for i in order:
            lift = lift @ factors[i]
            pref *= scalars[i]
        coords = pref * (src.counit @ lift)
        if not np.isfinite(coords).all() or not np.isfinite(pref):
            _raise_non_finite(src, pts, factors, scalars, order)
    return coords


def _raise_non_finite(src, pts, factors, scalars, order):
    """Walk the pieces again in product order and name the first one whose
    factor, running product or running prefactor is not finite."""
    lift = np.eye(src.dim, dtype=complex)
    pref = 1.0 + 0.0j
    for i in order:
        lift = lift @ factors[i]
        pref *= scalars[i]
        for what, value in (("semigroup factor", factors[i]),
                            ("prefactor", scalars[i]),
                            ("product of factors", lift),
                            ("running prefactor", pref)):
            if not np.all(np.isfinite(value)):
                raise NonFiniteCocycle(
                    f"{what} not finite at piece {i} on "
                    f"[{float(pts[i])!r}, {float(pts[i + 1])!r})")
    raise NonFiniteCocycle("cocycle coordinates not finite")


def matrix_element(phi, x, f, f_prime, t):
    """< eps(f'_{[0,t[}), l_t(x) eps(f_{[0,t[}) > for the cocycle generated by phi."""
    coords = cocycle_functional(phi, f, f_prime, t)
    return complex(coords @ x.coords)


def opposite_matrix_element(phi, x, f, f_prime, t):
    """Matrix element of the opposite cocycle: same semigroup factors,
    composed in reverse interval order."""
    coords = cocycle_functional(phi, f, f_prime, t, reverse=True)
    return complex(coords @ x.coords)


def check_cocycle_identity(phi, s, t, f, f_prime):
    """Max residual over basis elements of the increment factorization

        l_{s+t}^{e',e} = l_s^{e'_1,e_1} * l_t^{e'_2,e_2}

    with e_1 from f on [0,s) and e_2 from the back-shifted f on [s, s+t)."""
    phi = as_generator(phi)
    src = phi.source
    lhs = cocycle_functional(phi, f, f_prime, s + t)
    l1 = functional(src, cocycle_functional(phi, f, f_prime, s))
    if t == 0:
        l2 = functional(src, src.counit)
    else:
        f2 = f.shifted_restriction(s, s + t)
        fp2 = f_prime.shifted_restriction(s, s + t)
        l2 = functional(src, cocycle_functional(phi, f2, fp2, t))
    rhs = convolve(l1, l2).as_vector()
    return maxabs(lhs - rhs)


# -- simplex-series oracle -----------------------------------------------------

_GL_NODES = 16


def _legendre_integration(nodes):
    """S[j, l] = integral of the l-th Lagrange basis polynomial (on the GL
    nodes, over [-1, 1]) from -1 to nodes[j]; w[l] = integral over [-1, 1].

    Lagrange polynomials are expanded in Legendre polynomials, whose
    antiderivatives are closed-form; this keeps the matrix well conditioned.
    """
    n = nodes.size
    _, gl_w = legendre.leggauss(n)
    # column l: the Legendre coefficients of the l-th Lagrange polynomial
    lagrange = (gl_w[:, None] * legendre.legvander(nodes, n - 1) * (np.arange(n) + 0.5)).T
    return legendre.legvander(nodes, n) @ legendre.legint(lagrange, lbnd=-1), gl_w


_GLX, _ = legendre.leggauss(_GL_NODES)
_GLS, _GLW = _legendre_integration(_GLX)


def simplex_series_oracle(phi, x, f, f_prime, t, n_max, apply_order_reversal=True):
    """Truncated simplex-integral expansion of the matrix element.

    The n-th term integrates, over the ordered simplex 0 < s_1 < ... < s_n < t,
    the n-fold convolution of the sliced generators gamma_{s_i}; the correct
    pairing puts earlier times in earlier convolution slots (this is the
    order-reversing flip of the raw kernel).  With
    ``apply_order_reversal=False`` the unflipped pairing is summed instead,
    which is the expansion of the *opposite* cocycle: it disagrees with
    :func:`matrix_element` on noncocommutative coalgebras and converges to
    :func:`opposite_matrix_element`.

    Integration is piecewise Gauss-Legendre (16 nodes per dimension) split at
    the step-function breakpoints, so each smooth piece is integrated exactly.
    Returns ``(value, tail_bound)`` with a rigorous bound on the dropped tail.
    """
    phi = as_generator(phi)
    src = phi.source
    d = src.dim
    _, dts, c, cp, gammas, taus = _pieces(phi, f, f_prime, t)
    pref = np.exp(sum(dts * _inner_products(c, cp)))
    # H_{k-1} attached in the earlier (flipped) or the later convolution slot
    spec = "kij,ni,j->nk" if apply_order_reversal else "kij,nj,i->nk"
    eps = src.counit.astype(complex)
    total = eps.copy()
    # per level: values of H_k at the GL nodes of every piece, plus the
    # running value at each piece boundary
    prev_nodes = [np.tile(eps, (_GL_NODES, 1)) for _ in dts]
    for _level in range(1, n_max + 1):
        cur_nodes = []
        boundary = np.zeros(d, dtype=complex)
        for idx, dt in enumerate(dts):
            integrand = np.einsum(spec, src.coproduct, prev_nodes[idx], gammas[idx])
            half = dt / 2.0
            node_vals = boundary[None, :] + half * (_GLS @ integrand)
            boundary = boundary + half * (_GLW @ integrand)
            cur_nodes.append(node_vals)
        total = total + boundary
        prev_nodes = cur_nodes
    value = complex(pref * (total @ x.coords))
    m = max((opnorm(tau) for tau in taus), default=0.0)
    tail = _exp_tail(m * t, n_max) * float(np.linalg.norm(src.counit)) \
        * float(np.linalg.norm(x.coords)) * abs(pref)
    return value, tail


def constant_collapse(phi, x, c, c_prime, t, n_max):
    """Sum_{n<=n_max} t^n/n! (omega_{c',c} o phi)^{*n}(x): the collapsed form
    of the simplex series for constant step data."""
    gamma = semigroup_generator(as_generator(phi), c_prime, c)
    total = conv_exp(gamma, t, method="series", n_max=n_max)(x)
    return complex(np.exp(t * np.vdot(np.asarray(c_prime), np.asarray(c))) * total)


# -- toy Fock random walk ------------------------------------------------------

@dataclass
class ToyFockResult:
    vacuum: complex
    full: np.ndarray = None  # values (d, D^N, D^N) when requested


def toy_fock_step_map(phi, h):
    """One random-walk step: x -> eps(x) I + D_h phi(x) D_h, D_h = diag(sqrt h, I)."""
    phi = as_generator(phi)
    dh = np.eye(phi.p, dtype=complex)
    dh[0, 0] = np.sqrt(h)
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
        m = np.eye(src.dim, dtype=complex) + h * lifted_matrix(phi.lam_block())
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
