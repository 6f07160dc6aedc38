"""Convolution calculus for operator-valued maps on a bialgebra.

An :class:`OperatorMap` stores a linear map from the bialgebra into p x q
complex matrices by its values on basis elements; functionals are the
1 x 1 case.  The convolution of two maps is

    (phi1 * phi2)(x) = (phi1 (x) phi2)(Delta x),

with values in the Kronecker product.  The R-map lifts a map to a
"convolution operator" B -> B (x) M_p and the E-map slices back with the
counit; together they transport convolution identities to composition
identities, which is how semigroups are evolved here (matrix exponential
of the lifted generator).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (Bialgebra, ParseError, _block_chart, _decode, _encode, _parse_file,
                      _write_json)
from .blocks import counit_of_exponentials
from .linalg import dagger, maxabs, opnorm


@dataclass(frozen=True)
class OperatorMap:
    """Linear map B -> M_{p,q} stored by values on basis elements."""

    source: Bialgebra
    values: np.ndarray  # (d, p, q)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v.reshape(-1, 1, 1)
        if v.ndim != 3 or v.shape[0] != self.source.dim:
            raise ValueError(f"values must be (d, p, q), got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def p(self):
        return self.values.shape[1]

    @property
    def q(self):
        return self.values.shape[2]

    @property
    def is_functional(self):
        return self.values.shape[1:] == (1, 1)

    def as_vector(self):
        if not self.is_functional:
            raise ValueError("not a functional")
        return self.values[:, 0, 0].copy()

    def __call__(self, x):
        coords = x.coords if hasattr(x, "coords") else np.asarray(x, dtype=complex)
        out = np.einsum("k,kab->ab", coords, self.values)
        return complex(out[0, 0]) if self.is_functional else out

    def conjugate_map(self):
        """The map x -> phi(x*)^dagger (dagger of values at starred input)."""
        starred = self.source.star_matrix.T @ self.values.reshape(self.source.dim, -1)
        return OperatorMap(self.source, dagger(starred.reshape(self.values.shape)))

    def reality_defect(self):
        """Max deviation of phi(x*) from phi(x)^dagger over the basis."""
        return maxabs(self.conjugate_map().values - self.values)

    def to_dict(self):
        return {"source_hash": self.source.structural_hash(),
                "p": self.p, "q": self.q,
                "values": _encode(self.values)}

    def save(self, path):
        _write_json(path, self.to_dict())


def functional(source, vector):
    return OperatorMap(source, np.asarray(vector, dtype=complex).reshape(-1, 1, 1))


def counit_map(source):
    return functional(source, source.counit)


def load_operator_map(path, source):
    def parse(data):
        vals = _decode(data["values"], 3)
        want = data.get("source_hash")
        if want and want != source.structural_hash():
            raise ParseError(f"operator map was saved for bialgebra {want}, "
                             f"got {source.structural_hash()}")
        return OperatorMap(source, vals)
    return _parse_file(path, "operator-map", parse)


# -- convolution and the R/E maps -------------------------------------------

def convolve(phi1, phi2):
    """phi1 * phi2 = (phi1 (x) phi2) o Delta."""
    if not phi1.source.same_structure(phi2.source):
        raise ValueError("convolution requires a common source bialgebra")
    d = phi1.source.dim
    # kept: on C(G) each coproduct slice has several nonzero terms, whose order sets the bytes
    out = np.einsum("kij,iab,jcd->kacbd", phi1.source.coproduct,
                    phi1.values, phi2.values)
    return OperatorMap(phi1.source,
                       out.reshape(d, phi1.p * phi2.p, phi1.q * phi2.q))


def star_power(phi, n):
    """n-fold convolution power; the 0-th power is the counit."""
    if n == 0:
        return counit_map(phi.source)
    out = phi
    for _ in range(n - 1):
        out = convolve(out, phi)
    return out


@dataclass(frozen=True)
class LiftedMap:
    """A map B -> B (x) M_{p,q} in coordinates: data[k, i] is the M_{p,q}
    coefficient of e_i in the image of e_k."""

    source: Bialgebra
    data: np.ndarray  # (d, d, p, q)

    def __post_init__(self):
        t = np.asarray(self.data, dtype=complex)
        d = self.source.dim
        if t.ndim != 4 or t.shape[:2] != (d, d):
            raise ValueError(f"lifted map tensor must be (d, d, p, q), got {t.shape}")
        object.__setattr__(self, "data", t)

    @property
    def p(self):
        return self.data.shape[2]

    def apply(self, coords):
        """Image of an element, as a (d, p, q) coefficient array."""
        return np.einsum("k,kiab->iab", np.asarray(coords, dtype=complex), self.data)

    def conjugate_map(self):
        s = self.source.star_matrix
        t = np.einsum("mk,ai,mipq->kaqp",
                      np.conjugate(s), s, np.conjugate(self.data))
        return LiftedMap(self.source, t)


def r_map(phi):
    """R phi = (id (x) phi) o Delta, the convolution-operator lift of phi."""
    t = phi.source.lift(phi.values.transpose(1, 2, 0))   # (p, q, i, k)
    return LiftedMap(phi.source, t.transpose(3, 2, 0, 1))


def e_map(lifted):
    """E Phi = (eps (x) id) o Phi; inverts r_map exactly."""
    vals = np.einsum("i,kiab->kab", lifted.source.counit, lifted.data)
    return OperatorMap(lifted.source, vals)


def lifted_compose(lift1, lift2):
    """Tensor-extended composition (R phi1 . R phi2): apply lift2 first and
    lift1 on the bialgebra leg of its output; equals r_map(phi1 * phi2)."""
    if not lift1.source.same_structure(lift2.source):
        raise ValueError("source mismatch")
    d = lift1.source.dim
    t = np.einsum("miab,kmcd->kiacbd", lift1.data, lift2.data)
    return LiftedMap(lift1.source,
                     t.reshape(d, d, lift1.p * lift2.p,
                               lift1.data.shape[3] * lift2.data.shape[3]))


# -- convolution semigroups ---------------------------------------------------

def conv_exp(gamma, t):
    """The convolution exponential exp_* (t gamma) as a functional:
    :meth:`ConvolutionSemigroup.at`, eps o expm(t R_* gamma) on the lifted
    d x d generator.  Negative t is accepted and evaluates the same formula
    (a formal reverse-time value)."""
    return ConvolutionSemigroup(gamma).at(t)


def series_exp(gamma, t, n_max=None):
    """The truncated *-power series of exp_* (t gamma), kept as an oracle for
    :func:`conv_exp`: terms are added until the tail bound
    sum_{n>N} |t|^n ||tau||^n / n! falls below 1e-14, or up to n_max terms
    (80 when None).  Raises :class:`NonFiniteCocycle`, naming the order, when
    a partial sum is not finite.
    """
    src = gamma.source
    tau_norm = opnorm(src.lift(gamma.as_vector()))
    coords = src.counit.astype(complex).copy()
    power = functional(src, src.counit)
    coef = 1.0
    n = 0
    limit = n_max if n_max is not None else 80
    # an overflow is reported once, by the NonFiniteCocycle raised below
    with np.errstate(over="ignore", invalid="ignore"):
        while n < limit:
            n += 1
            power = convolve(power, gamma)
            coef *= t / n
            coords = coords + coef * power.as_vector()
            if not np.isfinite(coords).all():
                raise NonFiniteCocycle(f"series_exp partial sum not finite at order {n}, "
                                       f"t = {float(t)!r}")
            if n_max is None and _exp_tail(abs(t) * tau_norm, n) < 1e-14:
                break
    return functional(src, coords)


def _exp_tail(z, n):
    """Sum_{k > n} z^k / k! for z >= 0, summed forward to avoid cancellation;
    inf when 400 terms do not reach it."""
    k = n + 1
    term = 1.0
    for j in range(1, k + 1):
        term *= z / j
    total = 0.0
    for _ in range(400):
        total += term
        k += 1
        term *= z / k
        if term < 1e-18 * max(total, 1.0):
            return total + term
    return float("inf")


class NonFiniteCocycle(ValueError):
    """A semigroup or cocycle evaluation overflowed; the message names the
    time, the order of a series' partial sum, or the first piece whose
    semigroup factor, running product or prefactor is not finite."""


class ConvolutionSemigroup:
    """lambda_t = exp_*(t gamma), with the blocks of its lifted generator
    cached."""

    def __init__(self, gamma):
        if not gamma.is_functional:
            raise ValueError("semigroup generator must be a functional")
        self.generator = gamma
        self.source = gamma.source
        self._blocks = self.source.dual_blocks()
        self._entries = gamma.as_vector() @ self._blocks.table

    def at(self, t):
        """lambda_t; raises :class:`NonFiniteCocycle` when it overflows."""
        m = self._blocks.characters
        with np.errstate(over="ignore", invalid="ignore"):
            entries = float(t) * self._entries
            coords = counit_of_exponentials(self._blocks, entries[:m], entries[None, m:])
        if not np.isfinite(coords).all():
            raise NonFiniteCocycle(f"semigroup value not finite at t = {float(t)!r}")
        return functional(self.source, coords)

    def __call__(self, t, x):
        return self.at(t)(x)


def semigroup_generator(phi, c_prime, c):
    """The functional x -> < (1, c'), phi(x) (1, c) > for a stochastic
    generator phi with values on C + k."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    c_prime = np.asarray(c_prime, dtype=complex).reshape(-1)
    if phi.p != phi.q:
        raise ValueError("stochastic generator must be square")
    if phi.p != 1 + c.size or phi.p != 1 + c_prime.size:
        raise ValueError(f"noise dimension mismatch: map size {phi.p}, "
                         f"vectors {c_prime.size}, {c.size}")
    chat = np.concatenate(([1.0], c))
    chat_p = np.concatenate(([1.0], c_prime))
    vec = np.einsum("a,kab,b->k", np.conjugate(chat_p), phi.values, chat)
    return functional(phi.source, vec)


# -- amplified norm (lower-bound estimation) ---------------------------------

def amplified_norm(phi, n, n_starts=32, n_iters=300, seed=7, return_point=False):
    """Lower estimate of ||phi^{(n)}|| over the represented unit ball.

    Maximizes ||sum_i phi(e_i) (x) C_i|| / ||sum_i rho0(e_i) (x) C_i|| by
    alternating maximization from ``n_starts`` random seeds, all ascended as
    one stack, for at most ``n_iters`` steps each.  The unit ball of the
    C*-algebra rho0(A) (x) M_n is the convex hull of its unitaries (Russo and
    Dye, 1966), so the convex ratio peaks at a unitary: each step takes the
    top singular pair (u, v) of the numerator and moves to the point of the
    ball that maximizes Re <u, a v>, block by block the unitary polar factor
    of its gradient.  No step lowers the ratio, and a start stops once a step
    gains at most 1e-12 relative.  The reported value is the ratio at the
    returned point, a certified lower bound for the amplified norm; exact
    equality is never asserted.  For maps into M_p, ||phi^{(p)}|| is the cb
    norm (Smith's lemma).  Raises ValueError for n < 1, n_starts < 0,
    non-finite values of phi, and a ratio that overflows.
    """
    if n < 1:
        raise ValueError(f"amplified_norm: n must be >= 1, got {n}")
    if n_starts < 0:
        raise ValueError(f"amplified_norm: n_starts must be >= 0, got {n_starts}")
    if not np.isfinite(phi.values).all():
        raise ValueError("amplified_norm: phi has non-finite values")
    src = phi.source
    draws = np.random.default_rng(seed).standard_normal((n_starts, 2, src.dim, n, n))
    starts = draws[:, 0] + 1j * draws[:, 1]
    best_val, best_c = 0.0, None
    if n_starts:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                vals, points = _alternating_ascent(phi.values, src.rep_images,
                                                   src.rep_blocks, starts, n_iters)
        except np.linalg.LinAlgError as e:   # a non-finite point reaches eigh or svd
            raise ValueError(f"amplified_norm overflowed: {e}") from e
        k = int(np.argmax(vals))
        if not np.isfinite(vals[k]):
            raise ValueError(f"amplified_norm overflowed: the ratio reached is {vals[k]}")
        if vals[k] > 0.0:
            best_val, best_c = float(vals[k]), points[k]
    if return_point:
        return best_val, best_c
    return best_val


def _alternating_ascent(values, rep, blocks, c, iters):
    """Alternating maximization of the ratio from every start of the stack c
    (s, d, n, n) at once; each start stops on its own.  Returns the ratios at
    the points reached (s,) and the points (s, d, n, n).

    The points move as block entries: C has X = R^T C, R the (d, D) chart
    whose row i lists the entries of rho0(e_i)'s diagonal blocks
    (D = sum_b n_b^2), and X returns as C = P^T X, P the chart inverse of
    :func:`_block_chart` (R^-1 from one LU solve when R is square and well
    conditioned, else R^+).  rho0 of that C is the orthogonal projection of
    X onto rho0(A)'s block entries, the trace-preserving conditional
    expectation onto rho0(A) (x) M_n, so a blockwise unitary X gives
    ||rho0(C)|| <= 1 (= 1 when D = d), and from the first step on the
    numerator's sigma_max never falls."""
    d, p, q = values.shape
    s, _, n, _ = c.shape
    # the values are taken scaled by 2^-k, k the binary exponent of their max
    # (at least -1022, so that 2^k is a normal float): exact, so the
    # trajectory is the one the unscaled map takes, while the Gram matrices,
    # which square the range, stay near 1
    k = int(np.frexp(np.abs(values).max())[1]) - 1
    scale = 2.0 ** max(k, -1022)
    values = values.reshape(d, -1) / scale
    chart, inverse, counts = _block_chart(rep, blocks)   # (d, D), (D, d)
    charted = inverse @ values                           # values as a map of X
    sides = (charted.T, np.conjugate(charted), p, q)
    x = (chart.T @ c.reshape(s, d, n * n)).reshape(s, -1, n, n)
    h = _top_pair(sides, x)[1]
    prev = np.full(s, -np.inf)
    active = np.ones(s, dtype=bool)
    for _ in range(iters):
        # a stopped start is evaluated too, harmlessly, and never updated
        trial = _polar_step(h, counts)
        val, h = _top_pair(sides, trial)
        x = np.where((active & (val > prev))[:, None, None, None], trial, x)
        active &= val > prev * (1.0 + 1e-12)
        prev = val
        if not active.any():
            break
    c = (inverse.T @ x.reshape(s, -1, n * n)).reshape(s, d, n, n)
    sa = _sigma_max(values.T, c, p, q)
    sr = _sigma_max(rep.reshape(d, -1).T, c, *rep.shape[1:])
    return scale * (sa / np.where(sr >= 1e-300, sr, np.inf)), c   # r = 0: ratio 0


def _assemble(rows, x, p, q):
    """a_s = sum_k m_k (x) x[s, k] for each start s, shaped (s, p n, q n),
    from the rows (p q, K) of the flattened m_k and x (s, K, n, n)."""
    s, _, n, _ = x.shape
    a = rows @ x.reshape(s, -1, n * n)
    return a.reshape(s, p, q, n, n).transpose(0, 1, 3, 2, 4).reshape(s, p * n, q * n)


def _sigma_max(rows, x, p, q):
    a = _assemble(rows, x, p, q)
    return np.sqrt(np.linalg.eigvalsh(dagger(a) @ a)[:, -1])


def _top_pair(sides, x):
    """sigma_max of the numerator a at each start of the block entries x
    (s, D, n, n), from one stacked eigh of a^dagger a, and the gradient h
    (s, D, n, n) of Re <a v, a(x) v> in x, v the top right singular vector,
    conjugated so that Re <a v, a(x) v> = Re sum conj(h) x."""
    rows, conj_rows, p, q = sides
    s, _, n, _ = x.shape
    a = _assemble(rows, x, p, q)
    lam, vecs = np.linalg.eigh(dagger(a) @ a)
    v = vecs[:, :, -1:]
    outer = (a @ v).reshape(s, p, 1, n, 1) * np.conjugate(v).reshape(s, 1, q, 1, n)
    return np.sqrt(lam[:, -1]), (conj_rows @ outer.reshape(s, p * q, n * n)).reshape(x.shape)


def _polar_step(h, counts):
    """The point x of the unit ball that maximizes Re sum conj(h) x: block by
    block the unitary polar factor W V^dagger of h = W S V^dagger, from one
    stacked SVD per block size; ``counts`` pairs each block size with its
    number of blocks, in the chart's order."""
    s, _, n, _ = h.shape
    out, ofs = [], 0
    for m, count in counts:
        span = count * m * m
        g = h[:, ofs:ofs + span].reshape(s, count, m, m, n, n).swapaxes(3, 4)
        w, _, vh = np.linalg.svd(g.reshape(s, count, m * n, m * n))
        out.append((w @ vh).reshape(s, count, m, n, m, n).swapaxes(3, 4).reshape(s, span, n, n))
        ofs += span
    return np.concatenate(out, axis=1)
