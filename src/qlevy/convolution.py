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

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import Bialgebra, ParseError, _j2mat, _mat2j, _parse_file
from .linalg import maxabs, opnorm


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
        s = self.source.star_matrix
        vals = np.einsum("mk,mab->kba", np.conjugate(s), np.conjugate(self.values))
        return OperatorMap(self.source, vals)

    def reality_defect(self):
        """Max deviation of phi(x*) from phi(x)^dagger over the basis."""
        return maxabs(self.conjugate_map().values - self.values)

    def to_dict(self):
        return {"source_hash": self.source.structural_hash(),
                "p": self.p, "q": self.q,
                "values": [_mat2j(m) for m in self.values]}

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def functional(source, vector):
    return OperatorMap(source, np.asarray(vector, dtype=complex).reshape(-1, 1, 1))


def counit_map(source):
    return functional(source, source.counit)


def load_operator_map(path, source):
    def parse(data):
        vals = np.array([_j2mat(m) for m in data["values"]])
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
    t = np.einsum("kij,jab->kiab", phi.source.coproduct, phi.values)
    return LiftedMap(phi.source, t)


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


def lifted_matrix(gamma):
    """The d x d matrix of R_* gamma acting on coordinate vectors."""
    if not gamma.is_functional:
        raise ValueError("lifted_matrix expects a functional")
    return np.einsum("kij,j->ik", gamma.source.coproduct, gamma.as_vector())


# -- convolution semigroups ---------------------------------------------------

def conv_exp(gamma, t, method="expm", n_max=None):
    """The convolution exponential exp_* (t gamma) as a functional.

    Default route: :meth:`ConvolutionSemigroup.at`, eps o expm(t R_* gamma)
    on the lifted d x d generator.  ``method="series"`` retains the
    truncated *-power series as an oracle; terms are added until the tail
    bound sum_{n>N} |t|^n ||tau||^n / n! falls below 1e-14 (or n_max is
    reached).  Negative t is accepted and evaluates the same formulas (a
    formal reverse-time value).
    """
    if method == "expm":
        return ConvolutionSemigroup(gamma).at(t)
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    src = gamma.source
    tau_norm = opnorm(lifted_matrix(gamma))
    coords = src.counit.astype(complex).copy()
    power = functional(src, src.counit)
    coef = 1.0
    n = 0
    limit = n_max if n_max is not None else 80
    while n < limit:
        n += 1
        power = convolve(power, gamma)
        coef *= t / n
        coords = coords + coef * power.as_vector()
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
    time, or the first piece whose semigroup factor, running product or
    prefactor is not finite."""


class ConvolutionSemigroup:
    """lambda_t = exp_*(t gamma), with the lifted generator cached."""

    def __init__(self, gamma):
        if not gamma.is_functional:
            raise ValueError("semigroup generator must be a functional")
        self.generator = gamma
        self.source = gamma.source
        self.lifted_generator = lifted_matrix(gamma)

    def at(self, t):
        """lambda_t; raises :class:`NonFiniteCocycle` when it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            coords = self.source.counit @ expm(float(t) * self.lifted_generator)
        if not np.isfinite(coords).all():
            raise NonFiniteCocycle(f"semigroup value not finite at t = {float(t)!r}")
        return functional(self.source, coords)

    def __call__(self, t, x=None):
        lam = self.at(t)
        return lam if x is None else lam(x)


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

def amplified_norm(phi, n, n_starts=32, n_iters=300, seed=7, warm_starts=None,
                   return_point=False):
    """Lower estimate of ||phi^{(n)}|| over the represented unit ball.

    Maximizes ||sum_i phi(e_i) (x) C_i|| / ||sum_i rho0(e_i) (x) C_i|| by
    projected gradient ascent from ``n_starts`` random seeds (plus any
    supplied warm starts).  The reported value is always a certified lower
    bound for the amplified norm; exact equality is never asserted.
    """
    src = phi.source
    d = src.dim
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
              for _ in range(n_starts)]
    if warm_starts:
        starts = list(warm_starts) + starts
    best_val, best_c = 0.0, None
    for c0 in starts:
        val, c = _ratio_ascent(phi.values, src.rep_images, c0, n_iters)
        if val > best_val:
            best_val, best_c = val, c
    if return_point:
        return best_val, best_c
    return best_val


def amplified_norm_profile(phi, n_max, **kw):
    """Estimates for levels 1..n_max, warm-starting each level with the
    padded maximizer from the previous one (so the profile is nondecreasing
    by construction)."""
    out = []
    prev_point = None
    for n in range(1, n_max + 1):
        warm = None
        if prev_point is not None:
            padded = np.zeros((phi.source.dim, n, n), dtype=complex)
            padded[:, :n - 1, :n - 1] = prev_point
            warm = [padded]
        val, pt = amplified_norm(phi, n, warm_starts=warm, return_point=True, **kw)
        out.append(val)
        prev_point = pt
    return out


def _assemble(values, coeffs):
    # sum_i values[i] (x) coeffs[i]
    p, q = values.shape[1:]
    n = coeffs.shape[1]
    m = np.einsum("iab,icd->acbd", values, coeffs)
    return m.reshape(p * n, q * n)


def _ratio_ascent(values, rep, c, iters):
    # an accepted point keeps its gradient, rescaled with c: ratio(s c) = ratio(c)
    c = c / max(1e-300, maxabs(c))
    step = 0.5
    val, g = _ratio_and_grad(values, rep, c)
    for _ in range(iters):
        gn = maxabs(g)
        if gn < 1e-14:
            break
        c_new = c + step * g / gn
        v_new, g_new = _ratio_and_grad(values, rep, c_new)
        if v_new > val:
            s = max(1e-300, maxabs(c_new))
            c, val, g = c_new / s, v_new, g_new * s
            step = min(step * 1.3, 2.0)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return val, c


def _ratio_and_grad(values, rep, c):
    """The ratio sigma_max(a) / sigma_max(r) of the values and rep matrices
    assembled at c, with its ascent direction in c; (0, 0) when r vanishes."""
    sa, ga = _top_singular(values, c)
    sr, gr = _top_singular(rep, c)
    if sr < 1e-300:
        return 0.0, np.zeros_like(c)
    return float(sa / sr), np.conjugate((ga * sr - sa * gr) / sr ** 2)


def _top_singular(values, c):
    """sigma_max of a = sum_i values[i] (x) c[i], from one SVD, and its
    derivative u^dagger (values[i] (x) E_nm) v along each entry of c."""
    u, s, vh = np.linalg.svd(_assemble(values, c))
    umat = u[:, 0].reshape(-1, c.shape[1])
    wmat = vh[0].conj().reshape(-1, c.shape[1])
    return s[0], np.einsum("an,iab,bm->inm", np.conjugate(umat), values, wmat)
