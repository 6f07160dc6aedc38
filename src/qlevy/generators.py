"""Construction and classification of stochastic generators.

Three routes are implemented:

* chi-structure maps implemented by a representation, a character chi and
  a vector; the counit case chi = eps generates the *-homomorphic cocycles;
* completely positive generator forms built from a quadruple
  (representation, contraction D, vector xi, value at 1), which generate
  the completely positive contractive cocycles;
* GNS reconstruction of a generator from a real, conditionally positive
  functional vanishing at 1 (the generator datum of a quantum Levy process).

Everything returns residual reports rather than proofs; each pass/fail
threshold is one of the named tolerances of :mod:`qlevy.linalg`.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra
from .cocycle import Generator, as_generator, delta_qs
from .convolution import OperatorMap, counit_map
from .linalg import (RCOND, SOLVE_TOL, SPECTRAL_TOL, STRUCT_TOL, bordered, dagger,
                     maxabs, min_eig_herm, numerical_rank, opnorm, rank_of)


# -- representation utilities -------------------------------------------------

def representation_defect(pi):
    """Max residual of unitality, multiplicativity and star-preservation."""
    return algebra.representation_defect(pi.source, pi.values, (pi.p,))


def is_character(chi):
    return chi.is_functional and representation_defect(chi) <= SPECTRAL_TOL


def derivation_defect(pi_prime, pi, delta):
    """Max residual over basis pairs of the Leibniz relation
    delta(e_i e_j) = delta(e_i) pi(e_j) + pi'(e_i) delta(e_j)."""
    dv = delta.values
    d = dv.shape[0]
    lhs = (pi.source.mult.reshape(d * d, d) @ dv.reshape(d, -1)).reshape(d, d, *dv.shape[1:])
    # kept: "iab,jbc->ijac" sums several nonzero terms, whose order sets the bytes
    rhs = np.einsum("iab,jbc->ijac", dv, pi.values) \
        + np.einsum("iab,jbc->ijac", pi_prime.values, dv)
    return maxabs(lhs - rhs)


# -- Schurmann triples ---------------------------------------------------------

@dataclass
class SchurmannTriple:
    """(pi, delta, lam): a *-representation, a (pi, eps)-derivation into
    columns, and a real functional whose sesquilinear defect is delta* delta."""

    pi: OperatorMap          # into M_n
    delta: OperatorMap       # into n x 1 columns
    lam: OperatorMap         # functional

    @property
    def n(self):
        """The noise dimension: the size of pi's values."""
        return self.pi.p

    def residuals(self):
        src = self.pi.source
        eps = src.counit
        star = src.star_matrix
        dv = self.delta.values[:, :, 0]
        lv = self.lam.as_vector()
        out = {"representation": representation_defect(self.pi),
               "derivation": derivation_defect(self.pi, counit_map(src), self.delta)}
        lam_xy = star.T @ (src.mult @ lv)
        lhs = lam_xy - np.outer(np.conjugate(lv), eps) - np.outer(np.conjugate(eps), lv)
        rhs = np.einsum("ia,ja->ij", np.conjugate(dv), dv)
        out["sesquilinear"] = maxabs(lhs - rhs)
        out["reality"] = self.lam.reality_defect()
        return out

    def max_residual(self):
        return max(self.residuals().values())


# -- chi-structure maps ---------------------------------------------------------

def implemented_chi_structure(pi, chi, xi):
    """phi(x) = [<xi|; I] (pi(x) - chi(x) I) [|xi>, I] for a representation
    pi, a character chi and a vector xi; with chi = eps this is the counit
    structure map of :func:`make_structure_map`."""
    src = pi.source
    n = pi.p
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    b = pi.values - chi.as_vector()[:, None, None] * np.eye(n)[None, :, :]
    # kept: these sums over a and b set the report's bytes (ROADMAP item 17)
    return Generator(src, bordered(np.einsum("a,kab,b->k", np.conjugate(xi), b, xi),
                                   np.einsum("a,kab->kb", np.conjugate(xi), b),
                                   np.einsum("kab,b->ka", b, xi), b))


def make_structure_map(pi, c):
    """phi(x) = [<c|; I] (pi(x) - eps(x) I) [|c>, I], the implemented
    structure map of a unital *-representation pi and vector c.

    The resulting generator has noise dimension n = dim pi, satisfies
    phi(1) = 0 and the multiplicative structure relation exactly.
    """
    defect = representation_defect(pi)
    if defect > SPECTRAL_TOL:
        raise ValueError(f"not a unital *-representation (defect {defect:.2e})")
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.size != pi.p:
        raise ValueError(f"vector size {c.size} does not match representation dim {pi.p}")
    return implemented_chi_structure(pi, counit_map(pi.source), c)


def _relation_residual(phi, chi):
    """The residual of :func:`check_chi_structure` for chi given by its
    coordinate vector."""
    src = phi.source
    d, p = src.dim, phi.p
    # (S^T m) phi: O(d^4 + d^3 p^2) in two matrix products
    star_mult = (src.star_matrix.T @ src.mult.reshape(d, d * d)).reshape(d * d, d)
    lhs = (star_mult @ phi.values.reshape(d, p * p)).reshape(d, d, p, p)
    phidag = dagger(phi.values)
    pdq = phidag @ delta_qs(p)
    # kept: "iab,jbc->ijac" sums several nonzero terms, whose order sets the bytes
    rhs = np.einsum("iab,j->ijab", phidag, chi) \
        + np.einsum("i,jab->ijab", np.conjugate(chi), phi.values) \
        + np.einsum("iab,jbc->ijac", pdq, phi.values)
    return maxabs(lhs - rhs)


def check_structure_map(phi):
    """Residual report for the structure relation (the chi-structure
    relation of :func:`check_chi_structure` with chi = eps) over all basis
    pairs, plus reality and phi(1) residuals."""
    phi = as_generator(phi)
    src = phi.source
    return {
        "relation": _relation_residual(phi, src.counit),
        "reality": phi.reality_defect(),
        # kept: the unit of C(G) is all ones, so the sum has d nonzero terms
        "unitality": maxabs(np.einsum("k,kab->ab", src.unit, phi.values)),
    }


def check_chi_structure(phi, chi):
    """Max residual over basis pairs of the chi-structure relation

        phi(x*y) = phi(x)^dag chi(y) + conj(chi(x)) phi(y)
                   + phi(x)^dag Delta_QS phi(y)

    for a character chi."""
    if not is_character(chi):
        raise ValueError("chi must be a character")
    return _relation_residual(phi, chi.as_vector())


# -- completely positive generator forms ----------------------------------------

@dataclass
class CPQuadruple:
    """(rho, D, xi, phi1): data for a CP-contractive cocycle generator."""

    rho: OperatorMap         # unital *-representation into M_K
    big_d: np.ndarray        # K x d_noise contraction
    xi: np.ndarray           # vector in C^K
    phi1: np.ndarray         # (1 + d_noise) square: the value at 1

    def __post_init__(self):
        self.big_d = np.asarray(self.big_d, dtype=complex)
        self.xi = np.asarray(self.xi, dtype=complex).reshape(-1)
        self.phi1 = np.asarray(self.phi1, dtype=complex)

    @property
    def space_dim(self):
        return self.rho.p

    @property
    def d_noise(self):
        return self.big_d.shape[1]

    @property
    def w(self):
        """W = [xi | D], K x (1 + d_noise)."""
        return np.concatenate([self.xi[:, None], self.big_d], axis=1)

    def residuals(self):
        dd = dagger(self.big_d) @ self.big_d - np.eye(self.d_noise)
        return {
            "representation": representation_defect(self.rho),
            "contraction": max(0.0, opnorm(self.big_d) - 1.0),
            "phi1_nonpositive": max(0.0, -min_eig_herm(-self.phi1)),
            "phi1_corner": maxabs(self.phi1[1:, 1:] - dd),
        }

    def validate(self):
        thresholds = {"representation": SPECTRAL_TOL, "contraction": STRUCT_TOL,
                      "phi1_nonpositive": SPECTRAL_TOL, "phi1_corner": STRUCT_TOL}
        res = self.residuals()
        bad = {k: v for k, v in res.items() if v > thresholds[k]}
        if bad:
            raise ValueError(f"invalid CP quadruple: {bad}")
        return self


def canonical_phi1(big_d, e=None, t=None):
    """A valid phi(1) block for a given contraction: [[t, (C^1/2 e)^dag],
    [C^1/2 e, -C]] with C = I - D^dag D, e in Ran C and t <= -||e||^2."""
    big_d = np.asarray(big_d, dtype=complex)
    k = big_d.shape[1]
    c = np.eye(k) - dagger(big_d) @ big_d
    c = 0.5 * (c + dagger(c))
    if e is None:
        e = np.zeros(k, dtype=complex)
    e = np.asarray(e, dtype=complex).reshape(-1)
    vals, vecs = np.linalg.eigh(c)
    vals = np.clip(vals, 0.0, None)
    chalf = vecs @ np.diag(np.sqrt(vals)) @ dagger(vecs)
    e = chalf @ chalf @ np.linalg.pinv(c, rcond=RCOND) @ e  # project onto Ran C
    col = chalf @ e
    tmax = -float(np.vdot(e, e).real)
    t = tmax if t is None else min(float(t), tmax)
    return bordered(t, np.conjugate(col), col, -c)


def make_cp_generator(q):
    """phi(x) = [<xi|; D^dag] (rho(x) - eps(x) I) [|xi>, D] + eps(x) phi(1)."""
    q.validate()
    src = q.rho.source
    w = q.w
    b = q.rho.values - src.counit[:, None, None] * np.eye(q.space_dim)[None, :, :]
    vals = dagger(w)[None, :, :] @ b @ w[None, :, :] \
        + src.counit[:, None, None] * q.phi1[None, :, :]
    return Generator(src, vals)


def check_cp_form(phi, q):
    """Residuals of the quadruple decomposition of phi: the compressed form
    and the equivalent CP-minus-ampliation split with the derived vector chi."""
    phi = as_generator(phi)
    src = phi.source
    rebuilt = make_cp_generator(q)
    decomposition = maxabs(phi.values - rebuilt.values)
    psi = dagger(q.w)[None, :, :] @ q.rho.values @ q.w[None, :, :]
    phi1 = np.einsum("k,kab->ab", src.unit, phi.values)   # kept: d terms on C(G)
    chi = np.concatenate([[0.5 * (np.vdot(q.xi, q.xi) - phi1[0, 0])],
                          dagger(q.big_d) @ q.xi - phi1[1:, 0]])
    e0 = np.eye(phi.p)[0]
    amp = delta_qs(phi.p) + np.outer(e0, np.conjugate(chi)) + np.outer(chi, e0)
    split = maxabs(phi.values - (psi - src.counit[:, None, None] * amp[None, :, :]))
    return {"decomposition": decomposition, "cp_split": split}


def check_phi1(phi, q=None):
    """-phi(1) PSD; with a quadruple also the lower-right block identity
    phi(1)[1:, 1:] = D^dag D - I."""
    phi = as_generator(phi)
    phi1 = np.einsum("k,kab->ab", phi.source.unit, phi.values)   # kept: d terms on C(G)
    out = {"nonpositive": max(0.0, -min_eig_herm(-phi1))}
    if q is not None:
        dd = dagger(q.big_d) @ q.big_d - np.eye(q.d_noise)
        out["corner"] = maxabs(phi1[1:, 1:] - dd)
    out["ok"] = out["nonpositive"] <= SPECTRAL_TOL and out.get("corner", 0.0) <= STRUCT_TOL
    return out


# -- GNS / Schurmann reconstruction ---------------------------------------------

class NotConditionallyPositive(ValueError):
    pass


def _counit_projection(src):
    """The coordinate matrix of x -> x - eps(x) 1, onto Ker eps."""
    return np.eye(src.dim, dtype=complex) - np.outer(src.unit, src.counit)


def _counit_kernel_basis(src):
    """Columns spanning Ker eps: projections e_i - eps(e_i) 1, one index dropped."""
    k0 = int(np.argmax(np.abs(src.counit * src.unit)))
    return np.delete(_counit_projection(src), k0, axis=1)  # d x (d-1)


def kernel_gram(gamma):
    """Gram matrix gamma(b_i^* b_j) over the counit-kernel basis."""
    src = gamma.source
    kb = _counit_kernel_basis(src)
    gv = gamma.as_vector()
    star_cols = src.star_matrix @ np.conjugate(kb)       # coords of b_i^*
    # kept: four +-1 terms per entry on group algebras, whose order sets the bytes
    gram = np.einsum("mi,nj,mnk,k->ij", star_cols, kb, src.mult, gv)
    return gram, kb


def check_conditionally_positive(gamma):
    """(is conditionally positive, margin): the margin is the minimum
    eigenvalue of the counit-kernel Gram matrix."""
    g, _ = kernel_gram(gamma)
    margin = min_eig_herm(g)
    return margin >= -SPECTRAL_TOL, margin


def gns_construct(gamma, check_tol=SOLVE_TOL):
    """GNS-style reconstruction of a Schurmann triple and a generator from a
    real, conditionally positive functional vanishing at 1.

    The quotient of Ker eps by the null space of gamma(x* y) is charted by
    the Gram eigenvectors above SPECTRAL_TOL times the largest (descending
    order, first sizable component of each rotated positive real, so the
    output is deterministic).  The triple is (compressed left multiplication,
    class of x - eps(x) 1, gamma); the returned generator is its block
    assembly, with noise dimension equal to the numerical rank.  The triple
    relations are re-verified at ``check_tol`` before returning.
    """
    src = gamma.source
    gv = gamma.as_vector()
    reality = gamma.reality_defect()
    if reality > SPECTRAL_TOL:
        raise ValueError(f"generator functional is not real (defect {reality:.2e})")
    at_one = abs(complex(gv @ src.unit))
    if at_one > SPECTRAL_TOL:
        raise ValueError(f"generator functional must vanish at 1 (got {at_one:.2e})")
    gram, kb = kernel_gram(gamma)
    gram = 0.5 * (gram + dagger(gram))
    vals, vecs = np.linalg.eigh(gram)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if vals.size and vals[-1] < -SPECTRAL_TOL * max(vals[0], 1.0):
        raise NotConditionallyPositive(f"Gram matrix has eigenvalue {vals[-1]:.3e}")
    rank = rank_of(vals)
    vecs = vecs[:, :rank]
    # the count of leading entries at most 1e-8 is the index of the first sizable one
    first = np.cumprod(np.abs(vecs) <= 1e-8, axis=0).sum(axis=0)
    vecs = vecs * np.exp(-1j * np.angle(vecs[first, np.arange(rank)]))
    roots = np.sqrt(vals[:rank])
    chart = roots[:, None] * dagger(vecs)          # rank x (d-1)
    chart_inv = vecs / roots[None, :]              # (d-1) x rank
    kb_pinv = np.linalg.pinv(kb, rcond=RCOND)

    prod = src.mult.transpose(0, 2, 1) @ kb         # columns e_a . b_c
    pi_vals = chart @ (kb_pinv @ prod) @ chart_inv
    pi = OperatorMap(src, pi_vals)

    dmat = chart @ kb_pinv @ _counit_projection(src)   # rank x d
    delta = OperatorMap(src, dmat.T[:, :, None])
    triple = SchurmannTriple(pi=pi, delta=delta, lam=gamma)
    phi = Generator(src, bordered(gv, delta.conjugate_map().values[:, 0, :],
                                  delta.values[:, :, 0],
                                  pi_vals - src.counit[:, None, None] * np.eye(rank)))
    worst = triple.max_residual()
    if worst > check_tol:
        kept = f"{vals[0]:.3e} to {vals[rank - 1]:.3e}" if rank else "none"
        dropped = f"{vals[rank]:.3e}" if rank < vals.size else "none"
        raise RuntimeError(f"reconstructed triple violates its relations "
                           f"(residual {worst:.3e} > {check_tol:.0e}) at rank {rank}; "
                           f"kept Gram eigenvalues {kept}, largest dropped {dropped}")
    return triple, phi


# -- minimality and intertwiners --------------------------------------------------

def _spans(q):
    """S = [rho(e_a) W]_a, the K x d (1 + d_noise) matrix whose columns
    span rho(B)(C xi + Ran D)."""
    return np.concatenate(q.rho.values @ q.w, axis=1)


def check_minimality(q):
    """Whether rho(B)(C xi + Ran D) spans the whole representation space."""
    return numerical_rank(_spans(q)) == q.space_dim


class NoIntertwiner(RuntimeError):
    """The unique candidate V = S2 S1^+ of :func:`intertwine_minimal`
    misses the intertwining relations by more than ``SOLVE_TOL``; its
    ``residual`` is that of V, not a least-squares best."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"no isometric intertwiner within tolerance "
                         f"(residual of V = S2 S1^+ {residual:.3e})")


def intertwine_minimal(q1, q2):
    """The unique isometry V with V D1 = D2, V xi1 = xi2, V rho1 = rho2 V,
    for a minimal first quadruple.

    Such a V maps S1 = [rho1(e_a) W1]_a to S2, and minimality makes S1 of
    full row rank, so V = S2 S1^+, taken from the SVD of S1 that also tests
    minimality: O(d K^2 (1 + d_noise)).  Raises :class:`NoIntertwiner` if
    the residual max(|V W1 - W2|, max_a |rho2(a) V - V rho1(a)|) exceeds
    ``SOLVE_TOL``."""
    u, s, vh = np.linalg.svd(_spans(q1), full_matrices=False)
    if rank_of(s) != q1.space_dim:
        raise ValueError("first quadruple must be minimal")
    v = (_spans(q2) @ dagger(vh) / s) @ dagger(u)
    residual = max(maxabs(v @ q1.w - q2.w),
                   maxabs(q2.rho.values @ v - v @ q1.rho.values))
    if residual > SOLVE_TOL:
        raise NoIntertwiner(residual)
    defect = maxabs(dagger(v) @ v - np.eye(q1.space_dim))
    return v, {"residual": residual, "isometry_defect": defect}
