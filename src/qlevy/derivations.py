"""Twisted derivations, innerness solvers and chi-structure maps.

A (pi', pi)-derivation satisfies delta(ab) = delta(a) pi(b) + pi'(a) delta(b);
in finite dimensions every such derivation is inner, delta(a) =
pi'(a) T - T pi(a), and the implementing T is found here by minimal-norm
least squares over the stacked commutation constraints.  A chi-structure map
is the counit-free generalization of the multiplicative structure relation;
it is always implemented by a pair (pi, xi), and the implementation is
recovered the same way.
"""

from dataclasses import dataclass

import numpy as np

from .convolution import OperatorMap
from .generators import (check_chi_structure, derivation_defect,
                         implemented_chi_structure, representation_defect)
from .linalg import (INPUT_TOL, SOLVE_TOL, maxabs, null_space, numerical_rank,
                     solve_commutation)


@dataclass
class DerivationProblem:
    """(pi', pi, delta) with delta valued in n' x n matrices."""

    pi_prime: OperatorMap   # into M_{n'}
    pi: OperatorMap         # into M_n
    delta: OperatorMap      # into n' x n

    def __post_init__(self):
        if not (self.pi_prime.source.same_structure(self.pi.source)
                and self.delta.source.same_structure(self.pi.source)):
            raise ValueError("all maps must share a source bialgebra")
        if self.delta.p != self.pi_prime.p or self.delta.q != self.pi.p:
            raise ValueError("delta must take n' x n values")


def inner_derivation(pi_prime, pi, t):
    """delta(a) = pi'(a) T - T pi(a) as an OperatorMap."""
    t = np.asarray(t, dtype=complex)
    vals = pi_prime.values @ t[None, :, :] - t[None, :, :] @ pi.values
    return OperatorMap(pi.source, vals)


def check_derivation(problem):
    """Max residual of the Leibniz relation over basis pairs."""
    return derivation_defect(problem.pi_prime, problem.pi, problem.delta)


def solve_inner(problem):
    """Minimal-norm T with pi'(e_i) T - T pi(e_i) = delta(e_i) for every i.

    In finite dimensions the Leibniz relation guarantees solvability; the
    input is rejected when its derivation residual exceeds ``INPUT_TOL``.
    Returns (T, residual).
    """
    res = check_derivation(problem)
    if res > INPUT_TOL:
        raise ValueError(f"input is not a derivation (Leibniz residual {res:.2e})")
    return solve_commutation(problem.pi_prime.values, problem.pi.values,
                             problem.delta.values)


def derivation_constraint_matrix(src, chi_prime, chi):
    """Leibniz constraints for an unknown scalar (chi', chi)-derivation,
    as a d^2 x d matrix applied to the vector of values delta(e_k)."""
    d = src.dim
    eye = np.eye(d)
    # row (i, j): mult[i, j] - chi(e_j) e_i - chi'(e_i) e_j
    out = src.mult - eye[:, None, :] * chi.as_vector()[None, :, None] \
        - chi_prime.as_vector()[:, None, None] * eye[None, :, :]
    return out.reshape(d * d, d)


def two_character_derivation_space(src, chi_prime, chi):
    """Dimensions (total, non_inner) of the scalar (chi', chi)-derivation space.

    Every solution of the Leibniz system is inner, i.e. a multiple of
    chi' - chi; so ``non_inner`` is always 0 and ``total`` is 1 for distinct
    characters and 0 for equal ones.  (The nonzero solution chi' - chi for
    distinct characters is genuine: on functions, delta(FG) = F(p)G(p) -
    F(q)G(q) = delta(F) G(q) + F(p) delta(G).)
    """
    null = null_space(derivation_constraint_matrix(src, chi_prime, chi))
    total = null.shape[0]
    inner = (chi_prime.as_vector() - chi.as_vector()).reshape(1, -1)
    if numerical_rank(inner) == 0:
        non_inner = total
    else:
        non_inner = numerical_rank(np.concatenate([inner, null])) - 1
    return total, non_inner


# -- chi-structure maps ---------------------------------------------------------

class NotImplementable(RuntimeError):
    """No implementing vector within tolerance: for a genuine chi-structure
    map this contradicts the innerness theorem, so it flags numerics."""


def implement_chi_structure(phi, chi):
    """Recover (pi, xi, lambda) implementing a chi-structure map.

    Blocks are read off phi, pi = nu + chi(.) I is validated, xi solves the
    inner-derivation system delta(a) = pi(a) xi - xi chi(a), and lambda is checked
    against <xi, nu(.) xi> through the reassembled map.  Returns
    (pi, xi, lam, residuals) where residuals includes the full entrywise
    reassembly defect.
    """
    rel = check_chi_structure(phi, chi)
    if rel > INPUT_TOL:
        raise ValueError(f"not a chi-structure map (relation residual {rel:.2e})")
    src = phi.source
    n = phi.p - 1
    cv = chi.as_vector()
    lam = OperatorMap(src, phi.values[:, 0, 0])
    delta_vals = phi.values[:, 1:, 0]
    pi = OperatorMap(src, phi.values[:, 1:, 1:]
                     + cv[:, None, None] * np.eye(n)[None, :, :])
    rep_defect = representation_defect(pi)
    t, delta_res = solve_commutation(pi.values, chi.values, delta_vals[:, :, None])
    xi = t[:, 0]
    rebuilt = implemented_chi_structure(pi, chi, xi)
    reassembly = maxabs(rebuilt.values - phi.values)
    lam1 = complex(lam.as_vector() @ src.unit)
    delta1 = np.einsum("k,ka->a", src.unit, delta_vals)
    lam_at_one = abs(lam1 + complex(np.vdot(delta1, delta1)))
    residuals = {"relation": rel, "representation": rep_defect,
                 "xi_fit": delta_res, "reassembly": reassembly,
                 "lambda_at_one": lam_at_one}
    if delta_res > SOLVE_TOL or reassembly > SOLVE_TOL:
        raise NotImplementable(f"implementation residuals {residuals}")
    return pi, xi, lam, residuals
