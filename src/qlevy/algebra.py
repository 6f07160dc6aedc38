"""Finite-dimensional *-bialgebras given by structure tensors.

A bialgebra here is a unital *-algebra of dimension d, described relative to
a fixed basis e_0..e_{d-1} by

* a multiplication tensor  ``mult[i, j, :]`` = coordinates of e_i e_j,
* an antilinear involution  x* = star_matrix @ conj(x),
* a counit vector,  eps(x) = counit . x,
* a coproduct tensor  ``coproduct[k, i, j]`` = coefficient of e_i (x) e_j
  in Delta(e_k),
* a faithful unital *-representation by block-diagonal matrices, which acts
  as the positivity and norm oracle.

``kind`` distinguishes bialgebras (coproduct is a unital *-homomorphism)
from hyperbialgebras (coproduct only unital and completely positive; the
counit is still a character).  All axioms are checkable numerically and
:func:`validate_bialgebra` reports a residual per axiom.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .blocks import decompose
from .linalg import (RCOND, SOLVE_TOL, SPECTRAL_TOL, STRUCT_TOL, block_diag, dagger,
                     maxabs, min_eig_herm, numerical_rank, split_blocks)


class ParseError(ValueError):
    """A bialgebra/operator-map file is malformed."""


class AxiomViolation(ValueError):
    """Structure tensors violate a bialgebra axiom.

    Attributes
    ----------
    axiom : str
        Name of the first failing axiom.
    residual : float
        Magnitude of the violation.
    where : tuple or None
        Offending index tuple, when meaningful.
    """

    def __init__(self, axiom, residual, where=None):
        self.axiom = axiom
        self.residual = residual
        self.where = where
        loc = f" at {where}" if where is not None else ""
        super().__init__(f"axiom {axiom!r} violated{loc}: residual {residual:.3e}")


@dataclass(frozen=True)
class Bialgebra:
    """Immutable structure-tensor description of a finite *-bialgebra."""

    dim: int
    basis_labels: tuple
    unit: np.ndarray          # (d,)   coordinates of 1
    mult: np.ndarray          # (d, d, d)   mult[i, j, :] = coords of e_i e_j
    star_matrix: np.ndarray   # (d, d)
    counit: np.ndarray        # (d,)
    coproduct: np.ndarray     # (d, d, d)   coproduct[k, i, j]
    rep_blocks: tuple         # block sizes
    rep_images: np.ndarray    # (d, N, N) assembled block-diagonal images
    kind: str = "bialgebra"   # or "hyperbialgebra"

    # -- elements ---------------------------------------------------------

    @property
    def rep_dim(self):
        return int(sum(self.rep_blocks))

    def basis_element(self, i):
        c = np.zeros(self.dim, dtype=complex)
        c[i] = 1.0
        return Element(self, c)

    def element(self, coords):
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("element coordinates must be finite")
        return Element(self, coords)

    def one(self):
        return Element(self, self.unit.copy())

    def label_index(self, label):
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "unit": _encode(self.unit),
            "mult": _entries(self.mult, "ijk"),
            "star_matrix": _encode(self.star_matrix),
            "counit": _encode(self.counit),
            "coproduct": _entries(self.coproduct, "kij"),
            "rep": {
                "blocks": list(self.rep_blocks),
                "images": [list(per_basis) for per_basis in zip(*map(
                    _encode, split_blocks(self.rep_images, self.rep_blocks)))],
            },
            "kind": self.kind,
        }

    def structural_hash(self):
        cached = getattr(self, "_hash_cache", None)
        if cached is None:
            payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def same_structure(self, other):
        return self is other or self.structural_hash() == other.structural_hash()

    def save(self, path):
        _write_json(path, self.to_dict())

    # -- the lift R gamma = (id (x) gamma) Delta ----------------------------

    def lift(self, coords):
        """The right multiplications eta -> eta * gamma of the dual for
        coordinate rows gamma (..., d), as matrices acting on coordinate rows:
        R[..., i, k] = sum_j Delta[k, i, j] gamma_j."""
        return np.einsum("kij,...j->...ik", self.coproduct, coords)

    def left_lift(self, coords):
        """The left multiplications eta -> gamma * eta of the dual for
        coordinate rows gamma (..., d): L[..., j, k] = sum_i Delta[k, i, j] gamma_i."""
        return np.einsum("kij,...i->...jk", self.coproduct, coords)

    def dual_blocks(self):
        """The :class:`~qlevy.blocks.DualBlocks` of this bialgebra, computed
        on first use."""
        cached = getattr(self, "_blocks_cache", None)
        if cached is None:
            cached = decompose(self)
            object.__setattr__(self, "_blocks_cache", cached)
        return cached


@dataclass
class Element:
    """An element of a :class:`Bialgebra`, stored by basis coordinates."""

    algebra: Bialgebra
    coords: np.ndarray

    def __mul__(self, other):
        b = self.algebra
        if not b.same_structure(other.algebra):
            raise ValueError("elements belong to different bialgebras")
        return Element(b, np.einsum("i,j,ijk->k", self.coords, other.coords, b.mult))

    def star(self):
        return Element(self.algebra, self.algebra.star_matrix @ np.conjugate(self.coords))


# -- spec operations -------------------------------------------------------

def multiply(x, y):
    return x * y


def star(x):
    return x.star()


def represent(x):
    """Image of x under the faithful block-matrix representation."""
    return np.einsum("k,kab->ab", x.coords, x.algebra.rep_images)


def is_positive(x):
    """x >= 0 iff rho0(x) is self-adjoint with spectrum above -SPECTRAL_TOL."""
    m = represent(x)
    if maxabs(m - dagger(m)) > SOLVE_TOL * max(1.0, maxabs(m)):
        return False
    return min_eig_herm(m) >= -SPECTRAL_TOL


# -- axiom validation -------------------------------------------------------

@dataclass
class AxiomResult:
    name: str
    residual: float
    tol: float
    where: tuple = None

    @property
    def passed(self):
        # an infinite tolerance admits nothing: it comes from non-finite data
        return (math.isfinite(self.residual) and math.isfinite(self.tol)
                and self.residual <= self.tol)


def _worst(t):
    """Largest absolute entry of t and its index."""
    a = np.abs(t)
    flat = int(a.argmax())
    return float(a.flat[flat]), tuple(int(i) for i in np.unravel_index(flat, a.shape))


def validate_bialgebra(b, struct_tol=STRUCT_TOL):
    """Run every bialgebra axiom; returns a list of :class:`AxiomResult`, in
    the order of :func:`_axiom_checks`.

    Each structural identity sums products of entries, so its residual is
    compared with ``struct_tol * max(1, s)``, s the product of the largest
    |entry| of each tensor it multiplies (on the side with the larger
    product), and that tolerance is reported.  Spectral positivity (the Choi
    matrix of the represented coproduct, hyperbialgebra case) uses
    ``SPECTRAL_TOL``.  The structural checks are reshaped matrix products of
    cost O(d^5) at most, coproduct-multiplicativity costs O(d^6), and the
    representation check goes block by block (:func:`representation_defect`).
    Complete positivity is three matrix products in the block chart, O(D d^3
    + D^2 d^2 + D^3 d) with D = sum_b n_b^2, plus one batched ``eigvalsh``
    per size triple with n0 n1 n2 > 1, so none for a commutative
    representation (:func:`_coproduct_choi_min_eig`).  A check passes when
    its residual and tolerance are finite and the residual is within the
    tolerance: a non-finite entry fails every check that reads it.

    The checks run in real arithmetic wherever the data is exactly real
    (:func:`_over_reals`): the structural ones when every imaginary part of
    unit, mult, star_matrix, counit and coproduct is zero, the representation
    and faithfulness ones when those of rep_images are zero too.  A real
    product or sum rounds as the complex one with zero imaginary parts, so
    every residual keeps its bits, and a real matrix product takes a
    quarter of the multiplications.  The complete-positivity check always
    reads the tensors as given: its chart inverse and eigenvalues come from
    LAPACK's real or complex routines, which round differently.

    Every check runs, even after one has failed; :func:`assert_valid` stops
    at the first failure instead.  Overflow and invalid operations are not
    warned about: a non-finite entry gives non-finite residuals, and the
    results name every check that read it.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return list(_axiom_checks(b, struct_tol))


def _axiom_checks(b, struct_tol):
    """The axiom checks of :func:`validate_bialgebra` as one ordered sequence
    of :class:`AxiomResult`, each computed only when it is drawn, so that
    :func:`assert_valid` stops at the first failure.  The caller sets numpy's
    error state around the draws: it is a context variable, and a ``with``
    block in here would span the yields."""
    given = b
    b, rep = _over_reals(given)
    d = b.dim
    eye = np.eye(d)
    mult, cop = b.mult, b.coproduct
    mult_ij_k = mult.reshape(d * d, d)      # (e_i e_j) -> coords
    u, m, st, e, c = (float(np.abs(x).max())
                      for x in (b.unit, mult, b.star_matrix, b.counit, cop))

    def tol(*sides):
        return struct_tol * max(1.0, *sides)

    unit_l = np.einsum("i,ijk->jk", b.unit, b.mult)
    unit_r = np.einsum("j,ijk->ik", b.unit, b.mult)
    worst, where = _worst(np.stack([unit_l - eye, unit_r - eye]))
    yield AxiomResult("unit", worst, tol(u * m), where[1:])

    # (e_i e_j) e_k  versus  e_i (e_j e_k), both indexed [i, j, k, l]
    lhs = (mult_ij_k @ mult.reshape(d, d * d)).reshape(d, d, d, d)
    rhs = np.matmul(mult_ij_k, mult).reshape(d, d, d, d)
    worst, where = _worst(lhs - rhs)
    yield AxiomResult("associativity", worst, tol(m * m), where[:3])

    s = b.star_matrix
    yield AxiomResult("star-involution", maxabs(s @ np.conjugate(s) - eye), tol(st * st))

    # star(e_i e_j) = star(e_j) star(e_i), both indexed [i, j, a]
    lhs = (np.conjugate(mult_ij_k) @ s.T).reshape(d, d, d)
    rhs = (s.T @ np.matmul(s.T, mult).reshape(d, d * d)).reshape(d, d, d)
    rhs = rhs.transpose(1, 0, 2)
    yield AxiomResult("star-antimultiplicative", maxabs(lhs - rhs),
                      tol(m * st, st * st * m))

    # (Delta (x) id) Delta  versus  (id (x) Delta) Delta, indexed [k, a, b, c]
    lhs = np.matmul(cop.transpose(0, 2, 1), cop.reshape(d, d * d))
    lhs = lhs.reshape(d, d, d, d).transpose(0, 2, 3, 1)
    rhs = (cop.reshape(d * d, d) @ cop.reshape(d, d * d)).reshape(d, d, d, d)
    worst, where = _worst(lhs - rhs)
    yield AxiomResult("OSC1-coassociativity", worst, tol(c * c), where[:1])

    left = np.einsum("kij,i->kj", b.coproduct, b.counit) - eye
    right = np.einsum("kij,j->ki", b.coproduct, b.counit) - eye
    t = np.stack([left, right])
    yield AxiomResult("OSC2-counit-property", maxabs(t), tol(c * e))

    char = np.einsum("ijk,k->ij", b.mult, b.counit) - np.outer(b.counit, b.counit)
    star_eps = s.T @ b.counit - np.conjugate(b.counit)
    at_one = abs(b.counit @ b.unit - 1.0)
    yield AxiomResult("counit-character",
                      max(maxabs(char), maxabs(star_eps), at_one),
                      tol(m * e, e * e, st * e, e * u))

    delta_unit = np.einsum("k,kij->ij", b.unit, b.coproduct) - np.outer(b.unit, b.unit)
    yield AxiomResult("coproduct-unital", maxabs(delta_unit), tol(u * c, u * u))

    if b.kind == "bialgebra":
        lhs = (mult_ij_k @ cop.reshape(d, d * d)).reshape(d, d, d, d)
        rhs = _coproduct_of_products(b)
        worst, where = _worst(lhs - rhs)
        yield AxiomResult("coproduct-multiplicative", worst, tol(m * c, c * c * m * m),
                          where[:2])
        # Delta(e_k*) versus (star (x) star) Delta(e_k), indexed [k, a, b]
        lhs = (s.T @ cop.reshape(d, d * d)).reshape(d, d, d)
        rhs = s @ np.conjugate(cop) @ s.T
        yield AxiomResult("coproduct-star-preserving", maxabs(lhs - rhs),
                          tol(st * c, st * st * c))
    elif b.kind == "hyperbialgebra":
        lowest = _coproduct_choi_min_eig(given)
        defect = 0.0 if lowest >= 0.0 else -lowest      # NaN stays NaN
        yield AxiomResult("coproduct-completely-positive", defect, SPECTRAL_TOL)
    else:
        yield AxiomResult("kind", 1.0, 0.0)

    yield AxiomResult("representation",
                      representation_defect(rep, rep.rep_images, rep.rep_blocks),
                      struct_tol)
    rank = numerical_rank(rep.rep_images.reshape(d, -1))
    yield AxiomResult("representation-faithful", float(b.dim - rank), 0.5)


STRUCTURE = ("unit", "mult", "star_matrix", "counit", "coproduct")


def _over_reals(b):
    """(structure, rep): b for the structural checks and for the
    representation checks, with its tensors narrowed to contiguous real
    arrays where every imaginary part is exactly zero.

    ``structure`` narrows the five structure tensors when all of them are
    real; ``rep`` narrows them and ``rep_images`` when all six are, and is b
    itself otherwise.  A check thus reads its operands all over R or all as
    given, and no contraction casts between the two.
    """
    if any(np.count_nonzero(getattr(b, f).imag) for f in STRUCTURE):
        return b, b
    real = {f: getattr(b, f).real.copy() for f in STRUCTURE}
    if np.count_nonzero(b.rep_images.imag):
        return dataclasses.replace(b, **real), b
    real = dataclasses.replace(b, rep_images=b.rep_images.real.copy(), **real)
    return real, real


def _coproduct_of_products(b):
    """Delta(e_i) Delta(e_j) in the tensor basis, indexed [i, j, a, b].

    The product sum_{pqrs} Delta_ipq Delta_jrs m_pra m_qsb contracted in the
    order X_iqra = sum_p Delta_ipq m_pra, Y_jqrb = sum_s Delta_jrs m_qsb (both
    O(d^5)), then one matrix product over (q, r): O(d^6) in all.
    """
    d = b.dim
    cop, mult = b.coproduct, b.mult
    x = np.matmul(cop.transpose(0, 2, 1), mult.reshape(d, d * d))    # [i, q, (r, a)]
    y = np.matmul(cop.reshape(d * d, d), mult)                       # [q, (j, r), b]
    x = x.reshape(d, d * d, d).transpose(0, 2, 1).reshape(d * d, d * d)   # (i, a) x (q, r)
    y = y.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)  # (q, r) x (j, b)
    return (x @ y).reshape(d, d, d, d).transpose(0, 2, 1, 3)


def assert_valid(b):
    """Return b, or raise :class:`AxiomViolation` naming the first failing
    axiom of :func:`validate_bialgebra`, with its residual and location.

    The checks run in their order and stop at that failure, so a rejection
    costs the checks up to it; a valid b runs every check."""
    with np.errstate(invalid="ignore", over="ignore"):
        for r in _axiom_checks(b, STRUCT_TOL):
            if not r.passed:
                raise AxiomViolation(r.name, r.residual, r.where)
    return b


def representation_defect(src, images, blocks):
    """Unital, multiplicative and *-preserving defects of a representation
    of ``src`` by block-diagonal images (d, N, N) with the given block
    sizes, plus the mass of the images outside the diagonal blocks.

    Products are taken one stack of blocks of equal size at a time, at cost
    O(d^2 sum_b n_b^3 + d^3 sum_b n_b^2); that and the blockwise Choi test
    are exact only for block-diagonal images, which the off-block term checks.
    A single block of size N gives the plain defect of any representation.
    """
    d, n = src.dim, images.shape[1]
    # kept: the unit of C(G) is all ones, so the sum has d nonzero terms
    unital = maxabs(np.einsum("k,kab->ab", src.unit, images) - np.eye(n))
    parts = [unital]
    for x in _blocks_by_size(images, blocks).values():
        image_of_prod = src.mult.reshape(d * d, d) @ x.reshape(d, -1)
        # kept: each product of blocks sums several nonzero terms, whose order sets the bytes
        prod = np.einsum("iBab,jBbc->ijBac", x, x).reshape(d * d, -1)
        parts.append(maxabs(prod - image_of_prod))
    parts.append(maxabs((src.star_matrix.T @ images.reshape(d, -1)).reshape(images.shape)
                        - dagger(images)))
    if len(blocks) > 1:   # one block has no off-block entries
        parts.append(maxabs(images[:, ~_same_block(blocks)]))
    return maxabs(parts)     # a NaN part stays NaN, which max() would drop


def _same_block(blocks):
    """The (N, N) mask of the entries inside the diagonal blocks."""
    ids = np.repeat(np.arange(len(blocks)), blocks)
    return ids[:, None] == ids[None, :]


def _blocks_by_size(images, blocks):
    """The diagonal blocks of images (d, N, N) as one stack (d, B, n, n) per nonzero size n."""
    out, ofs = {}, 0
    for n in blocks:
        if n:
            out.setdefault(n, []).append(images[:, ofs:ofs + n, ofs:ofs + n])
        ofs += n
    return {n: np.array(v).swapaxes(0, 1) for n, v in out.items()}


def _block_chart(images, blocks):
    """(R, P, counts): the chart of the diagonal blocks of images (d, N, N).

    Row i of R (d, D) lists the entries of images[i]'s diagonal blocks, the
    blocks grouped by size in the order of :func:`_blocks_by_size`
    (D = sum_b n_b^2); P (D, d) is its inverse, whose row for a block entry
    holds the coordinates of that matrix unit; ``counts`` pairs each block
    size with its number of blocks, in R's order.

    A square R (irreducible blocks, each once: D = d) is inverted by one
    checked LU solve (:func:`_chart_inverse`); a singular, badly conditioned
    or non-square R (a repeated block) takes the pseudo-inverse at
    ``RCOND``, as every chart once did: the same O(d^3), at about 1.5 times
    the cost for d <= 8, where numpy's SVD wrapper dominates.
    """
    sizes = _blocks_by_size(images, blocks)
    chart = np.concatenate([x.reshape(images.shape[0], -1) for x in sizes.values()], axis=1)
    return chart, _chart_inverse(chart), [(n, x.shape[1]) for n, x in sizes.items()]


def _chart_inverse(chart):
    """R^-1 from one LU solve when R is square, max|P R - I| <=
    ``SPECTRAL_TOL`` and R's condition number is surely below 1 / ``RCOND``;
    else R^+ at ``RCOND``.  On the charts that keep the LU inverse the
    pseudo-inverse cuts no singular value, so both are R^-1 to rounding and
    a singular or near-singular chart keeps the pseudo-inverse's verdicts."""
    d = len(chart)
    if chart.shape == (d, d):
        try:
            inverse = np.linalg.inv(chart)
        except np.linalg.LinAlgError:      # exactly singular
            return np.linalg.pinv(chart, rcond=RCOND)
        # cond_2(R) <= |R|_F |P|_F <= d^2 max|R| max|P|; below 1 / RCOND the
        # pseudo-inverse cuts no singular value, so both are R^-1 to rounding
        if maxabs(inverse @ chart - np.eye(d)) <= SPECTRAL_TOL \
                and d * d * maxabs(chart) * maxabs(inverse) * RCOND < 1.0:
            return inverse
    return np.linalg.pinv(chart, rcond=RCOND)


def _coproduct_choi_min_eig(b):
    """Choi-matrix minimum eigenvalue of the represented coproduct.

    The coproduct is lifted to a map on the full matrix algebra M_N by
    precomposing with the block-diagonal conditional expectation onto the
    image of the representation (finite-dimensional C*-algebras are
    multi-matrix algebras, so this is a faithful extension for CP purposes).
    With block-diagonal images the N^3 x N^3 Choi matrix is block-diagonal:
    one block for each input block b0 and output pair (b1, b2), of size
    n0 n1 n2, with entries

        C[(u, a, c), (v, e, f)] = sum_kij P_k[u, v] Delta_kij rho_i[a, e] rho_j[c, f]

    where P_k[u, v] are the coordinates of the matrix unit E_uv of block b0.
    In the block chart (:func:`_block_chart`) every such entry is one entry
    of C[x, y, z] = sum_kij P[x, k] Delta[k, i, j] R[i, y] R[j, z], formed
    by three matrix products at cost O(D d^3 + D^2 d^2 + D^3 d), D the sum
    of n_b^2 (D = d for irreducible blocks, so O(d^4)).  The Choi blocks of
    one size triple are sliced out of C and diagonalised by one batched
    ``eigvalsh``, at cost O(sum over block triples of (n0 n1 n2)^3); a 1 x 1
    block is its own eigenvalue (its real part, as ``eigvalsh`` returns it),
    so a commutative representation takes no eigensolver.  The full Choi
    matrix is never formed.  NaN when the tensors are not finite: a Choi
    matrix with a non-finite entry has no eigenvalues.
    """
    d = b.dim
    chart, coords, counts = _block_chart(b.rep_images, b.rep_blocks)
    width = chart.shape[1]                                              # D
    c = (coords @ b.coproduct.reshape(d, d * d)).reshape(width, d, d)  # [x, i, j]
    c = np.matmul(chart.T, c).reshape(width * width, d)                # [x, y, j]
    c = (c @ chart).reshape(width, width, width)                       # [x, y, z]
    if not np.isfinite(c).all():
        return np.nan
    spans, ofs = [], 0
    for m, count in counts:
        spans.append((m, count, slice(ofs, ofs + count * m * m)))
        ofs += count * m * m
    lowest = np.inf
    for n0, b0, x in spans:
        for n1, b1, y in spans:
            for n2, b2, z in spans:
                block = c[x, y, z]
                size = n0 * n1 * n2
                if size == 1:
                    lowest = min(lowest, float(block.real.min()))
                    continue
                block = block.reshape(b0, n0, n0, b1, n1, n1, b2, n2, n2)
                block = block.transpose(0, 3, 6, 1, 4, 7, 2, 5, 8).reshape(-1, size, size)
                eigs = np.linalg.eigvalsh(0.5 * (block + dagger(block)))
                lowest = min(lowest, float(eigs[:, 0].min()))
    return lowest


# -- builders ---------------------------------------------------------------

def _check_table(table, need_group):
    table = np.asarray(table, dtype=int)
    d = table.shape[0]
    if table.shape != (d, d) or np.any(table < 0) or np.any(table >= d):
        raise ValueError("multiplication table must be square over 0..d-1")
    if not (np.array_equal(table[0], np.arange(d)) and np.array_equal(table[:, 0], np.arange(d))):
        raise ValueError("index 0 is not an identity for the table")
    # (ij)k versus i(jk) at [i, j, k]; argwhere lists them in row-major order
    bad = np.argwhere(table[table] != table[:, table])
    if len(bad):
        i, j, k = bad[0]
        raise ValueError(f"table is not associative at ({i},{j},{k})")
    has_inverse = np.any(table == 0, axis=1)
    if need_group and not has_inverse.all():
        raise ValueError(f"element {np.argmin(has_inverse)} has no inverse; table is not a group")
    return table


def pointwise_algebra(coproduct, labels, kind):
    """Functions on the finite set ``labels`` with the pointwise product, the
    given coproduct and the counit that evaluates at index 0; the diagonal
    matrices are the faithful representation.  Not validated."""
    d = len(labels)
    diag = np.zeros((d, d, d), dtype=complex)
    diag[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    counit = np.zeros(d, dtype=complex)
    counit[0] = 1.0
    return Bialgebra(dim=d, basis_labels=tuple(labels),
                     unit=np.ones(d, dtype=complex), mult=diag,
                     star_matrix=np.eye(d, dtype=complex), counit=counit,
                     coproduct=coproduct, rep_blocks=(1,) * d,
                     rep_images=diag.copy(), kind=kind)


def build_function_algebra(cayley_table):
    """C(H) for a finite monoid H: pointwise products of delta functions.

    The coproduct is dual to the monoid multiplication,
    Delta(F)(h, h') = F(h h'), and the counit evaluates at the identity.
    """
    table = _check_table(cayley_table, need_group=False)
    d = table.shape[0]
    a, c = np.indices((d, d))
    coproduct = np.zeros((d, d, d), dtype=complex)
    coproduct[table, a, c] = 1.0
    labels = tuple(f"d{h}" for h in range(d))
    return assert_valid(pointwise_algebra(coproduct, labels, "bialgebra"))


def build_group_algebra(cayley_table):
    """Group *-bialgebra C[G] on the basis {L_g}.

    Delta(L_g) = L_g (x) L_g, eps(L_g) = 1, L_g* = L_{g^{-1}}; the faithful
    representation is one copy of each irreducible representation, found by
    numerically splitting the regular representation.
    """
    table = _check_table(cayley_table, need_group=True)
    d = table.shape[0]
    g = np.arange(d)
    mult = np.zeros((d, d, d), dtype=complex)
    mult[g[:, None], g[None, :], table] = 1.0
    star_m = np.zeros((d, d), dtype=complex)
    star_m[np.argmax(table == 0, axis=1), g] = 1.0
    coproduct = np.zeros((d, d, d), dtype=complex)
    coproduct[g, g, g] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    blocks, images = _group_irreps(table)
    b = Bialgebra(dim=d, basis_labels=tuple(f"L{h}" for h in range(d)), unit=unit,
                  mult=mult, star_matrix=star_m, counit=np.ones(d, dtype=complex),
                  coproduct=coproduct, rep_blocks=tuple(blocks),
                  rep_images=images, kind="bialgebra")
    return assert_valid(b)


def _group_irreps(table):
    """One unitary irrep per equivalence class, from the regular representation.

    A random Hermitian element of the commutant of the left regular
    representation is generically nondegenerate within each multiplicity
    factor; its eigenspaces carry single copies of the irreps.  Raises
    RuntimeError, naming the smallest gap between its eigenvalue clusters,
    when they do not give the irreps.
    """
    d = table.shape[0]
    # R_g a R_g^dagger and v^dagger R_g as gathers, for R_g e_h = e_gh
    inv = np.argsort(table, axis=1)
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = a + a.conj().T
    x = a[inv[:, :, None], inv[:, None, :]].sum(axis=0) / d
    vals, vecs = np.linalg.eigh(x)
    gaps = np.diff(vals) / np.maximum(1.0, np.abs(vals[1:]))
    cuts = np.flatnonzero(gaps > 1e-6) + 1
    reps = {}
    for v in np.split(vecs, cuts, axis=1):
        pi = dagger(v)[:, table].transpose(1, 0, 2) @ v
        reps.setdefault(tuple(np.round(np.trace(pi, axis1=1, axis2=2), 8)), pi)
    chosen = sorted(reps.items(),
                    key=lambda kv: (kv[1].shape[1], [(-z.real, -z.imag) for z in kv[0]]))
    blocks = [pi.shape[1] for _, pi in chosen]
    if sum(n * n for n in blocks) == d:
        images = block_diag([pi for _, pi in chosen])
        resid = maxabs(images[table] - images[:, None] @ images[None])
        if resid < SPECTRAL_TOL:
            return blocks, images
        err = f"representation residual {resid:.2e}"
    else:
        err = f"block sizes {blocks} inconsistent with |G|={d}"
    raise RuntimeError(f"irrep decomposition failed: {err}; smallest eigen-gap "
                       f"between clusters {gaps[cuts - 1].min(initial=np.inf):.2e}")


def class_hypergroup_algebra(cayley_table):
    """Conjugacy-class hypergroup of a finite group, as a C*-hyperbialgebra.

    Functions on the class set with pointwise product; the coproduct carries
    the class-convolution transition probabilities, which is unital and
    completely positive but not multiplicative once the group is nonabelian.
    """
    table = _check_table(cayley_table, need_group=True)
    d = table.shape[0]
    conj = table[table.T, np.argmax(table == 0, axis=1)]    # [g, h] = h g h^-1
    cls = np.full(d, -1)
    classes = []
    for g in range(d):
        if cls[g] < 0:
            cls[conj[g]] = len(classes)
            classes.append(np.unique(conj[g]))
    m = len(classes)
    labels = tuple("C" + "_".join(map(str, c)) for c in classes)
    # each pair (a, b) of the table adds 1 / (|C_a| |C_b|) to the
    # coefficient of C_a (x) C_b in Delta(C_ab)
    size = np.bincount(cls)[cls]
    coproduct = np.zeros((m, m, m), dtype=complex)
    np.add.at(coproduct, (cls[table], cls[:, None], cls[None, :]),
              1.0 / (size[:, None] * size[None, :]))
    return assert_valid(pointwise_algebra(coproduct, labels, "hyperbialgebra"))


# -- JSON format -------------------------------------------------------------

def _encode(a):
    """A complex array of any shape, or a scalar, as nested lists of [re, im] pairs."""
    a = np.asarray(a)
    return np.stack((a.real, a.imag), -1).tolist()


def _decode(x, ndim):
    """The complex array of ``ndim`` axes that :func:`_encode` wrote as x."""
    try:
        a = np.array(x)
    except ValueError as exc:
        raise ParseError(f"expected nested lists of [re, im] pairs: {exc}") from None
    if a.dtype.kind not in "biuf" or a.shape[ndim:] != (2,):
        raise ParseError(f"expected {ndim} nested lists of [re, im] pairs, "
                         f"got shape {a.shape} of {a.dtype}")
    return a.astype(float, copy=False).view(complex)[..., 0]


def _entries(t, axes):
    """The nonzero entries of a (d, d, d) tensor as {i, j, k, re, im} records;
    ``axes`` names the tensor's axes: "ijk" for ``mult[i, j, k]``, "kij" for
    ``coproduct[k, i, j]`` (the coefficient of e_i (x) e_j in Delta(e_k))."""
    idx = np.argwhere(t)
    at = dict(zip(axes, idx.T.tolist()))
    v = t[tuple(idx.T)]
    return [{"i": i, "j": j, "k": k, "re": re, "im": im} for i, j, k, re, im
            in zip(at["i"], at["j"], at["k"], v.real.tolist(), v.imag.tolist())]


def _tensor(entries, axes, d, field):
    """The (d, d, d) tensor of the records of :func:`_entries`, which add up
    at equal indices.  An index must be an int (not a bool) in 0..d-1."""
    index = [[e[a] for e in entries] for a in axes]
    for a, col in zip(axes, index):
        if not (set(map(type, col)) <= {int} and 0 <= min(col, default=0)
                and max(col, default=0) < d):
            bad = next(v for v in col if type(v) is not int or not 0 <= v < d)
            raise ParseError(f"{field} entry index {a!r} must be an integer "
                             f"in 0..{d - 1}, got {bad!r}")
    out = np.zeros((d, d, d), dtype=complex)
    if entries:
        np.add.at(out, tuple(np.array(index)),
                  _decode([[e["re"], e["im"]] for e in entries], 1))
    return out


def bialgebra_from_dict(data):
    d, labels = data["dim"], data["basis"]
    if type(d) is not int:
        raise ParseError(f"dim must be an integer, got {d!r}")
    if not (isinstance(labels, list) and set(map(type, labels)) <= {str}
            and len(set(labels)) == len(labels)):
        raise ParseError(f"basis must be a list of distinct strings, got {labels!r}")
    labels = tuple(labels)
    unit, counit = _decode(data["unit"], 1), _decode(data["counit"], 1)
    star_m = _decode(data["star_matrix"], 2)
    blocks, raw = data["rep"]["blocks"], data["rep"]["images"]
    if len(labels) != d or unit.shape != (d,) or counit.shape != (d,):
        raise ParseError("field sizes inconsistent with dim")
    if star_m.shape != (d, d) or len(raw) != d:
        raise ParseError("matrix sizes inconsistent with dim")
    if not (isinstance(blocks, list) and set(map(type, blocks)) <= {int}
            and min(blocks, default=0) > 0):
        raise ParseError(f"rep.blocks must be a list of positive integers, got {blocks!r}")
    if any(len(per_basis) != len(blocks) for per_basis in raw):
        raise ParseError("representation images inconsistent with block sizes")
    parts = [_decode([per_basis[b] for per_basis in raw], 3) for b in range(len(blocks))]
    if [x.shape for x in parts] != [(d, n, n) for n in blocks]:
        raise ParseError("representation images inconsistent with block sizes")
    return Bialgebra(dim=d, basis_labels=labels, unit=unit,
                     mult=_tensor(data["mult"], "ijk", d, "mult"),
                     star_matrix=star_m, counit=counit,
                     coproduct=_tensor(data["coproduct"], "kij", d, "coproduct"),
                     rep_blocks=tuple(blocks), rep_images=block_diag(parts),
                     kind=data.get("kind", "bialgebra"))


def bialgebra_and_rep2(data):
    """The bialgebra of file data, and the same with its optional "rep2"
    field, a second faithful representation (same schema as "rep"), in place
    of "rep" (None without one).  Checks of the second sample representation
    independence of the CP verdict."""
    b = bialgebra_from_dict(data)
    return b, (bialgebra_from_dict({**data, "rep": data["rep2"]})
               if "rep2" in data else None)


def _write_json(path, data):
    """Write data to a file as compact JSON.  json.dumps takes the C encoder;
    json.dump never does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))


def _parse_file(path, what, parse):
    """parse(data) for the JSON data in a file.  Invalid JSON, and data that
    parse cannot read, raise :class:`ParseError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed {what} file {path}: {exc!r}") from exc


def load_bialgebra(path):
    """Parse and fully validate a bialgebra file, and its "rep2" variant
    (:func:`bialgebra_and_rep2`).

    Raises :class:`ParseError` on malformed input and :class:`AxiomViolation`
    naming the first failing axiom otherwise (:func:`assert_valid`: the checks
    stop there, and a non-finite entry fails one without a numpy warning).
    """
    b, alt = _parse_file(path, "bialgebra", bialgebra_and_rep2)
    assert_valid(b)
    if alt is not None:
        assert_valid(alt)
    return b
