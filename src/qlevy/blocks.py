"""The block basis of the lifted generators, and exponentials taken in it.

A lifted generator R_gamma = (id (x) gamma) Delta, the d x d matrix
L[i, k] = sum_j Delta[k, i, j] gamma_j acting on coordinate rows, maps every
subcoalgebra into itself.  A cosemisimple coalgebra is the direct sum of its
simple subcoalgebras (Sweedler, "Hopf Algebras", 1969; Peter-Weyl for
compact quantum groups, Woronowicz, "Compact quantum groups", 1998), so in
one basis V of coordinate space every R_gamma is block diagonal.
:func:`decompose` finds V; :func:`block_exponentials` and
:func:`counit_of_product` evaluate eps o expm(A_1) ... expm(A_n) block by
block, O(d E) a factor for E block entries instead of a dense O(d^3).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .linalg import SPECTRAL_TOL, maxabs


@dataclass(frozen=True)
class DualBlocks:
    """A basis V of coordinate space in which every lifted matrix is block
    diagonal, found by :func:`decompose`, with the tables that the block
    exponentials read and write.

    Both tables list a group of m blocks of size k entry by entry: entry
    (0, 0) of each of the m blocks, then entry (0, 1), and so on in
    row-major order, so that every entry is one contiguous run.  ``table``
    lists a group of 2 x 2 blocks as the half trace tau of each block and
    then the entries of each block minus tau I, the form that the
    closed-form exponential reads.
    """

    basis: np.ndarray       # (d, d) V, columns grouped by block size
    inverse: np.ndarray     # (d, d) V^-1
    groups: tuple           # ((k, m), ...): m blocks of size k, in column order
    table: np.ndarray       # (d, E'): row j lists the blocks of V^-1 L(e_j) V
    counit_table: np.ndarray  # (E, d): eps V P V^-1 = (blocks of P) @ counit_table
    cond: float             # cond(V)

    @property
    def sizes(self):
        """The block sizes, in column order."""
        return tuple(k for k, m in self.groups for _ in range(m))


BLOCK_COND_LIMIT = 1e4   # largest cond(V) accepted: rounding grows with it


def decompose(b):
    """The :class:`DualBlocks` of a bialgebra.

    The blocks are the eigenspaces of one generic left multiplication
    eta -> a * eta of the dual, M[j, k] = sum_i Delta[k, i, j] a_i, which
    commutes with every right multiplication R_gamma; they are checked on
    all d basis lifts.  When the eigenvectors do not block-diagonalize the
    lifts to rounding, or cond(V) exceeds ``BLOCK_COND_LIMIT`` (the dual is
    not semisimple), V is the identity with one block of size d."""
    d = b.dim
    lifts = np.transpose(b.coproduct, (2, 1, 0))   # lifts[j] = L(e_j)
    try:
        v, label = _eigenspaces(b)
        inverse = np.linalg.inv(v)
        cond = float(np.linalg.cond(v))
        blocks = inverse @ lifts @ v
        split = (cond <= BLOCK_COND_LIMIT and maxabs(blocks[:, label[:, None] != label])
                 <= SPECTRAL_TOL * maxabs(b.coproduct))
    except np.linalg.LinAlgError:
        split = False
    if split:
        size = np.bincount(label)[label]
    else:
        v = inverse = np.eye(d, dtype=complex)
        blocks, size, cond = lifts.astype(complex), np.full(d, d), 1.0
    groups, table, counit_table = [], [], []
    counit_v = b.counit @ v
    ofs = 0
    for k in np.unique(size):
        k = int(k)
        m = int(np.sum(size == k)) // k
        cut = slice(ofs, ofs + m * k)
        part = np.einsum("jakal->jkla", blocks[:, cut, cut].reshape(d, m, k, m, k))
        if k == 2:
            tau = 0.5 * (part[:, 0, 0] + part[:, 1, 1])
            table.append(tau)
            part = part - np.eye(2)[:, :, None] * tau[:, None, None]
        table.append(part.reshape(d, k * k * m))
        # entry (k, l) of block a of P contributes (eps V)[a, k] (V^-1)[a, l, :]
        counit_table.append(np.einsum("ak,ald->klad", counit_v[cut].reshape(m, k),
                                      inverse[cut].reshape(m, k, d)).reshape(k * k * m, d))
        groups.append((k, m))
        ofs += m * k
    return DualBlocks(v, inverse, tuple(groups), np.concatenate(table, axis=1),
                      np.concatenate(counit_table), cond)


def _eigenspaces(b):
    """Eigenvectors V of a generic left multiplication of the dual, columns
    ordered by the size of their eigenvalue's cluster and then by cluster,
    with one cluster label per column."""
    d = b.dim
    rng = np.random.default_rng(0)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    mu, v = np.linalg.eig(np.einsum("kij,i->jk", b.coproduct, a))
    # clusters of equal eigenvalues: least-label propagation over closeness
    close = np.abs(mu[:, None] - mu[None, :]) <= SPECTRAL_TOL * max(1.0, maxabs(mu))
    label = np.arange(d)
    for _ in range(d):
        label, prev = np.where(close, label, d).min(axis=1), label
        if np.array_equal(label, prev):
            break
    cols = np.lexsort((label, np.bincount(label, minlength=d)[label]))
    return v[:, cols], label[cols]


_EYE2 = np.array([1.0, 0.0, 0.0, 1.0])[:, None]   # I, entry by entry
_HALF_EYE2 = 0.5 * _EYE2
_TINY = np.array(1e-300)


def _expm_2x2(tau, x, out):
    """expm(tau I + X) into ``out`` (n, 4, m) for half traces tau (n, m) and
    traceless 2 x 2 matrices X given entry by entry, x (n, 4, m) with
    x[:, 2 i + j] = X_ij, in closed form: C I + S X with delta^2 = -det X,
    C = e^tau cosh(delta) and S = e^tau sinh(delta) / delta.

    With Re delta >= 0, C = e^(tau + delta) (1 + e^(-2 delta)) / 2 and
    S = e^(tau + delta) (1 - e^(-2 delta)) / (2 delta), where the factors
    after e^(tau + delta) are bounded and, by expm1, exact to rounding as
    delta -> 0.  Neither is e^tau times cosh(delta), which is inf * 0 at
    tau = -800, delta = 800.  An overflow shows as a non-finite entry;
    callers silence its warning."""
    delta = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 2])
    # delta is 0 or above 1e-162 (the root of the least subnormal), so the
    # shift by 1e-300 turns only 0 / 0 into expm1(z) / z = 1
    two = -(delta + delta) - _TINY
    em = np.expm1(two)                    # e^(-2 delta) - 1
    np.multiply(np.exp(tau + delta)[:, None],
                _EYE2 + em[:, None] * _HALF_EYE2 + (em / two)[:, None] * x, out=out)


def block_exponentials(blocks, entries):
    """The blocks of expm(A) for every row of ``entries`` (n, E'), the blocks
    of A as :class:`DualBlocks` lists them in ``table``; returns (n, E), each
    row the blocks of one exponential, laid out as ``counit_table`` reads
    them.  Blocks of size 1 take ``np.exp``, of size 2 the closed form,
    larger ones scipy's ``expm``."""
    out = np.empty((entries.shape[0], blocks.counit_table.shape[0]), dtype=complex)
    src = dst = 0
    for k, m in blocks.groups:
        width = k * k * m
        if k == 1:
            np.exp(entries[:, src:src + m], out=out[:, dst:dst + m])
        elif k == 2:   # m half traces, then the traceless blocks
            _expm_2x2(entries[:, src:src + m],
                      entries[:, src + m:src + 5 * m].reshape(-1, 4, m),
                      out[:, dst:dst + width].reshape(-1, 4, m))
            src += m
        else:
            _group_view(out[:, dst:dst + width], k, m)[...] = \
                expm(_group_view(entries[:, src:src + width], k, m))
        src += width
        dst += width
    return out


def _group_view(cols, k, m):
    """The columns of one group, entry by entry, as blocks (n, m, k, k)."""
    return cols.reshape(-1, k, k, m).transpose(0, 3, 1, 2)


def group_blocks(blocks, flat):
    """The blocks in rows of (n, E) as one array (n, m, k, k) per group."""
    out, ofs = [], 0
    for k, m in blocks.groups:
        out.append(_group_view(flat[:, ofs:ofs + k * k * m], k, m))
        ofs += k * k * m
    return out


def counit_of_product(blocks, factors):
    """Coordinates of eps o (F_0 F_1 ... F_{n-1}), the rows of ``factors``
    (n, E) holding the blocks of each F_i in product order: the blocks are
    multiplied per block, then sent through eps V (.) V^-1."""
    if factors.shape[0] > 1:
        factors = np.concatenate([_ordered_product(f).transpose(1, 2, 0).reshape(1, -1)
                                  for f in group_blocks(blocks, factors)], axis=1)
    return factors[0] @ blocks.counit_table


def _ordered_product(f):
    """f[0] @ f[1] @ ... @ f[n-1] over the leading axis of a stack
    (n, m, k, k): entrywise for k = 1, else by pairwise products in
    ceil(log2 n) batched calls."""
    if f.shape[-1] == 1:
        return f.prod(axis=0)
    while f.shape[0] > 1:
        pairs = f[:-1:2] @ f[1::2]
        f = np.concatenate((pairs, f[-1:])) if f.shape[0] % 2 else pairs
    return f[0]
