"""The Fourier form of the lifted generators, and exponentials taken in it.

A lifted generator R_gamma = (id (x) gamma) Delta, the d x d matrix
L[i, k] = sum_j Delta[k, i, j] gamma_j acting on coordinate rows (its one
builder is ``Bialgebra.lift``), maps every subcoalgebra into itself.  A
cosemisimple coalgebra is the direct sum of its
simple subcoalgebras C_sigma, one per irreducible sigma (Sweedler, "Hopf
Algebras", 1969; Peter-Weyl for compact quantum groups, Woronowicz, "Compact
quantum groups", 1998), so in one basis V of coordinate space every R_gamma
is block diagonal, with n_sigma similar blocks of size n_sigma on C_sigma.
:func:`decompose` finds V and chooses it so that the n_sigma copies of each
sigma carry one and the same block: the Fourier transform, in which
convolution is one matrix product per sigma.  The 1 x 1 blocks (the
characters) commute, so an ordered product of their exponentials is the
exponential of the summed exponents.  :func:`counit_of_exponentials`
evaluates eps o expm(A_1) ... expm(A_n) that way: one exponential per
character, and per sigma of dimension >= 2 one exponential a factor and the
product of the n blocks, in O(log n) batched calls.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .linalg import SPECTRAL_TOL, commutator_system, maxabs


@dataclass(frozen=True)
class DualBlocks:
    """A basis V of coordinate space in which every lifted matrix is block
    diagonal, found by :func:`decompose`, with the tables that the block
    exponentials read and write.

    The columns of V run sigma by sigma, and within a sigma copy after copy;
    all copies of a sigma carry the same block, so the tables list one block
    per sigma.  Both tables list a group of m sigma of dimension k entry by
    entry: entry (0, 0) of each of the m blocks, then entry (0, 1), and so
    on in row-major order, so that every entry is one contiguous run.
    ``table`` lists a group of 2 x 2 blocks as the half trace tau of each
    block and then the entries of each block minus tau I, the form that the
    closed-form exponential reads.  The characters, if any, are the first
    group, so they are the first ``characters`` columns of ``table``.
    """

    basis: np.ndarray       # (d, d) V, columns grouped by sigma, then by copy
    inverse: np.ndarray     # (d, d) V^-1
    groups: tuple           # ((k, m), ...): m sigma of dimension k, k ascending
    copies: tuple           # (n, ...): the copies of each sigma, in column order
    table: np.ndarray       # (d, E'): row j lists the blocks of V^-1 L(e_j) V
    counit_table: np.ndarray  # (E, d): eps V P V^-1 = (blocks of P) @ counit_table
    cond: float             # cond(V)

    @property
    def sizes(self):
        """The diagonal block sizes of V^-1 L V, in column order."""
        dims = [k for k, m in self.groups for _ in range(m)]
        return tuple(k for k, n in zip(dims, self.copies) for _ in range(n))

    @property
    def characters(self):
        """The number of 1 x 1 blocks, the first group of the tables."""
        k, m = self.groups[0]
        return m if k == 1 else 0


BLOCK_COND_LIMIT = 1e4   # largest cond(V) or cond(S) accepted: rounding grows with it


def decompose(b):
    """The :class:`DualBlocks` of a bialgebra.

    The blocks are the eigenspaces of one generic left multiplication
    eta -> a * eta of the dual (``Bialgebra.left_lift``), which
    commutes with every right multiplication R_gamma; they are checked on
    all d basis lifts.  Each block of size k >= 2 is then compared with the
    earlier representatives of that size by :func:`_intertwiner`; a copy of
    one of them is folded onto it.  When the eigenvectors do not
    block-diagonalize the lifts to rounding, or cond(V) exceeds
    ``BLOCK_COND_LIMIT`` (the dual is not semisimple), V is the identity
    with one block of size d."""
    d = b.dim
    lifts = b.lift(np.eye(d))   # lifts[j] = L(e_j)
    tol = SPECTRAL_TOL * maxabs(b.coproduct)
    try:
        v, label = _eigenspaces(b)
        blocks = np.linalg.inv(v) @ lifts @ v
        split = (np.linalg.cond(v) <= BLOCK_COND_LIMIT
                 and maxabs(blocks[:, label[:, None] != label]) <= tol)
    except np.linalg.LinAlgError:
        split = False
    if split:
        v, sigmas = _fold(v, label, blocks)
    else:
        v, sigmas = np.eye(d, dtype=complex), [(d, 1)]
    inverse = np.linalg.inv(v)
    blocks = inverse @ lifts @ v
    counit_v = b.counit @ v
    # the columns of every sigma as (copies, k), the first copy representing it
    cols, ofs = [], 0
    for k, n in sigmas:
        cols.append(ofs + np.arange(n * k).reshape(n, k))
        ofs += n * k
    groups, table, counit_table = [], [], []
    for k in dict.fromkeys(k for k, _ in sigmas):
        mine = [c for c in cols if c.shape[1] == k]
        m = len(mine)
        rep = np.array([c[0] for c in mine])
        part = blocks[:, rep[:, :, None], rep[:, None, :]].transpose(0, 2, 3, 1)
        if k == 2:
            tau = 0.5 * (part[:, 0, 0] + part[:, 1, 1])
            table.append(tau)
            part = part - np.eye(2)[:, :, None] * tau[:, None, None]
        table.append(part.reshape(d, k * k * m))
        # entry (k, l) of a sigma's block of P contributes, summed over its
        # copies c, (eps V)[c, k] (V^-1)[c, l, :]
        counit_table.append(np.stack([np.einsum("ck,cld->kld", counit_v[c], inverse[c])
                                      for c in mine], axis=2).reshape(k * k * m, d))
        groups.append((k, m))
    return DualBlocks(v, inverse, tuple(groups), tuple(n for _, n in sigmas),
                      np.concatenate(table, axis=1), np.concatenate(counit_table),
                      float(np.linalg.cond(v)))


def _eigenspaces(b):
    """Eigenvectors V of a generic left multiplication of the dual, columns
    ordered by the size of their eigenvalue's cluster and then by cluster,
    with one cluster label per column."""
    d = b.dim
    rng = np.random.default_rng(0)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    mu, v = np.linalg.eig(b.left_lift(a))
    # clusters of equal eigenvalues: least-label propagation over closeness
    close = np.abs(mu[:, None] - mu[None, :]) <= SPECTRAL_TOL * max(1.0, maxabs(mu))
    label = np.arange(d)
    for _ in range(d):
        label, prev = np.where(close, label, d).min(axis=1), label
        if np.array_equal(label, prev):
            break
    cols = np.lexsort((label, np.bincount(label, minlength=d)[label]))
    return v[:, cols], label[cols]


def _fold(v, label, blocks):
    """Fold the copies of every sigma onto its first block: a block a of size
    k >= 2 with an intertwiner S onto an earlier representative r,
    B_a(e_j) S = S B_r(e_j) for all j, gets the columns V_a S, scaled to the
    norm of V_a, so that its block becomes B_r.  Returns V with its columns
    sigma by sigma, copy after copy, and the (k, copies) of every sigma in
    that order, k ascending.  A block with no intertwiner is its own sigma."""
    v = v.copy()
    sigmas = []   # per sigma, the columns of each copy
    for lab in dict.fromkeys(label):
        cols = np.flatnonzero(label == lab)
        k = cols.size
        for copies in sigmas:
            rep = copies[0]
            s = None if k == 1 or rep.size != k else _intertwiner(
                blocks[:, cols[:, None], cols], blocks[:, rep[:, None], rep])
            if s is not None:
                folded = v[:, cols] @ s
                v[:, cols] = folded * (np.linalg.norm(v[:, cols]) / np.linalg.norm(folded))
                copies.append(cols)
                break
        else:
            sigmas.append([cols])
    order = np.concatenate([c for copies in sigmas for c in copies])
    return v[:, order], [(copies[0].size, len(copies)) for copies in sigmas]


def _intertwiner(left, right):
    """The S with left[j] S = S right[j] for every j of the stacks (d, k, k),
    when their solutions are one line spanned by an S with cond(S) at most
    ``BLOCK_COND_LIMIT``; else None (Schur: no solution but 0 when the
    blocks are inequivalent irreducibles)."""
    k = right.shape[-1]
    _, sv, vh = np.linalg.svd(commutator_system(left, right))
    cut = SPECTRAL_TOL * sv[0]
    if not (sv[-1] <= cut < sv[-2]):
        return None
    s = vh[-1].conj().reshape(k, k).T   # vec(S) is column-stacked
    return s if np.linalg.cond(s) <= BLOCK_COND_LIMIT else None


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


def block_exponentials(groups, entries):
    """The blocks of expm(A) for every row of ``entries`` (n, E'), the blocks
    of A for the ``groups`` ((k, m), ...) laid out as :class:`DualBlocks`
    lists them in ``table``; returns (n, E), each row the blocks of one
    exponential, laid out as ``counit_table`` reads them.  Blocks of size 1
    take ``np.exp``, of size 2 the closed form, larger ones scipy's
    ``expm``."""
    out = np.empty((entries.shape[0], sum(k * k * m for k, m in groups)), dtype=complex)
    src = dst = 0
    for k, m in groups:
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


def group_blocks(groups, flat):
    """The blocks in rows of (n, E) as one array (n, m, k, k) per group."""
    out, ofs = [], 0
    for k, m in groups:
        out.append(_group_view(flat[:, ofs:ofs + k * k * m], k, m))
        ofs += k * k * m
    return out


def counit_of_exponentials(blocks, characters, pieces):
    """Coordinates of eps o (expm(A_0) expm(A_1) ... expm(A_{n-1})) for
    exponents A_i in the layout of ``table``: ``characters`` (m_1,) is the
    sum over i of their 1 x 1 blocks, whose exponentials commute, and the
    rows of ``pieces`` (n, E' - m_1) hold their larger blocks in product
    order.  The blocks of the product are sent through eps V (.) V^-1."""
    rest = blocks.groups[1:] if blocks.characters else blocks.groups
    if not rest:   # a dual of characters
        return np.exp(characters) @ blocks.counit_table
    factors = block_exponentials(rest, pieces)
    if factors.shape[0] > 1:
        factors = np.concatenate([_ordered_product(g.transpose(2, 3, 0, 1)).reshape(1, -1)
                                  for g in group_blocks(rest, factors)], axis=1)
    return np.concatenate((np.exp(characters), factors[0])) @ blocks.counit_table


def _ordered_product(f):
    """The blocks of f[:, :, 0] @ f[:, :, 1] @ ... @ f[:, :, n-1] for a stack
    of n blocks given entry by entry, f (k, k, n, m), as (k, k, m), by
    pairwise products in ceil(log2 n) rounds.  The stack is copied once so
    that the pieces run along its last axes: a round is then one broadcast
    product of all k^3 entry pairs and k - 1 sums over the inner index, each
    a loop over the pieces, where a stacked matmul makes one BLAS call per
    block."""
    k = f.shape[0]
    f = np.ascontiguousarray(f)
    while f.shape[2] > 1:
        half = f.shape[2] // 2
        # prod[i, j, l] = a[i, j] b[j, l] for the pairs (a, b) of neighbours
        prod = f[:, :, None, :2 * half:2] * f[None, :, :, 1::2]
        pairs = prod[:, 0] + prod[:, 1]
        for j in range(2, k):
            pairs += prod[:, j]
        f = np.concatenate((pairs, f[:, :, -1:]), axis=2) if f.shape[2] % 2 else pairs
    return f[:, :, 0]
