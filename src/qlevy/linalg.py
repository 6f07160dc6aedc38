"""Linear-algebra helpers and the package's pass/fail tolerances."""

import numpy as np

STRUCT_TOL = 1e-12     # structure identities of exact data
RCOND = 1e-12          # relative singular-value cutoff of pinv and lstsq
SPECTRAL_TOL = 1e-10   # PSD margins; representation, character, reality defects; rank cuts
SOLVE_TOL = 1e-9       # residuals of a solved, reconstructed or exponentiated result
INPUT_TOL = 1e-8       # accepting an input as a derivation, chi-structure map or coboundary


def dagger(m):
    """Conjugate transpose of the last two axes."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def min_eig_herm(m):
    """Smallest eigenvalue of a (numerically) Hermitian matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (m + dagger(m)))[0])


def opnorm(m):
    """Operator (spectral) norm; 0 for empty matrices."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def maxabs(a):
    a = np.asarray(a)
    # the method, not np.max: the same reduction without the Python wrapper
    return float(np.abs(a).max()) if a.size else 0.0


def block_diag(blocks):
    """Assemble a block-diagonal complex matrix from square blocks; blocks
    stacked along equal leading axes give the stack of block-diagonal matrices."""
    n = sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n), dtype=complex)
    ofs = 0
    for b in blocks:
        k = b.shape[-1]
        out[..., ofs:ofs + k, ofs:ofs + k] = b
        ofs += k
    return out


def bordered(corner, row, column, body):
    """The complex matrix [[corner, row], [column, body]] on C + k, stacked
    over the leading axes of body (..., k, k); corner (...), row and column
    (..., k) broadcast against them, and each entry is written once."""
    k = body.shape[-1]
    out = np.empty(body.shape[:-2] + (1 + k, 1 + k), dtype=complex)
    out[..., 0, 0] = corner
    out[..., 0, 1:] = row
    out[..., 1:, 0] = column
    out[..., 1:, 1:] = body
    return out


def split_blocks(m, sizes):
    """Inverse of :func:`block_diag`: cut the diagonal blocks of the last
    two axes back out."""
    out = []
    ofs = 0
    for k in sizes:
        out.append(m[..., ofs:ofs + k, ofs:ofs + k].copy())
        ofs += k
    return out


def commutator_system(left, right):
    """The stacked matrix of T -> left[k] T - T right[k] on the column-stacked
    vec(T), for stacks left (m, p, p) and right (m, q, q): block k is
    I_q (x) left[k] - right[k]^T (x) I_p, of shape (p q, p q)."""
    m, p, _ = left.shape
    q = right.shape[-1]
    # entry [k, (a, i), (b, j)] = [a = b] left[k, i, j] - right[k, b, a] [i = j]
    out = np.eye(q)[None, :, None, :, None] * left[:, None, :, None, :] \
        - np.swapaxes(right, 1, 2)[:, :, None, :, None] * np.eye(p)[None, None, :, None, :]
    return out.reshape(m * q * p, q * p)


def solve_commutation(left, right, target):
    """The minimal-norm least-squares T of left[k] T - T right[k] = target[k]
    for stacks left (m, p, p), right (m, q, q) and target (m, p, q), solved
    over :func:`commutator_system` at ``RCOND``.  Returns (T, residual), the
    residual max |left T - T right - target|."""
    vec = target.transpose(0, 2, 1).reshape(-1)
    t = np.linalg.lstsq(commutator_system(left, right), vec, rcond=RCOND)[0]
    t = t.reshape(left.shape[-1], right.shape[-1], order="F")
    return t, maxabs(left @ t[None, :, :] - t[None, :, :] @ right - target)


def rank_of(s):
    """The number of descending singular values or eigenvalues s above
    ``SPECTRAL_TOL`` times the largest; 0 for an empty s."""
    return int(np.sum(s > SPECTRAL_TOL * s[0])) if s.size else 0


def null_space(a):
    """Rows spanning the null space of a: the conjugated rows of vh past
    :func:`rank_of` of its singular values."""
    _, s, vh = np.linalg.svd(a)
    return np.conjugate(vh[rank_of(s):])


def numerical_rank(a):
    return rank_of(np.linalg.svd(a, compute_uv=False))
