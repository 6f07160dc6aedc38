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
    return float(np.max(np.abs(a))) if a.size else 0.0


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


def lstsq_minnorm(a, b):
    """Minimal-norm least-squares solution with relative singular-value cutoff."""
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=RCOND)
    return x


def numerical_rank(a):
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > SPECTRAL_TOL * s[0]))
