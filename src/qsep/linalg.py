"""Dense linear algebra for small multi-qubit density matrices.

All matrices are plain complex ndarrays. Basis convention throughout the
package: qubit 0 is the most significant bit of the computational basis
index, so for three qubits the basis state |abc> sits at index 4a + 2b + c.
The qubit operations and `hermitian_eig` also take a stack (..., d, d) and
act on each matrix of it, with the same arithmetic as on one matrix.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "kron",
    "kron_all",
    "partial_trace",
    "partial_transpose",
    "permute_qubits",
    "hermitian_eig",
    "check_density_matrix",
]

HERMITICITY_TOL = 1e-9


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (qubit 0 = most significant)."""
    return np.kron(a, b)


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = None
    for m in mats:
        out = np.asarray(m) if out is None else np.kron(out, m)
    if out is None:
        raise ValueError("kron_all needs at least one matrix")
    return out


def _n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a 2^n x 2^n matrix, or of each matrix in a stack of them."""
    d = rho.shape[-1] if rho.ndim else 0
    if rho.ndim < 2 or rho.shape[-2] != d or d & (d - 1) or d == 0:
        raise ValueError(f"expected a square 2^n x 2^n matrix, got shape {rho.shape}")
    return d.bit_length() - 1


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out every qubit not listed in `keep`.

    Parameters
    ----------
    rho : (..., 2^n, 2^n) ndarray
    keep : ordered qubit indices to retain (each in [0, n)).

    Returns
    -------
    (..., 2^k, 2^k) ndarray over the kept qubits, in the order given.
    """
    n = _n_qubits_of(rho)
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"bad keep list {keep} for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    lead = rho.shape[:-2]
    b = len(lead)
    t = rho.reshape(lead + (2,) * (2 * n))
    # contract row axis q with column axis q+m for every traced qubit, m = qubits left
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=b + q, axis2=b + q + (t.ndim - b) // 2)
    k = len(keep)
    # axes now correspond to the kept qubits in original order; reorder to `keep`
    order = sorted(keep)
    perm = [b + order.index(q) for q in keep]
    t = np.transpose(t, list(range(b)) + perm + [p + k for p in perm])
    return t.reshape(lead + (2**k, 2**k))


def partial_transpose(rho: np.ndarray, part: Sequence[int]) -> np.ndarray:
    """Transpose the row/column indices of the qubits in `part`."""
    n = _n_qubits_of(rho)
    part = set(part)
    if any(q < 0 or q >= n for q in part):
        raise ValueError(f"bad part {sorted(part)} for {n} qubits")
    b = rho.ndim - 2
    t = rho.reshape(rho.shape[:b] + (2,) * (2 * n))
    axes = list(range(b + 2 * n))
    for q in part:
        axes[b + q], axes[b + q + n] = axes[b + q + n], axes[b + q]
    return np.transpose(t, axes).reshape(rho.shape)


def permute_qubits(rho: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder qubits so that new position i carries old qubit perm[i]."""
    n = _n_qubits_of(rho)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {list(perm)} is not a permutation of 0..{n-1}")
    b = rho.ndim - 2
    t = rho.reshape(rho.shape[:b] + (2,) * (2 * n))
    axes = list(range(b)) + [b + p for p in perm] + [b + p + n for p in perm]
    return np.transpose(t, axes).reshape(rho.shape)


def hermitian_eig(h: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Rejects inputs with max|h - h^dag| > tol, symmetrizes the rest and
    returns (eigenvalues ascending, eigenvectors as columns).
    """
    h = np.asarray(h)
    h_dag = h.conj().swapaxes(-1, -2)
    dev = np.abs(h - h_dag).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    w, v = np.linalg.eigh(0.5 * (h + h_dag))
    return w, v


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise if rho is not Hermitian, unit trace and PSD (within tol)."""
    _n_qubits_of(rho)
    if rho.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {rho.shape}")
    dev = np.abs(rho - rho.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: {dev:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} != 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -tol:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")
