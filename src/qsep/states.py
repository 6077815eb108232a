"""Random-state generators for 3-qubit density matrices.

Pure states are returned as kets (complex vectors), mixed states as 8x8
density matrices. Every generator takes an explicit numpy Generator so
sampling is reproducible.
"""
from __future__ import annotations

import numpy as np

from .linalg import hermitian_eig, kron_all, partial_trace

SQRT_HALF = 1.0 / np.sqrt(2.0)
CIRCUIT_QUBITS = 3
CIRCUIT_DEPTH = 4  # layers of `random_circuit_state`
MIXTURE_TERMS = (2, 8)  # fewest and most product kets in `random_product_mixture`


def haar_random_pure(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ket on n qubits: normalized complex Gaussian vector."""
    d = 2**n_qubits
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def ket_to_dm(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def random_separable_pure(rng: np.random.Generator) -> np.ndarray:
    """Product of three Haar single-qubit kets."""
    a, b, c = (haar_random_pure(1, rng) for _ in range(3))
    return np.kron(np.kron(a, b), c)


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation."""
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ]
    )


def _apply_1q(psi: np.ndarray, gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = psi.reshape((2,) * n)
    t = np.moveaxis(t, qubit, 0)
    t = np.tensordot(gate, t, axes=(1, 0))
    return np.moveaxis(t, 0, qubit).reshape(-1)


def _apply_cnot(psi: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    t = psi.reshape((2,) * n).copy()
    t = np.moveaxis(t, (control, target), (0, 1))
    t[1] = t[1][::-1]
    return np.moveaxis(t, (0, 1), (control, target)).reshape(-1)


def random_circuit_state(rng: np.random.Generator, entangling: bool) -> np.ndarray:
    """3-qubit ket from a CIRCUIT_DEPTH-layer random circuit acting on |000>.

    Each layer applies an independent u3 with angles ~ U[0, 2pi) to every
    qubit; entangling layers append a CNOT on a random adjacent pair.
    """
    n = CIRCUIT_QUBITS
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for _ in range(CIRCUIT_DEPTH):
        for q in range(n):
            th, ph, la = rng.uniform(0.0, 2.0 * np.pi, size=3)
            psi = _apply_1q(psi, u3(th, ph, la), q, n)
        if entangling:
            c = int(rng.integers(0, n - 1))
            psi = _apply_cnot(psi, c, c + 1, n)
    return psi


def random_single_qubit_mixed(rng: np.random.Generator) -> np.ndarray:
    """Single-qubit mixed state: reduction of a 2-qubit Haar ket."""
    return partial_trace(ket_to_dm(haar_random_pure(2, rng)), keep=[0])


def random_mixed_product(rng: np.random.Generator) -> np.ndarray:
    """Product of three independent single-qubit mixed states."""
    return kron_all(random_single_qubit_mixed(rng) for _ in range(3))


def _haar_unitary_2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def antipodal_classical(rng: np.random.Generator, shared_basis: bool = False) -> np.ndarray:
    """Two-term mixture of a product ket and its qubit-wise antipode.

    Each qubit gets an orthonormal basis {|x>, |x_perp>}; the all-0 and
    all-1 outcomes are mixed with weights (w, 1-w), w ~ U(0.5, 0.97).
    With shared_basis all three qubits use the same basis.
    """
    if shared_basis:
        us = [_haar_unitary_2(rng)] * 3
    else:
        us = [_haar_unitary_2(rng) for _ in range(3)]
    k1 = kron_all(u[:, 0] for u in us)
    k2 = kron_all(u[:, 1] for u in us)
    w = rng.uniform(0.5, 0.97)
    return w * ket_to_dm(k1) + (1.0 - w) * ket_to_dm(k2)


def random_product_mixture(rng: np.random.Generator) -> np.ndarray:
    """Dirichlet mixture of m ~ U{MIXTURE_TERMS} Haar product kets: separable
    by construction."""
    m = int(rng.integers(MIXTURE_TERMS[0], MIXTURE_TERMS[1] + 1))
    w = rng.dirichlet(np.ones(m))
    rho = np.zeros((8, 8), dtype=complex)
    for j in range(m):
        rho += w[j] * ket_to_dm(random_separable_pure(rng))
    return rho


def mix(states: list[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """Convex mixture of density matrices."""
    probs = np.asarray(probs, dtype=float)
    if len(states) != len(probs) or len(states) == 0:
        raise ValueError("states and probs must be equal-length and non-empty")
    if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be a probability distribution")
    probs = probs / probs.sum()
    out = np.zeros_like(states[0], dtype=complex)
    for p, s in zip(probs, states):
        out += p * s
    return out


def reduce_from_larger(n_src: int, rng: np.random.Generator) -> np.ndarray:
    """3-qubit state from tracing a Haar ket on n_src in {4, 5} qubits."""
    if n_src not in (4, 5):
        raise ValueError("n_src must be 4 or 5")
    return partial_trace(ket_to_dm(haar_random_pure(n_src, rng)), keep=[0, 1, 2])


def boost_largest_eigenvalue(rho: np.ndarray, c) -> np.ndarray:
    """Add weight c to the projector on the top eigenvector, renormalize.

    Also takes a stack (N, d, d) with one weight per state: one stacked
    eigendecomposition, and per state the arithmetic of the single case.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c < 0.0):
        raise ValueError("boost weight must be >= 0")
    w, v = hermitian_eig(rho)
    top = v[..., -1]
    c = c[..., None, None]
    out = rho + c * (top[..., :, None] * top.conj()[..., None, :])
    return out / (w.sum(axis=-1)[..., None, None] + c)


# --- 2D map family ---------------------------------------------------------


def map_params(u, v) -> np.ndarray:
    """(N, 4) state parameters, rows (p, a_param, phi, c_boost), for the N map
    coordinates (u, v) taken elementwise from two equal-size arrays, each
    flattened in C order.

    The inner square [0.5,1.5]^2 carries mixtures of two orthogonal product
    states (p grows along v, the basis parameter a shrinks along u, both
    mirrored about the diagonal); the relative phase turns on outside the
    square and reaches pi/2 at the map edge; an eigenvalue boost turns on
    beyond the u+v=3 anti-diagonal and, below the main diagonal, toward the
    lower-left corner.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ValueError("u and v must have the same number of coordinates")
    if not (np.all((0.0 <= u) & (u <= 2.0)) and np.all((0.0 <= v) & (v <= 2.0))):
        raise ValueError("map coordinates must lie in [0,2]^2")

    def clamp(x):
        return np.minimum(1.0, np.maximum(0.0, x))

    lo, hi = np.minimum(u, v), np.maximum(u, v)  # mirrored about the diagonal
    p = 0.5 * clamp(hi - 0.5)
    a = SQRT_HALF * (1.0 - clamp(lo - 0.5))
    phi = 0.5 * np.pi * clamp((np.maximum(abs(u - 1.0), abs(v - 1.0)) - 0.5) / 0.5)
    c = clamp(u + v - 3.0) + np.where(v < u, clamp(1.0 - (u + v) / 2.0), 0.0)
    return np.stack([p, a, phi, c], axis=1)


def _kron3(psi: np.ndarray) -> np.ndarray:
    """(N, 8) kets psi x psi x psi of (N, 2) kets, by the products np.kron forms."""
    n = len(psi)
    k = (psi[:, :, None] * psi[:, None, :]).reshape(n, 4)
    return (k[:, :, None] * psi[:, None, :]).reshape(n, 8)


def map_states(table: np.ndarray) -> np.ndarray:
    """(N, 8, 8) density matrices for the N rows of a `map_params` table, all
    in one pass.

    Each state is p |k1><k1| + (1-p) |k2><k2| for the product kets
    k1 = psi1^(x3), k2 = psi2^(x3), then `boost_largest_eigenvalue` where
    c_boost > 0 (one stacked eigendecomposition over those states). Each
    element goes through the per-point operations in the per-point order,
    so a state is bit-identical whatever else is in the call, and equal rows
    give equal matrices: where the top eigenvalue is degenerate before the
    boost, a last-bit change can pick another eigenvector.
    """
    p, a, phi, c = np.ascontiguousarray(np.asarray(table, dtype=float).T)
    p = p[:, None, None]
    s = np.sqrt(1.0 - a * a)
    psi1 = np.stack([a, s], axis=1).astype(complex)
    psi2 = np.stack([np.exp(-0.5j * phi) * s, -a * np.exp(0.5j * phi)], axis=1)
    k1, k2 = _kron3(psi1), _kron3(psi2)
    # p dm1 + (1-p) dm2 by the same products, written in place so that at
    # most two (N, 8, 8) arrays are alive
    rho = k1[:, :, None] * k1.conj()[:, None, :]
    np.multiply(p, rho, out=rho)
    dm2 = k2[:, :, None] * k2.conj()[:, None, :]
    np.multiply(1.0 - p, dm2, out=dm2)
    rho += dm2
    del dm2
    boost = np.flatnonzero(c > 0.0)
    if len(boost):
        rho[boost] = boost_largest_eigenvalue(rho[boost], c[boost])
    return rho


def map_state(u: float, v: float) -> np.ndarray:
    """Density matrix of one map coordinate: a row of `map_states`."""
    return map_states(map_params(u, v))[0]
