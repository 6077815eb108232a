"""Random-state generators for 3-qubit density matrices.

Pure states are returned as kets (complex vectors), mixed states as 8x8
density matrices. Every generator takes an explicit numpy Generator so
sampling is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import hermitian_eig, kron_all, partial_trace

SQRT_HALF = 1.0 / np.sqrt(2.0)


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


def random_circuit_state(
    n_qubits: int = 3,
    depth: int = 4,
    entangling: bool = True,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Ket from a layered random circuit acting on |0...0>.

    Each layer applies an independent u3 with angles ~ U[0, 2pi) to every
    qubit; entangling layers append a CNOT on a random adjacent pair.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if rng is None:
        raise ValueError("rng is required")
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    for _ in range(depth):
        for q in range(n_qubits):
            th, ph, la = rng.uniform(0.0, 2.0 * np.pi, size=3)
            psi = _apply_1q(psi, u3(th, ph, la), q, n_qubits)
        if entangling and n_qubits >= 2:
            c = int(rng.integers(0, n_qubits - 1))
            psi = _apply_cnot(psi, c, c + 1, n_qubits)
    return psi


def random_single_qubit_mixed(rng: np.random.Generator) -> np.ndarray:
    """Single-qubit mixed state: reduction of a 2-qubit Haar ket."""
    return partial_trace(ket_to_dm(haar_random_pure(2, rng)), keep=[0])


def random_mixed_product(rng: np.random.Generator) -> np.ndarray:
    """Product of three independent single-qubit mixed states."""
    return kron_all(random_single_qubit_mixed(rng) for _ in range(3))


def random_classical_state(
    rng: np.random.Generator, min_terms: int = 2, max_terms: int = 8
) -> np.ndarray:
    """Mixture diagonal in a random product basis (zero discord everywhere).

    The diagonal is supported on m ~ U{min_terms..max_terms} of the 8
    product-basis outcomes with Dirichlet(1) weights.
    """
    us = [_haar_unitary_2(rng) for _ in range(3)]
    u = kron_all(us)
    m = int(rng.integers(min_terms, max_terms + 1))
    support = rng.choice(8, size=m, replace=False)
    p = np.zeros(8)
    p[support] = rng.dirichlet(np.ones(m))
    return (u * p) @ u.conj().T


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


def random_product_mixture(
    rng: np.random.Generator, min_terms: int = 2, max_terms: int = 8
) -> np.ndarray:
    """Dirichlet mixture of Haar product kets: separable by construction."""
    m = int(rng.integers(min_terms, max_terms + 1))
    w = rng.dirichlet(np.ones(m))
    rho = np.zeros((8, 8), dtype=complex)
    for j in range(m):
        rho += w[j] * ket_to_dm(random_separable_pure(rng))
    return rho


@dataclass
class ParameterizedParams:
    """Inputs to the parameterized mixed-state generator.

    amps: per-qubit |0> amplitudes a_i in [0,1] (|1> amplitude is sqrt(1-a_i^2))
    phases: (phi_12, phi_13, phi_23) on the doubly-excited basis states
    dephase: per-qubit coherence scale c_i in [0,1]
    angles: 3x3 array of (theta, phi, lambda) for the final local rotations
    """

    amps: np.ndarray
    phases: np.ndarray
    dephase: np.ndarray
    angles: np.ndarray


def sample_parameterized(rng: np.random.Generator) -> ParameterizedParams:
    return ParameterizedParams(
        amps=rng.uniform(0.0, 1.0, size=3),
        phases=rng.uniform(0.0, 2.0 * np.pi, size=3),
        dephase=rng.uniform(0.0, 1.0, size=3),
        angles=rng.uniform(0.0, 2.0 * np.pi, size=(3, 3)),
    )


def parameterized_mixed(params: ParameterizedParams) -> np.ndarray:
    """Phased 3-qubit ket, per-qubit dephasing, then random local rotations."""
    a = np.asarray(params.amps, dtype=float)
    c = np.asarray(params.dephase, dtype=float)
    if a.shape != (3,) or np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError("amps must be three reals in [0, 1]")
    if c.shape != (3,) or np.any(c < 0.0) or np.any(c > 1.0):
        raise ValueError("dephase must be three reals in [0, 1]")
    phi_12, phi_13, phi_23 = params.phases
    b = np.sqrt(1.0 - a**2)
    amp = lambda bits, i: a[i] if bits[i] == 0 else b[i]  # noqa: E731
    ket = np.zeros(8, dtype=complex)
    extra = {3: phi_23, 5: phi_13, 6: phi_12, 7: phi_12 + phi_13 + phi_23}
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        ket[idx] = amp(bits, 0) * amp(bits, 1) * amp(bits, 2) * np.exp(1j * extra.get(idx, 0.0))
    rho = ket_to_dm(ket)
    # per-qubit dephasing: scale every coherence where qubit i's bits differ by c_i
    idx = np.arange(8)
    for i, shift in enumerate((2, 1, 0)):
        bit = (idx >> shift) & 1
        mask = bit[:, None] != bit[None, :]
        rho = rho * np.where(mask, c[i], 1.0)
    u = kron_all(u3(*params.angles[i]) for i in range(3))
    return u @ rho @ u.conj().T


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


@dataclass
class MapPoint:
    """Coordinates (u, v) in [0,2]^2 plus the derived state parameters."""

    u: float
    v: float
    p: float
    a_param: float
    phi: float
    c_boost: float


def _clamp(x: float, lo: float = 0.0, hi: float = 1.0) -> float:
    return min(hi, max(lo, x))


def map_point(u: float, v: float) -> MapPoint:
    """Derive the state parameters for a map coordinate.

    The inner square [0.5,1.5]^2 carries mixtures of two orthogonal product
    states (p grows along v, the basis parameter a shrinks along u, both
    mirrored about the diagonal); the relative phase turns on outside the
    square and reaches pi/2 at the map edge; an eigenvalue boost turns on
    beyond the u+v=3 anti-diagonal and, below the main diagonal, toward the
    lower-left corner.
    """
    if not (0.0 <= u <= 2.0 and 0.0 <= v <= 2.0):
        raise ValueError(f"map coordinates must lie in [0,2]^2, got ({u}, {v})")
    uu, vv = (u, v) if v >= u else (v, u)
    p = 0.5 * _clamp(vv - 0.5)
    a = SQRT_HALF * (1.0 - _clamp(uu - 0.5))
    phi = 0.5 * np.pi * _clamp((max(abs(u - 1.0), abs(v - 1.0)) - 0.5) / 0.5)
    c = _clamp(u + v - 3.0)
    if v < u:
        c += _clamp(1.0 - (u + v) / 2.0)
    return MapPoint(u=u, v=v, p=p, a_param=a, phi=phi, c_boost=c)


def _kron3(psi: np.ndarray) -> np.ndarray:
    """(N, 8) kets psi x psi x psi of (N, 2) kets, by the products np.kron forms."""
    n = len(psi)
    k = (psi[:, :, None] * psi[:, None, :]).reshape(n, 4)
    return (k[:, :, None] * psi[:, None, :]).reshape(n, 8)


def map_states(pts: Sequence[MapPoint]) -> np.ndarray:
    """(N, 8, 8) density matrices for map points, all in one pass.

    Each state is p |k1><k1| + (1-p) |k2><k2| for the product kets
    k1 = psi1^(x3), k2 = psi2^(x3), then `boost_largest_eigenvalue` where
    c_boost > 0 (one stacked eigendecomposition over those states). Each
    element goes through the per-point operations in the per-point order,
    so a state is bit-identical whatever else is in the call: where the top
    eigenvalue is degenerate before the boost, a last-bit change can pick
    another eigenvector.
    """
    a = np.array([pt.a_param for pt in pts], dtype=float)
    phi = np.array([pt.phi for pt in pts], dtype=float)
    p = np.array([pt.p for pt in pts], dtype=float)[:, None, None]
    c = np.array([pt.c_boost for pt in pts], dtype=float)
    s = np.sqrt(1.0 - a * a)
    psi1 = np.stack([a, s], axis=1).astype(complex)
    psi2 = np.stack([np.exp(-0.5j * phi) * s, -a * np.exp(0.5j * phi)], axis=1)
    k1, k2 = _kron3(psi1), _kron3(psi2)
    dm1 = k1[:, :, None] * k1.conj()[:, None, :]
    dm2 = k2[:, :, None] * k2.conj()[:, None, :]
    rho = p * dm1 + (1.0 - p) * dm2
    boost = np.flatnonzero(c > 0.0)
    if len(boost):
        rho[boost] = boost_largest_eigenvalue(rho[boost], c[boost])
    return rho


def map_state(pt: MapPoint) -> np.ndarray:
    """Density matrix for a map point."""
    return map_states([pt])[0]


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))
