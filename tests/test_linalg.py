import numpy as np
import pytest

from qsep.linalg import (
    check_density_matrix,
    hermitian_eig,
    kron_all,
    partial_trace,
    partial_transpose,
    permute_qubits,
)

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def ghz():
    k = np.zeros(8, dtype=complex)
    k[0] = k[7] = 2**-0.5
    return np.outer(k, k.conj())


def random_dm(rng, n_qubits=3):
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_herm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


class TestKron:
    """kron_all of two factors: the Kronecker product, qubit 0 most significant."""

    def test_identity(self):
        assert np.array_equal(kron_all([I2, I2]), np.eye(4))

    def test_basis_projectors(self):
        got = kron_all([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_sigma_z_expansion(self):
        assert np.array_equal(kron_all([SZ, I2]), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = kron_all([kron_all([a, b]), c])
        right = kron_all([a, kron_all([b, c])])
        assert np.abs(left - right).max() <= 1e-14

    def test_index_formula(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = kron_all([a, b])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        # vectorized complex multiply may round differently
                        # in the last bit than the scalar product
                        assert abs(out[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) <= 1e-15


class TestPartialTrace:
    def test_product_recovers_factor(self):
        rng = np.random.default_rng(2)
        parts = [random_dm(rng, 1) for _ in range(3)]
        rho = kron_all(parts)
        for q in range(3):
            got = partial_trace(rho, keep=[q])
            assert np.abs(got - parts[q]).max() <= 1e-12

    def test_ghz_single_qubit(self):
        got = partial_trace(ghz(), keep=[0])
        assert np.abs(got - np.diag([0.5, 0.5])).max() <= 1e-12

    def test_maximally_mixed(self):
        got = partial_trace(np.eye(8, dtype=complex) / 8, keep=[1, 2])
        assert np.abs(got - np.eye(4) / 4).max() <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_dm(rng)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            out = partial_trace(rho, keep=keep)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_kron_chain_property(self):
        rng = np.random.default_rng(4)
        parts = [random_dm(rng, 1) for _ in range(3)]
        rho = kron_all(parts)
        got = partial_trace(rho, keep=[0, 2])
        want = np.kron(parts[0], parts[2])
        assert np.abs(got - want).max() <= 1e-12

    def test_keep_order_respected(self):
        rng = np.random.default_rng(5)
        parts = [random_dm(rng, 1) for _ in range(3)]
        rho = kron_all(parts)
        got = partial_trace(rho, keep=[2, 0])
        want = np.kron(parts[2], parts[0])
        assert np.abs(got - want).max() <= 1e-12

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(3, dtype=complex), keep=[0])


class TestPartialTranspose:
    def test_product_spectrum_unchanged(self):
        rng = np.random.default_rng(6)
        parts = [random_dm(rng, 1) for _ in range(3)]
        rho = kron_all(parts)
        for part in ([0], [1], [2]):
            pt = partial_transpose(rho, part=part)
            a = np.sort(np.linalg.eigvalsh(rho))
            b = np.sort(np.linalg.eigvalsh(pt))
            assert np.abs(a - b).max() <= 1e-12

    def test_diagonal_invariant(self):
        rho = np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex)
        for part in ([0], [1], [2]):
            assert np.array_equal(partial_transpose(rho, part=part), rho)

    def test_ghz_min_eigenvalue(self):
        pt = partial_transpose(ghz(), part=[0])
        assert abs(np.linalg.eigvalsh(pt).min() - (-0.5)) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(7)
        rho = random_dm(rng)
        for part in ([0], [1], [2], [0, 1]):
            back = partial_transpose(partial_transpose(rho, part=part), part=part)
            assert np.array_equal(back, rho)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(8)
        rho = random_dm(rng)
        pt = partial_transpose(rho, part=[1])
        assert abs(np.trace(pt) - 1.0) <= 1e-12
        assert np.abs(pt - pt.conj().T).max() <= 1e-12


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(8, dtype=complex))
        assert np.abs(vals - 1.0).max() <= 1e-12

    def test_diagonal_sorted(self):
        vals, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
        assert np.abs(vals - np.array([0.0, 1.0, 2.0, 3.0])).max() <= 1e-12

    def test_ghz_rank_one(self):
        vals, _ = hermitian_eig(ghz())
        want = np.zeros(8)
        want[-1] = 1.0
        assert np.abs(vals - want).max() <= 1e-10

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(9)
        h = random_herm(rng, 8)
        vals, vecs = hermitian_eig(h)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.abs(recon - h).max() <= 1e-10 * (1 + np.abs(h).max())
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    def test_trace_equals_eigensum(self):
        rng = np.random.default_rng(10)
        h = random_herm(rng, 16)
        vals, _ = hermitian_eig(h)
        assert abs(vals.sum() - np.trace(h).real) <= 1e-10

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            hermitian_eig(m)


class TestPermuteQubits:
    def test_product_permutation(self):
        rng = np.random.default_rng(11)
        parts = [random_dm(rng, 1) for _ in range(3)]
        rho = kron_all(parts)
        perm = [2, 0, 1]
        got = permute_qubits(rho, perm)
        want = kron_all([parts[p] for p in perm])
        assert np.abs(got - want).max() <= 1e-14

    def test_identity_perm(self):
        rng = np.random.default_rng(12)
        rho = random_dm(rng)
        assert np.array_equal(permute_qubits(rho, [0, 1, 2]), rho)


class TestCheckDensityMatrix:
    def test_valid(self):
        rng = np.random.default_rng(13)
        assert check_density_matrix(random_dm(rng)) is None
        assert check_density_matrix(np.stack([random_dm(rng) for _ in range(5)])) is None

    def test_trace_violation(self):
        i, what = check_density_matrix(np.eye(8, dtype=complex))
        assert i == 0 and what.startswith("has trace 8")

    def test_first_bad_matrix_of_a_stack(self):
        rng = np.random.default_rng(14)
        stack = np.stack([random_dm(rng) for _ in range(6)])
        stack[4, 0, 0] = np.inf
        stack[2, 1, 3] += 1e-6  # Hermiticity off by more than HERMITICITY_TOL
        i, what = check_density_matrix(stack)
        assert i == 2 and what.startswith("is not Hermitian")
        stack[2] = random_dm(rng)
        assert check_density_matrix(stack) == (4, "is not finite")
