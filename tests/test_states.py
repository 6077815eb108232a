import tracemalloc

import numpy as np
import pytest
from classical_states import random_classical_state

from qsep.linalg import kron_all, partial_trace
from qsep.oracles import CUTS, negativity
from qsep import states
from qsep.states import (
    boost_largest_eigenvalue,
    haar_random_pure,
    ket_to_dm,
    map_params,
    map_state,
    map_states,
    mix,
    random_circuit_state,
    random_mixed_product,
    random_product_mixture,
    random_separable_pure,
    random_single_qubit_mixed,
    reduce_from_larger,
    u3,
)


def purity(rho):
    return float(np.trace(rho @ rho).real)


def ref_map_point(u, v):
    """The map parameters (p, a_param, phi, c_boost) one coordinate at a
    time, as written before the vectorised `map_params`."""

    def clamp(x):
        return min(1.0, max(0.0, x))

    uu, vv = (u, v) if v >= u else (v, u)
    p = 0.5 * clamp(vv - 0.5)
    a = states.SQRT_HALF * (1.0 - clamp(uu - 0.5))
    phi = 0.5 * np.pi * clamp((max(abs(u - 1.0), abs(v - 1.0)) - 0.5) / 0.5)
    c = clamp(u + v - 3.0)
    if v < u:
        c += clamp(1.0 - (u + v) / 2.0)
    return p, a, phi, c


def ref_map_state(params):
    """The map state of one (p, a_param, phi, c_boost), as written before
    `map_states`."""
    p, a, phi, c = params
    s = np.sqrt(1.0 - a * a)
    psi1 = np.array([a, s], dtype=complex)
    psi2 = np.array([np.exp(-0.5j * phi) * s, -a * np.exp(0.5j * phi)])
    k1 = kron_all([psi1] * 3)
    k2 = kron_all([psi2] * 3)
    rho = p * ket_to_dm(k1) + (1.0 - p) * ket_to_dm(k2)
    if c > 0.0:
        w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        top = v[:, -1]
        rho = (rho + c * np.outer(top, top.conj())) / (w.sum() + c)
    return rho


def assert_density_matrix(rho, atol_eig=1e-9):
    assert rho.shape == (8, 8)
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -atol_eig


class TestHaar:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4, 5):
            k = haar_random_pure(n, rng)
            assert abs(np.linalg.norm(k) - 1.0) <= 1e-12

    def test_mean_reduced_purity(self):
        # frozen Monte-Carlo oracle: mean purity of the 1-qubit reduction of a
        # 2-qubit Haar state is (dA + dB) / (dA*dB + 1) = 4/5
        rng = np.random.default_rng(1)
        total = 0.0
        n = 10_000
        for _ in range(n):
            rho = ket_to_dm(haar_random_pure(2, rng))
            total += purity(partial_trace(rho, keep=[0]))
        assert abs(total / n - 0.8) <= 0.02

    def test_different_seeds_differ(self):
        a = haar_random_pure(3, np.random.default_rng(1))
        b = haar_random_pure(3, np.random.default_rng(2))
        assert np.abs(a - b).max() > 1e-3


class TestSeparablePure:
    def test_negativity_zero_all_cuts(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = ket_to_dm(random_separable_pure(rng))
            for cut in CUTS:
                assert negativity(rho, cut) <= 1e-10

    def test_reductions_pure(self):
        rng = np.random.default_rng(3)
        rho = ket_to_dm(random_separable_pure(rng))
        for q in range(3):
            assert abs(purity(partial_trace(rho, keep=[q])) - 1.0) <= 1e-10


class TestCircuit:
    def test_non_entangling_is_product(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = ket_to_dm(random_circuit_state(rng, entangling=False))
            for cut in CUTS:
                assert negativity(rho, cut) <= 1e-9

    def test_entangling_fraction(self):
        # frozen Monte-Carlo oracle: depth-4 entangling circuits produce
        # negativity > 1e-9 on some cut in well over 95% of samples
        rng = np.random.default_rng(5)
        hits = 0
        n = 1000
        for _ in range(n):
            rho = ket_to_dm(random_circuit_state(rng, entangling=True))
            if max(negativity(rho, c) for c in CUTS) > 1e-9:
                hits += 1
        assert hits / n >= 0.95

    def test_unit_norm(self):
        rng = np.random.default_rng(6)
        k = random_circuit_state(rng, entangling=True)
        assert abs(np.linalg.norm(k) - 1.0) <= 1e-12


class TestU3:
    def test_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = u3(*rng.uniform(0, 2 * np.pi, size=3))
            assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12

    def test_identity_angles(self):
        assert np.abs(u3(0.0, 0.0, 0.0) - np.eye(2)).max() <= 1e-15


class TestMix:
    def test_single(self):
        rng = np.random.default_rng(12)
        rho = random_mixed_product(rng)
        assert np.abs(mix([rho], [1.0]) - rho).max() <= 1e-15

    def test_two_projectors(self):
        k0 = np.zeros(8, complex)
        k0[0] = 1.0
        k7 = np.zeros(8, complex)
        k7[7] = 1.0
        got = mix([ket_to_dm(k0), ket_to_dm(k7)], [0.5, 0.5])
        want = np.zeros((8, 8), complex)
        want[0, 0] = want[7, 7] = 0.5
        assert np.abs(got - want).max() <= 1e-15

    def test_purity_convex(self):
        rng = np.random.default_rng(13)
        a, b = random_mixed_product(rng), random_mixed_product(rng)
        out = mix([a, b], [0.3, 0.7])
        assert purity(out) <= max(purity(a), purity(b)) + 1e-12

    def test_bad_probs_rejected(self):
        rng = np.random.default_rng(14)
        rho = random_mixed_product(rng)
        with pytest.raises(ValueError):
            mix([rho, rho], [0.7, 0.6])
        with pytest.raises(ValueError):
            mix([rho, rho], [1.2, -0.2])


class TestReduceFromLarger:
    def test_invariants(self):
        rng = np.random.default_rng(15)
        for n_src in (4, 5):
            rho = reduce_from_larger(n_src, rng)
            assert_density_matrix(rho, atol_eig=1e-10)

    def test_rank_bound_from_four(self):
        rng = np.random.default_rng(16)
        rho = reduce_from_larger(4, rng)
        vals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        # Schmidt rank across the 3|1 cut is at most 2
        assert vals[2] <= 1e-10

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            reduce_from_larger(6, np.random.default_rng(0))


class TestBoost:
    def test_zero_boost_identity(self):
        rng = np.random.default_rng(17)
        rho = random_mixed_product(rng)
        assert np.abs(boost_largest_eigenvalue(rho, 0.0) - rho).max() <= 1e-10

    def test_large_boost_approaches_projector(self):
        rng = np.random.default_rng(18)
        rho = random_mixed_product(rng)
        out = boost_largest_eigenvalue(rho, 1e6)
        vals, vecs = np.linalg.eigh(rho)
        top = vecs[:, -1]
        fidelity = (top.conj() @ out @ top).real
        assert fidelity >= 1 - 1e-5

    def test_trace_one(self):
        rng = np.random.default_rng(19)
        rho = random_mixed_product(rng)
        out = boost_largest_eigenvalue(rho, 0.7)
        assert abs(np.trace(out) - 1.0) <= 1e-12

    def test_spectrum_monotone(self):
        rng = np.random.default_rng(20)
        rho = random_mixed_product(rng)
        tops = [
            np.linalg.eigvalsh(boost_largest_eigenvalue(rho, c)).max()
            for c in (0.0, 0.3, 0.8, 1.5)
        ]
        assert all(b > a for a, b in zip(tops, tops[1:]))

    def test_negative_boost_rejected(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError):
            boost_largest_eigenvalue(random_mixed_product(rng), -0.1)
        rhos = np.stack([random_mixed_product(rng) for _ in range(3)])
        with pytest.raises(ValueError):
            boost_largest_eigenvalue(rhos, np.array([0.2, -0.1, 0.3]))

    def test_stack_equals_one_at_a_time(self):
        rng = np.random.default_rng(23)
        rhos = np.stack([random_product_mixture(rng) for _ in range(6)])
        cs = rng.uniform(0.0, 2.0, size=6)
        out = boost_largest_eigenvalue(rhos, cs)
        for rho, c, got in zip(rhos, cs, out):
            assert np.array_equal(got, boost_largest_eigenvalue(rho, float(c)))


class TestMapFamily:
    def test_point_a_pure_product(self):
        p, a, phi, c = map_params(0.5, 0.5)[0]
        assert p == 0.0 and phi == 0.0 and c == 0.0
        assert abs(a - 2**-0.5) <= 1e-15
        rho = map_state(0.5, 0.5)
        assert abs(purity(rho) - 1.0) <= 1e-10
        for cut in CUTS:
            assert negativity(rho, cut) <= 1e-10

    def test_pure_when_p_zero_and_no_boost(self):
        for u, v in ((0.3, 0.2), (0.5, 0.5), (0.1, 0.4)):
            p, _, _, c = map_params(u, v)[0]
            if p in (0.0, 1.0) and c == 0.0:
                assert abs(purity(map_state(u, v)) - 1.0) <= 1e-10

    def test_square_interior_zero_discord(self):
        from qsep.oracles import zero_discord_flags

        for u, v in ((0.8, 1.2), (1.0, 1.0), (0.7, 1.3), (1.2, 1.4)):
            p, _, phi, c = map_params(u, v)[0]
            assert phi == 0.0 and c == 0.0 and 0.0 < p <= 0.5
            assert zero_discord_flags(map_state(u, v)[None]).all()

    def test_mirror_symmetry(self):
        # (p, a_param, phi) mirror; the boost below the diagonal does not
        a = map_params(0.4, 1.7)[0]
        b = map_params(1.7, 0.4)[0]
        assert np.array_equal(a[:3], b[:3])

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            map_state(-0.1, 1.0)
        with pytest.raises(ValueError):
            map_state(1.0, 2.3)
        with pytest.raises(ValueError):
            map_params(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("grid", [11, 21, 101, 201])
    def test_params_bit_identical_to_scalar_reference(self, grid):
        us = np.linspace(0.0, 2.0, grid)
        want = np.array([ref_map_point(u, v) for v in us for u in us])
        got = map_params(*np.meshgrid(us, us))
        assert got.shape == (grid * grid, 4)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_distinct_cells_grid_101(self):
        # mirror cells (u + v >= 2) and the clamped bands repeat parameters;
        # the map render builds each distinct row once
        us = np.linspace(0.0, 2.0, 101)
        assert len(np.unique(map_params(*np.meshgrid(us, us)), axis=0)) == 6685

    def test_all_states_valid(self):
        for u in np.linspace(0, 2, 9):
            for v in np.linspace(0, 2, 9):
                assert_density_matrix(map_state(u, v))

    def test_batched_builder_bit_identical_to_reference(self):
        # grid 41 holds cells with a degenerate top eigenvalue before the boost, where
        # any change in the arithmetic can pick another eigenvector
        us = np.linspace(0.0, 2.0, 41)
        pts = [ref_map_point(u, v) for v in us for u in us]
        want = np.stack([ref_map_state(pt) for pt in pts])
        assert np.array_equal(map_states(map_params(*np.meshgrid(us, us))), want)
        assert np.array_equal(map_state(us[-1], us[-1]), want[-1])
        assert sum(c > 0.0 for _, _, _, c in pts) > 0

    def test_batched_builder_peak_memory(self):
        # the mixture is formed in place: the traced peak stays within 3.5
        # (N, 8, 8) complex arrays (4.9 when each product was a new array)
        us = np.linspace(0.0, 2.0, 51)
        table = map_params(*np.meshgrid(us, us))
        map_states(table[:3])
        tracemalloc.start()
        try:
            map_states(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * len(table) * 64 * 16, peak / (len(table) * 64 * 16)

    def test_all_four_classes_on_coarse_grid(self):
        from qsep.oracles import STATE_CLASSES, StateClass, classify

        seen = set()
        for u in np.linspace(0, 2, 21):
            for v in np.linspace(0, 2, 21):
                c = map_params(u, v)[0, 3]
                label = classify(map_state(u, v), known_separable=(c == 0.0))
                seen.add(STATE_CLASSES[label.klass[0]])
        assert seen == set(StateClass)


class TestOtherGenerators:
    def test_single_qubit_mixed(self):
        rng = np.random.default_rng(22)
        rho = random_single_qubit_mixed(rng)
        assert rho.shape == (2, 2)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_mixed_product_is_product(self):
        rng = np.random.default_rng(23)
        rho = random_mixed_product(rng)
        assert_density_matrix(rho, atol_eig=1e-10)
        parts = [partial_trace(rho, keep=[q]) for q in range(3)]
        assert np.abs(rho - kron_all(parts)).max() <= 1e-12

    def test_classical_state_valid(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            assert_density_matrix(random_classical_state(rng), atol_eig=1e-10)

    def test_product_mixture_separable(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            rho = random_product_mixture(rng)
            assert_density_matrix(rho, atol_eig=1e-10)
            for cut in CUTS:
                assert negativity(rho, cut) <= 1e-9

    def test_generator_corpus_invariants(self):
        rng = np.random.default_rng(26)
        gens = [
            lambda: ket_to_dm(random_separable_pure(rng)),
            lambda: ket_to_dm(haar_random_pure(3, rng)),
            lambda: random_mixed_product(rng),
            lambda: random_classical_state(rng),
            lambda: random_product_mixture(rng),
            lambda: reduce_from_larger(4, rng),
        ]
        for gen in gens:
            for _ in range(30):
                assert_density_matrix(gen(), atol_eig=1e-9)
