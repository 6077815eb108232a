import numpy as np
import pytest

from qsep.linalg import kron, kron_all, partial_trace, partial_transpose, permute_qubits
from qsep.oracles import (
    CHECKS,
    CUTS,
    NEGATIVITY_TOL,
    SIDES,
    STATE_CLASSES,
    StateClass,
    classify,
    is_product,
    label_states,
    negativity,
    zero_discord_check,
)
from qsep.states import (
    haar_random_pure,
    ket_to_dm,
    map_point,
    map_states,
    mix,
    random_classical_state,
    random_mixed_product,
    random_product_mixture,
    random_separable_pure,
)
from qsep.training import BIT_SEPARABLE, build_s_mixed, build_separable_set

# --- reference: the oracle one state at a time, as written before the batched core


def ref_negativity(rho, cut):
    w = np.linalg.eigvalsh(partial_transpose(rho, [cut]))
    return float(-w[w < 0.0].sum())


def ref_zero_discord_check(rho, cut, measured_side):
    pair = [q for q in CUTS if q != cut]
    if measured_side == "small":
        arranged = permute_qubits(rho, pair + [cut])
        blocks = arranged.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 2, 2)
    else:
        arranged = permute_qubits(rho, [cut] + pair)
        blocks = arranged.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 4, 4)
    eps = max(1e-10, 1e-8 * (1.0 + float(np.abs(rho).max())))
    dag = blocks.conj().transpose(0, 2, 1)
    if np.abs(blocks @ dag - dag @ blocks).max() > eps:
        return False
    prod = np.einsum("iab,jbc->ijac", blocks, blocks)
    return bool(np.abs(prod - prod.transpose(1, 0, 2, 3)).max() <= eps)


def ref_is_product(rho, tol=1e-8):
    parts = [partial_trace(rho, keep=[q]) for q in CUTS]
    return bool(np.abs(rho - kron_all(parts)).max() <= tol)


def ref_classify(rho, known_separable=False):
    """(negativities or None, entangled, discordant, product, class code)."""
    neg = None if known_separable else [ref_negativity(rho, c) for c in CUTS]
    disc = tuple(not ref_zero_discord_check(rho, cut, side) for cut, side in CHECKS)
    return ref_label(neg, disc, ref_is_product(rho))


def ref_label(neg, disc, prod):
    ent = (False,) * 3 if neg is None else tuple(x > NEGATIVITY_TOL for x in neg)
    if any(ent):
        code = 3
    elif prod:
        code = 0
    else:
        code = 2 if any(disc) else 1
    return neg, ent, disc, prod, code


def assert_label_row(labels, i, ref):
    neg, ent, disc, prod, code = ref
    if neg is None:
        assert np.isnan(labels.negativity[i]).all()
    else:
        assert labels.negativity[i].tolist() == neg, i
    assert tuple(labels.entangled_cut[i].tolist()) == ent, i
    assert tuple(labels.discordant_check[i].tolist()) == disc, i
    assert bool(labels.is_product[i]) == prod, i
    assert labels.klass[i] == code, i
    row = labels.row(i)
    assert (row.entangled_cut, row.discordant_check, row.is_product) == (ent, disc, prod)
    assert row.klass is STATE_CLASSES[code]


def ghz():
    k = np.zeros(8, dtype=complex)
    k[0] = k[7] = 2**-0.5
    return np.outer(k, k.conj())


def classical_two_term():
    k0 = np.zeros(8, complex)
    k0[0] = 1.0
    k7 = np.zeros(8, complex)
    k7[7] = 1.0
    return mix([ket_to_dm(k0), ket_to_dm(k7)], [0.5, 0.5])


class TestNegativity:
    def test_ghz_each_cut_half(self):
        for cut in CUTS:
            assert abs(negativity(ghz(), cut) - 0.5) <= 1e-9

    def test_product_zero(self):
        rng = np.random.default_rng(0)
        rho = ket_to_dm(random_separable_pure(rng))
        for cut in CUTS:
            assert negativity(rho, cut) <= 1e-10

    def test_classical_mixture_zero(self):
        rho = classical_two_term()
        for cut in CUTS:
            assert negativity(rho, cut) == 0.0

    def test_pure_state_entanglement_equivalence(self):
        # negativity > 1e-9 iff the cut's reduced state is mixed
        from qsep.linalg import partial_trace
        from qsep.states import purity

        rng = np.random.default_rng(1)
        for _ in range(1000):
            rho = ket_to_dm(haar_random_pure(3, rng))
            for cut in CUTS:
                neg = negativity(rho, cut)
                red_purity = purity(partial_trace(rho, keep=[cut]))
                assert (neg > 1e-9) == (red_purity < 1 - 1e-9)


class TestZeroDiscord:
    def test_classical_mixture_all_six(self):
        rho = classical_two_term()
        for cut in CUTS:
            for side in SIDES:
                assert zero_discord_check(rho, cut, side)

    def test_pointer_state_asymmetry(self):
        # half |0><0| x |00><00| plus half |+><+| x |11><11|: the first qubit's
        # pointer states are non-orthogonal, so measuring it finds discord,
        # while measuring the remaining pair does not
        zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        p00 = np.zeros((4, 4), dtype=complex)
        p00[0, 0] = 1.0
        p11 = np.zeros((4, 4), dtype=complex)
        p11[3, 3] = 1.0
        rho = 0.5 * kron(zero, p00) + 0.5 * kron(plus, p11)
        assert not zero_discord_check(rho, 0, "small")
        assert zero_discord_check(rho, 0, "large")

    def test_ghz_all_checks_fail(self):
        for cut in CUTS:
            for side in SIDES:
                assert not zero_discord_check(ghz(), cut, side)

    def test_local_unitary_covariance(self):
        # conjugating by U on the non-measured side never changes the verdict
        from qsep.states import u3

        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_classical_state(rng)
            u_pair = kron(u3(*rng.uniform(0, 2 * np.pi, 3)), u3(*rng.uniform(0, 2 * np.pi, 3)))
            u_full = kron(np.eye(2, dtype=complex), u_pair)
            rho_rot = permute_qubits(
                u_full @ permute_qubits(rho, [0, 1, 2]) @ u_full.conj().T, [0, 1, 2]
            )
            want = zero_discord_check(rho, 0, "small")
            got = zero_discord_check(rho_rot, 0, "small")
            assert want == got

    def test_product_always_passes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_mixed_product(rng)
            for cut in CUTS:
                for side in SIDES:
                    assert zero_discord_check(rho, cut, side)


class TestIsProduct:
    def test_product(self):
        rng = np.random.default_rng(4)
        assert is_product(random_mixed_product(rng))

    def test_classical_mixture_not_product(self):
        assert not is_product(classical_two_term())

    def test_ghz_not_product(self):
        assert not is_product(ghz())


class TestClassify:
    def test_separable_pure_is_product(self):
        rng = np.random.default_rng(5)
        label = classify(ket_to_dm(random_separable_pure(rng)))
        assert label.klass is StateClass.PRODUCT
        assert label.is_product
        assert not any(label.entangled_cut)
        assert not any(label.discordant_check)

    def test_ghz_entangled_all_cuts(self):
        label = classify(ghz())
        assert label.klass is StateClass.ENTANGLED
        assert all(label.entangled_cut)

    def test_classical_mixture_non_discordant(self):
        label = classify(classical_two_term())
        assert label.klass is StateClass.NON_DISCORDANT
        assert not label.is_product

    def test_discordant_separable(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(20):
            label = classify(random_product_mixture(rng), known_separable=True)
            assert label.klass is not StateClass.ENTANGLED
            if label.klass is StateClass.DISCORDANT_SEPARABLE:
                hits += 1
        assert hits > 0

    def test_known_separable_forces_flags(self):
        rng = np.random.default_rng(7)
        rho = random_product_mixture(rng)
        label = classify(rho, known_separable=True)
        assert not any(label.entangled_cut)

    def test_hierarchy_over_generated_corpus(self):
        # product implies all six discord checks pass implies zero negativity
        rng = np.random.default_rng(8)
        gens = [
            lambda: ket_to_dm(random_separable_pure(rng)),
            lambda: random_mixed_product(rng),
            lambda: random_classical_state(rng),
            lambda: random_product_mixture(rng),
            lambda: ket_to_dm(haar_random_pure(3, rng)),
        ]
        for gen in gens:
            for _ in range(40):
                rho = gen()
                label = classify(rho)
                if label.is_product:
                    assert not any(label.discordant_check)
                if not any(label.discordant_check):
                    assert not any(label.entangled_cut)

    def test_klass_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rho = random_product_mixture(rng)
            label = classify(rho)
            if any(label.entangled_cut):
                assert label.klass is StateClass.ENTANGLED
            elif label.is_product:
                assert label.klass is StateClass.PRODUCT
            elif not any(label.discordant_check):
                assert label.klass is StateClass.NON_DISCORDANT
            else:
                assert label.klass is StateClass.DISCORDANT_SEPARABLE


class TestBatchedCore:
    """label_states against the per-state reference, field by field."""

    def test_map_grid(self):
        # grid 41 holds cells whose top eigenvalue is degenerate before the boost
        us = np.linspace(0.0, 2.0, 41)
        pts = [map_point(u, v) for v in us for u in us]
        known = np.array([pt.c_boost == 0.0 for pt in pts])
        mats = map_states(pts)
        labels = label_states(mats, known)
        for i, (rho, ks) in enumerate(zip(mats, known)):
            assert_label_row(labels, i, ref_classify(rho, known_separable=ks))
        assert set(labels.klass.tolist()) == {0, 1, 2, 3}

    @staticmethod
    def assert_both_ways(mats, separable):
        """Nothing trusted, and the `separable` states trusted as known separable."""
        untrusted, trusted = label_states(mats), label_states(mats, separable)
        for i, rho in enumerate(mats):
            neg, _, disc, prod, _ = ref = ref_classify(rho)
            assert_label_row(untrusted, i, ref)
            assert_label_row(trusted, i, ref_label(None if separable[i] else neg, disc, prod))
        return untrusted

    @pytest.mark.parametrize("build", [build_s_mixed, build_separable_set])
    def test_generated_sets(self, build):
        ds = build(60, 31)
        self.assert_both_ways(ds.mats, (ds.labels & BIT_SEPARABLE) != 0)

    def test_states_near_each_tolerance(self):
        # a product state mixed with weight t into correlated ones: as t shrinks
        # each flag crosses its tolerance (product 1e-8, negativity 1e-9, discord eps)
        rng = np.random.default_rng(35)
        prod = random_mixed_product(rng)
        others = [ghz(), classical_two_term(), random_product_mixture(rng)]
        mats = np.stack([(1.0 - t) * prod + t * x for x in others for t in np.logspace(-12, 0, 37)])
        labels = self.assert_both_ways(mats, np.arange(len(mats)) % 2 == 0)
        assert len(set(labels.klass.tolist())) == 4

    def test_per_state_functions_match_reference(self):
        ds = build_s_mixed(20, 32)
        for rho in ds.mats:
            for cut in CUTS:
                assert negativity(rho, cut) == ref_negativity(rho, cut)
            for cut, side in CHECKS:
                assert zero_discord_check(rho, cut, side) == ref_zero_discord_check(rho, cut, side)
            assert is_product(rho) == ref_is_product(rho)
            label = classify(rho)
            assert STATE_CLASSES.index(label.klass) == ref_classify(rho)[4]

    def test_chunking_invariant(self):
        ds = build_s_mixed(50, 33)
        known = np.arange(len(ds)) % 3 == 0
        whole = label_states(ds.mats, known)
        for chunk in (1, 7, 50, 64):
            part = label_states(ds.mats, known, chunk=chunk)
            for field in ("negativity", "entangled_cut", "discordant_check", "is_product", "klass"):
                assert np.array_equal(getattr(part, field), getattr(whole, field), equal_nan=True)

    def test_assuming_separable_equals_known_separable(self):
        ds = build_s_mixed(40, 34)
        known = np.arange(len(ds)) % 2 == 0
        direct = label_states(ds.mats, known)
        later = label_states(ds.mats).assuming_separable(known)
        assert np.array_equal(direct.klass, later.klass)
        assert np.array_equal(direct.entangled_cut, later.entangled_cut)
        assert not np.isnan(later.negativity).any()

    def test_bad_arguments_rejected(self):
        rho = ghz()
        with pytest.raises(ValueError):
            negativity(rho, 3)
        with pytest.raises(ValueError):
            zero_discord_check(rho, 0, "middle")
        with pytest.raises(ValueError):
            label_states(rho[None], chunk=0)
