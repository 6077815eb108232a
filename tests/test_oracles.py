import dataclasses

import numpy as np
import pytest
from classical_states import random_classical_state

from qsep import oracles
from qsep.linalg import kron_all, partial_trace, partial_transpose, permute_qubits
from qsep.oracles import (
    CHECKS,
    CUTS,
    NEGATIVITY_TOL,
    STATE_CLASSES,
    StateClass,
    StateLabels,
    classify,
    label_states,
    negativities,
    negativity,
    product_flags,
    zero_discord_flags,
)
from qsep.states import (
    haar_random_pure,
    ket_to_dm,
    map_params,
    map_states,
    mix,
    random_circuit_state,
    random_mixed_product,
    random_product_mixture,
    random_separable_pure,
)
from qsep.training import BIT_SEPARABLE, PLANS, build_dataset, build_s_mixed, build_separable_set

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


def ref_commutator_max(rhos, cut, side):
    """(N,) max |[B_i, B_j]| over every block pair of one check, from the dense
    block product: the batched check as written before the 2x2 closed form."""
    pair = [q for q in CUTS if q != cut]
    n = len(rhos)
    if side == "small":
        arranged = permute_qubits(rhos, pair + [cut])
        blocks = arranged.reshape(n, 4, 2, 4, 2).transpose(0, 1, 3, 2, 4).reshape(n, 16, 2, 2)
    else:
        arranged = permute_qubits(rhos, [cut] + pair)
        blocks = arranged.reshape(n, 2, 4, 2, 4).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4, 4)
    m, k = blocks.shape[1:3]
    rows = blocks.reshape(n, m * k, k)
    cols = blocks.transpose(0, 2, 1, 3).reshape(n, k, m * k)
    prod = (rows @ cols).reshape(n, m, k, m, k)
    return np.abs(prod - prod.transpose(0, 3, 2, 1, 4)).reshape(n, -1).max(axis=1)


def ref_eps(rhos):
    return np.maximum(1e-10, 1e-8 * (1.0 + np.abs(rhos).reshape(len(rhos), -1).max(axis=1)))


def ref_zero_discord_flags(rhos):
    """(N, 6) zero-discord flags in CHECKS order, from the dense block product."""
    eps = ref_eps(rhos)
    return np.stack([ref_commutator_max(rhos, cut, side) <= eps for cut, side in CHECKS], axis=1)


def ref_is_product(rho, tol=1e-8):
    parts = [partial_trace(rho, keep=[q]) for q in CUTS]
    return bool(np.abs(rho - kron_all(parts)).max() <= tol)


def ref_classify(rho, known_separable=False):
    """(negativities or None, entangled, discordant, product, class)."""
    neg = None if known_separable else [ref_negativity(rho, c) for c in CUTS]
    disc = tuple(not ref_zero_discord_check(rho, cut, side) for cut, side in CHECKS)
    return ref_label(neg, disc, ref_is_product(rho))


def ref_label(neg, disc, prod):
    ent = (False,) * 3 if neg is None else tuple(x > NEGATIVITY_TOL for x in neg)
    if any(ent):
        klass = StateClass.ENTANGLED
    elif prod:
        klass = StateClass.PRODUCT
    else:
        klass = StateClass.DISCORDANT_SEPARABLE if any(disc) else StateClass.NON_DISCORDANT
    return neg, ent, disc, prod, klass


def assert_label_row(labels, i, ref):
    neg, ent, disc, prod, klass = ref
    if neg is None:
        assert np.isnan(labels.negativity[i]).all()
    else:
        assert labels.negativity[i].tolist() == neg, i
    assert tuple(labels.entangled_cut[i].tolist()) == ent, i
    assert tuple(labels.discordant_check[i].tolist()) == disc, i
    assert bool(labels.is_product[i]) == prod, i
    assert labels.klass.dtype == np.int8
    assert STATE_CLASSES[labels.klass[i]] is klass, i


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

        rng = np.random.default_rng(1)
        for _ in range(1000):
            rho = ket_to_dm(haar_random_pure(3, rng))
            for cut in CUTS:
                neg = negativity(rho, cut)
                red = partial_trace(rho, keep=[cut])
                red_purity = np.trace(red @ red).real
                assert (neg > 1e-9) == (red_purity < 1 - 1e-9)

    def test_circuit_states_npt(self):
        # frozen Monte-Carlo oracle: kets from entangling circuits of phased
        # rotations are NPT on some cut in >= 90% of draws
        rng = np.random.default_rng(10)
        mats = np.stack([
            ket_to_dm(random_circuit_state(rng, entangling=True))
            for _ in range(200)
        ])
        assert (negativities(mats).max(axis=1) > 1e-9).mean() >= 0.9


class TestZeroDiscord:
    def test_classical_mixture_all_six(self):
        assert zero_discord_flags(classical_two_term()[None]).all()

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
        rho = 0.5 * np.kron(zero, p00) + 0.5 * np.kron(plus, p11)
        cols = [CHECKS.index((0, "small")), CHECKS.index((0, "large"))]
        assert zero_discord_flags(rho[None])[:, cols].tolist() == [[False, True]]

    def test_ghz_all_checks_fail(self):
        assert not zero_discord_flags(ghz()[None]).any()

    def test_local_unitary_covariance(self):
        # conjugating by U on the non-measured side never changes the verdict
        from qsep.states import u3

        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_classical_state(rng)
            u_pair = np.kron(*(u3(*rng.uniform(0, 2 * np.pi, 3)) for _ in range(2)))
            u_full = np.kron(np.eye(2, dtype=complex), u_pair)
            rho_rot = permute_qubits(
                u_full @ permute_qubits(rho, [0, 1, 2]) @ u_full.conj().T, [0, 1, 2]
            )
            want, got = zero_discord_flags(np.stack([rho, rho_rot]))[:, CHECKS.index((0, "small"))]
            assert want == got

    def test_product_basis_mixtures_pass_all_six(self):
        # a mixture diagonal in a product basis (a fully dephased state) has
        # zero discord under every check
        rng = np.random.default_rng(27)
        mats = np.stack([random_classical_state(rng) for _ in range(20)])
        assert zero_discord_flags(mats).all()

    def test_product_always_passes(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_mixed_product(rng) for _ in range(20)])
        assert zero_discord_flags(mats).all()


class TestClosedFormCommutator:
    """zero_discord_flags against the dense block product, check by check."""

    def test_map_grid(self):
        us = np.linspace(0.0, 2.0, 101)
        mats = map_states(map_params(*np.meshgrid(us, us)))
        assert np.array_equal(zero_discord_flags(mats), ref_zero_discord_flags(mats))

    @pytest.mark.parametrize("seed", [0, 17, 123])
    def test_every_dataset_kind(self, seed):
        for kind in PLANS:
            mats = build_dataset(kind, 24, seed).mats
            assert np.array_equal(zero_discord_flags(mats), ref_zero_discord_flags(mats)), kind

    def test_states_scaled_across_eps(self):
        # scaling a state by s scales its commutators by s^2 and moves eps to
        # 1e-8 (1 + s max|rho|): solve s^2 w = 1e-8 (1 + s m) for each state
        # and check, then step s by relative amounts from 1e-15 to 1e-6 either
        # side, so the largest entry w crosses eps. For a Hermitian state the
        # mirrored block pairs repeat each entry, so general complex matrices
        # join the states: only they show that every entry and pair is checked
        rng = np.random.default_rng(36)
        mats = np.concatenate([
            build_s_mixed(20, 36).mats,
            rng.normal(size=(20, 8, 8)) + 1j * rng.normal(size=(20, 8, 8)),
        ])
        m = np.abs(mats).reshape(len(mats), -1).max(axis=1)
        steps = np.concatenate([-np.logspace(-6, -15, 10), [0.0], np.logspace(-15, -6, 10)])
        scaled = []
        for cut, side in CHECKS:
            w = ref_commutator_max(mats, cut, side)
            keep = w > 1e-6
            s = (1e-8 * m + np.sqrt((1e-8 * m) ** 2 + 4e-8 * w)) / (2.0 * w)
            factors = s[keep, None] * (1.0 + steps)
            scaled.append((mats[keep, None] * factors[..., None, None]).reshape(-1, 8, 8))
        scaled = np.concatenate(scaled)
        got, want = zero_discord_flags(scaled), ref_zero_discord_flags(scaled)
        eps = ref_eps(scaled)[:, None]
        worst = np.stack([ref_commutator_max(scaled, cut, side) for cut, side in CHECKS], axis=1)
        # the two forms round differently: they may part only at eps itself
        near = np.abs(worst - eps) <= 1e-12 * eps
        assert np.array_equal(got[~near], want[~near])
        for j in range(len(CHECKS)):
            assert want[:, j].any() and not want[:, j].all(), CHECKS[j]


class TestIsProduct:
    def test_product(self):
        rng = np.random.default_rng(4)
        assert product_flags(random_mixed_product(rng)[None])[0]

    def test_classical_mixture_not_product(self):
        assert not product_flags(classical_two_term()[None])[0]

    def test_ghz_not_product(self):
        assert not product_flags(ghz()[None])[0]


class TestClassify:
    def test_separable_pure_is_product(self):
        rng = np.random.default_rng(5)
        label = classify(ket_to_dm(random_separable_pure(rng)))
        assert label.klass.tolist() == [STATE_CLASSES.index(StateClass.PRODUCT)]
        assert label.is_product.tolist() == [True]
        assert not label.entangled_cut.any()
        assert not label.discordant_check.any()

    def test_ghz_entangled_all_cuts(self):
        label = classify(ghz())
        assert label.klass.tolist() == [STATE_CLASSES.index(StateClass.ENTANGLED)]
        assert label.entangled_cut.shape == (1, 3) and label.entangled_cut.all()

    def test_classical_mixture_non_discordant(self):
        label = classify(classical_two_term())
        assert label.klass.tolist() == [STATE_CLASSES.index(StateClass.NON_DISCORDANT)]
        assert label.is_product.tolist() == [False]

    def test_discordant_separable(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(20):
            label = classify(random_product_mixture(rng), known_separable=True)
            klass = STATE_CLASSES[label.klass[0]]
            assert klass is not StateClass.ENTANGLED
            if klass is StateClass.DISCORDANT_SEPARABLE:
                hits += 1
        assert hits > 0

    def test_known_separable_forces_flags(self):
        rng = np.random.default_rng(7)
        rho = random_product_mixture(rng)
        label = classify(rho, known_separable=True)
        assert label.entangled_cut.shape == (1, 3) and not label.entangled_cut.any()

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
                if label.is_product[0]:
                    assert not label.discordant_check.any()
                if not label.discordant_check.any():
                    assert not label.entangled_cut.any()

    def test_answers_derive_from_the_flags(self):
        # every (entangled cut, discordant check, product) combination, one per state
        ent, disc, prod = np.array(list(np.ndindex(2, 2, 2)), dtype=bool).T
        off = np.zeros(8, dtype=bool)
        labels = StateLabels(
            negativity=np.full((8, 3), np.nan),
            entangled_cut=np.stack([off, ent, off], axis=1),
            discordant_check=np.stack([off] * 5 + [disc], axis=1),
            is_product=prod,
        )
        assert np.array_equal(labels.entangled, ent)
        assert np.array_equal(labels.discordant, disc)
        want = [StateClass.NON_DISCORDANT, StateClass.PRODUCT,
                StateClass.DISCORDANT_SEPARABLE, StateClass.PRODUCT] + [StateClass.ENTANGLED] * 4
        assert labels.klass.dtype == np.int8
        assert [STATE_CLASSES[k] for k in labels.klass] == want
        assert "klass" not in {f.name for f in dataclasses.fields(StateLabels)}

    def test_klass_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rho = random_product_mixture(rng)
            label = classify(rho)
            klass = STATE_CLASSES[label.klass[0]]
            if label.entangled_cut.any():
                assert klass is StateClass.ENTANGLED
            elif label.is_product[0]:
                assert klass is StateClass.PRODUCT
            elif not label.discordant_check.any():
                assert klass is StateClass.NON_DISCORDANT
            else:
                assert klass is StateClass.DISCORDANT_SEPARABLE


class TestBatchedCore:
    """label_states against the per-state reference, field by field."""

    def test_map_grid(self):
        # grid 41 holds cells whose top eigenvalue is degenerate before the boost
        us = np.linspace(0.0, 2.0, 41)
        table = map_params(*np.meshgrid(us, us))
        known = table[:, 3] == 0.0  # no boost
        mats = map_states(table)
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
            for j, (cut, side) in enumerate(CHECKS):
                assert zero_discord_flags(rho[None])[0, j] == ref_zero_discord_check(rho, cut, side)
            assert product_flags(rho[None])[0] == ref_is_product(rho)
            assert STATE_CLASSES[classify(rho).klass[0]] is ref_classify(rho)[4]

    def test_chunking_invariant(self, monkeypatch):
        ds = build_s_mixed(50, 33)
        known = np.arange(len(ds)) % 3 == 0
        whole = label_states(ds.mats, known)
        for chunk in (1, 7, 50, 64):
            monkeypatch.setattr(oracles, "LABEL_CHUNK", chunk)
            part = label_states(ds.mats, known)
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
