"""End-to-end acceptance gates at desk scale.

One test per criterion, run in order; shared expensive state (datasets, the
trained model, the 101x101 map) lives in module fixtures. Each test prints a
single ACCEPTANCE line; run pytest with -rP to see the lines for passing
tests too.

Training recipe: scale 0.04 (21.2k separable states), 20 epochs, batch 32,
Adam at 1e-3, 48 decoder channels. The channel count is doubled relative to
the config default because symmetry breaking between near-identical channels
is the optimization bottleneck at this data scale; more redundant channels
make the per-term assignment problem much easier and the small-data run then
converges inside the fixed epoch budget.
"""
import time

import numpy as np
import pytest
from classical_states import random_classical_state

from qsep.evaluation import (
    eval_losses,
    group_masks,
    map_iou,
    positives_for_mode,
    render_map,
    sweep,
)
from qsep.linalg import kron_all, permute_qubits
from qsep.oracles import CUTS, classify, negativity, zero_discord_flags
from qsep.separator import (
    SeparatorConfig,
    baseline_losses,
    forward_batch,
    gradient,
    init_params,
)
from qsep.states import (
    haar_random_pure,
    ket_to_dm,
    random_mixed_product,
    random_product_mixture,
    random_separable_pure,
)
from qsep.training import TrainConfig, build_s_mixed, build_s_pure, build_training_sets, train

pytestmark = pytest.mark.slow

SCALE = 0.04
DATA_SEED = 123
S_MIXED_SEED = 125
S_PURE_SEED = 126
EPOCHS = 20
BATCH = 32
LEARNING_RATE = 1e-3
N_K = 48

PURE_ACC_MIN = 0.97
TRAIN_SECONDS_MAX = 1800.0
BA_DISCORD_MIN = 0.85
BA_GAP_MIN = 0.05
PURE_RATIO_MIN = 10.0
ENT_FP_OVER_FN_MIN = 5.0
NOFC_BA_TOL = 0.03
KERNEL_IDENTITY_TOL = 0.1
MAP_IOU_MIN = 0.7
PROPERTY_SECONDS_MAX = 300.0
FD_EPS = 1e-5
FD_REL_TOL = 1e-4


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def train_val():
    return build_training_sets(SCALE, seed=DATA_SEED)


@pytest.fixture(scope="module")
def s_pure():
    return build_s_pure(2000, seed=S_PURE_SEED)


@pytest.fixture(scope="module")
def s_mixed():
    return build_s_mixed(4000, seed=S_MIXED_SEED)


@pytest.fixture(scope="module")
def model(train_val):
    train_ds, val_ds = train_val
    cfg = TrainConfig(epochs=EPOCHS, batch_size=BATCH, learning_rate=LEARNING_RATE, seed=0)
    t0 = time.perf_counter()
    report = train(cfg, SeparatorConfig(n_k=N_K), train_ds, val_ds)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pure_eval(model, s_pure):
    report, _ = model
    losses = eval_losses(s_pure.mats, report.params, report.config)
    return losses, positives_for_mode(s_pure.labels, "entanglement")


@pytest.fixture(scope="module")
def mixed_eval(model, s_mixed):
    report, _ = model
    losses = eval_losses(s_mixed.mats, report.params, report.config)
    sweep_d = sweep(losses, positives_for_mode(s_mixed.labels, "discord"))
    sweep_e = sweep(losses, positives_for_mode(s_mixed.labels, "entanglement"))
    return losses, sweep_d, sweep_e


def test_acceptance_1_pure_classification(model, pure_eval):
    _, train_seconds = model
    losses, entangled = pure_eval
    acc = sweep(losses, entangled).accuracy.max()
    ok = acc >= PURE_ACC_MIN and train_seconds <= TRAIN_SECONDS_MAX
    _verdict(1, ok, f"pure best-tau accuracy {acc:.4f} (>= {PURE_ACC_MIN}), "
                    f"training {train_seconds:.0f}s (<= {TRAIN_SECONDS_MAX:.0f}s)")


def test_acceptance_2_discord_gap(mixed_eval):
    _, sweep_d, sweep_e = mixed_eval
    ba_d = sweep_d.best_balanced_accuracy
    ba_e = sweep_e.best_balanced_accuracy
    ok = ba_d >= BA_DISCORD_MIN and ba_d >= ba_e + BA_GAP_MIN
    _verdict(2, ok, f"BA discord {ba_d:.4f} (>= {BA_DISCORD_MIN}) vs BA entanglement "
                    f"{ba_e:.4f} (gap {ba_d - ba_e:+.4f}, need >= {BA_GAP_MIN})")


def test_acceptance_3_loss_ordering(mixed_eval, pure_eval, s_mixed):
    losses, _, _ = mixed_eval
    masks = group_masks(s_mixed.labels)
    nd = losses[masks["non_discordant"]].mean()
    sep = losses[masks["separable"]].mean()
    disc = losses[masks["discordant"]].mean()
    ent = losses[masks["entangled"]].mean()
    pure_losses, entangled = pure_eval
    ratio = pure_losses[entangled].mean() / pure_losses[~entangled].mean()
    ok = nd < sep < disc <= ent and ratio >= PURE_RATIO_MIN
    _verdict(3, ok, f"mixed means ND {nd:.5f} < sep {sep:.5f} < disc {disc:.5f} "
                    f"<= ent {ent:.5f}; pure ent/sep ratio {ratio:.1f}x (>= {PURE_RATIO_MIN:.0f}x)")


def test_acceptance_4_error_asymmetry(mixed_eval, s_mixed):
    losses, sweep_d, _ = mixed_eval
    tau, best = sweep_d.best_threshold, sweep_d.best_index
    sweep_e = sweep(losses, positives_for_mode(s_mixed.labels, "entanglement"), [tau])
    fp_e, fn_e = int(sweep_e.fp[0]), int(sweep_e.fn[0])
    fp_d, fn_d = int(sweep_d.fp[best]), int(sweep_d.fn[best])
    ok = fp_e >= ENT_FP_OVER_FN_MIN * fn_e and fn_d > fp_d
    _verdict(4, ok, f"at tau={tau:.4f}: entanglement FP {fp_e} vs FN {fn_e} "
                    f"(>= {ENT_FP_OVER_FN_MIN:.0f}x), discord FN {fn_d} > FP {fp_d}")


def test_acceptance_5_no_fc_collapse(train_val, s_mixed):
    train_ds, val_ds = train_val
    cfg = TrainConfig(epochs=10, batch_size=BATCH, learning_rate=LEARNING_RATE,
                      subset="Prod", seed=0)
    report = train(cfg, SeparatorConfig(use_fc=False), train_ds, val_ds)

    model_losses = eval_losses(s_mixed.mats, report.params, report.config)
    base_losses = baseline_losses(s_mixed.mats)
    worst = 0.0
    for mode in ("discord", "entanglement"):
        positive = positives_for_mode(s_mixed.labels, mode)
        ba_model = sweep(model_losses, positive).balanced_accuracy
        ba_base = sweep(base_losses, positive).balanced_accuracy
        worst = max(worst, float(np.abs(ba_model - ba_base).max()))

    kernels = report.params.kernels
    eye = np.eye(4)
    devs = []
    for channel in kernels.reshape(-1, 4, 4):
        scale = np.trace(channel) / 4.0
        devs.append(np.abs(channel - scale * eye).mean())
    kdev = float(np.mean(devs))
    ok = worst <= NOFC_BA_TOL and kdev <= KERNEL_IDENTITY_TOL
    _verdict(5, ok, f"no-FC vs partial-trace baseline: max BA deviation {worst:.4f} "
                    f"(<= {NOFC_BA_TOL}), kernel identity deviation {kdev:.4f} "
                    f"(<= {KERNEL_IDENTITY_TOL})")


def test_acceptance_6_map_overlap(model, mixed_eval, s_mixed):
    report, _ = model
    _, sweep_d, _ = mixed_eval
    render = render_map(report.params, report.config, grid=101)
    classes = set(np.unique(render.klasses))

    tau_model = sweep_d.best_threshold
    iou_model = map_iou(render, render.losses, tau_model)
    base_sweep = sweep(baseline_losses(s_mixed.mats), positives_for_mode(s_mixed.labels, "discord"))
    iou_base = map_iou(render, render.baseline, base_sweep.best_threshold)
    ok = classes == {0, 1, 2, 3} and iou_model >= MAP_IOU_MIN and iou_model > iou_base
    _verdict(6, ok, f"grid classes {sorted(classes)}; non-discordant region IoU "
                    f"{iou_model:.4f} (>= {MAP_IOU_MIN}) vs baseline {iou_base:.4f}")


def test_acceptance_7_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)

    # gradient vs central finite differences, >= 500 random coordinates
    def fd_worst(cfg, n_coords):
        batch = np.stack([random_mixed_product(rng) for _ in range(4)]
                         + [ket_to_dm(haar_random_pure(3, rng))])
        params = init_params(cfg, rng)
        grads, _ = gradient(params, cfg, batch)
        arrays, garrays = params.arrays(), grads.arrays()
        worst = 0.0
        for _ in range(n_coords):
            ai = int(rng.integers(len(arrays)))
            a, g = arrays[ai], garrays[ai]
            idx = tuple(int(rng.integers(s)) for s in a.shape)
            orig = a[idx]
            a[idx] = orig + FD_EPS
            lp = float(forward_batch(batch, params, cfg)[0].mean())
            a[idx] = orig - FD_EPS
            lm = float(forward_batch(batch, params, cfg)[0].mean())
            a[idx] = orig
            fd = (lp - lm) / (2 * FD_EPS)
            worst = max(worst, abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8))
        return worst

    worst_fd = max(
        fd_worst(SeparatorConfig(n_k=6, fc_depth=2), 300),
        fd_worst(SeparatorConfig(n_k=4, tie_weights=False), 200),
    )
    assert worst_fd <= FD_REL_TOL, f"finite-difference relative error {worst_fd:.2e}"

    # identity kernels, no FC: model output is exactly the partial-trace baseline
    ident_cfg = SeparatorConfig(n_k=1, use_fc=False)
    ident_params = init_params(ident_cfg, rng, noise=0.0)
    ident_states = np.stack(
        [random_mixed_product(rng) for _ in range(20)]
        + [random_product_mixture(rng) for _ in range(20)]
        + [ket_to_dm(haar_random_pure(3, rng)) for _ in range(10)]
    )
    ident_gap = np.abs(forward_batch(ident_states, ident_params, ident_cfg)[0]
                       - baseline_losses(ident_states)).max()
    assert ident_gap <= 1e-12, f"identity-kernel vs partial-trace gap {ident_gap:.2e}"

    # tied weights: qubit-permutation equivariance for all 6 permutations
    eq_cfg = SeparatorConfig(n_k=6)
    eq_params = init_params(eq_cfg, rng)
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    eq_worst = 0.0
    for _ in range(10):
        rho = random_product_mixture(rng)
        _, rho_hat, _ = forward_batch(rho[None], eq_params, eq_cfg)
        for perm in perms:
            _, rho_hat_p, _ = forward_batch(permute_qubits(rho, perm)[None], eq_params, eq_cfg)
            eq_worst = max(eq_worst, np.abs(rho_hat_p[0] - permute_qubits(rho_hat[0], perm)).max())
    assert eq_worst <= 1e-10, f"permutation equivariance deviation {eq_worst:.2e}"

    # decoder output is exactly a normalized sum of 3-fold Kronecker products
    form_cfg = SeparatorConfig(n_k=5)
    form_params = init_params(form_cfg, rng, noise=0.3)
    form_states = np.stack([ket_to_dm(haar_random_pure(3, rng)) for _ in range(20)])
    _, rho_hats, factors = forward_batch(form_states, form_params, form_cfg)
    form_worst = 0.0
    for n in range(len(form_states)):
        s = np.zeros((8, 8), dtype=complex)
        for i in range(form_cfg.n_k):
            s += kron_all(factors[n, i])
        tr = s.trace().real
        norm = tr if abs(tr) > 1e-9 else form_cfg.n_k
        form_worst = max(form_worst, np.abs(rho_hats[n] - s / norm).max())
    assert form_worst <= 1e-12, f"Kronecker-sum form deviation {form_worst:.2e}"

    # GHZ negativity is exactly 1/2 across every cut
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = np.sqrt(0.5)
    ghz_negs = [negativity(ket_to_dm(ghz), cut) for cut in CUTS]
    assert all(abs(n - 0.5) <= 1e-9 for n in ghz_negs), f"GHZ negativities {ghz_negs}"

    # the classical 000/111 mixture passes all six zero-discord checks
    cl = np.zeros((8, 8), dtype=complex)
    cl[0, 0] = cl[7, 7] = 0.5
    assert zero_discord_flags(cl[None]).all()

    # label hierarchy: product => zero discord => PPT, 1000 states per class
    checked = 0
    for _ in range(1000):
        for rho in (
            ket_to_dm(random_separable_pure(rng)),
            random_classical_state(rng),
            random_product_mixture(rng),
            ket_to_dm(haar_random_pure(3, rng)),
        ):
            label = classify(rho)
            discordant = label.discordant_check.any()
            entangled = label.entangled_cut.any()
            assert not (label.is_product[0] and discordant), "product state flagged discordant"
            assert not (not discordant and entangled), "zero-discord state flagged entangled"
            checked += 1

    elapsed = time.perf_counter() - t0
    ok = elapsed <= PROPERTY_SECONDS_MAX
    _verdict(7, ok, f"property suite in {elapsed:.0f}s (<= {PROPERTY_SECONDS_MAX:.0f}s): "
                    f"FD worst {worst_fd:.1e}, identity gap {ident_gap:.1e}, "
                    f"equivariance {eq_worst:.1e}, form {form_worst:.1e}, "
                    f"{checked} hierarchy states")
