"""Acceptance gate: one test per shipping criterion, each printing a verdict.

The quantitative checks run scaled-down experiments with frozen seeds and
configs; margins were calibrated once and the runs are fully deterministic,
so the asserted thresholds are stable. Budgets are wall-clock ceilings.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pmvl import cli
from pmvl._stripes import map_striped
from pmvl.adversarial import (
    AdversarialModel,
    GanConfig,
    adversarial_loss,
    combined_upstreams,
    discriminator_gradients,
    generator_fills,
    impute,
    latent_gradient,
    train_unsupervised,
)
from pmvl.baselines import (
    CLASS_MEAN,
    GLOBAL_MEAN,
    SVD,
    SvdParams,
    concat_classify,
    impute_baseline,
    soft_impute_matrix,
)
from pmvl.data import (
    MissingSpec,
    MultiViewDataset,
    apply_missing_pattern,
    load_dataset,
    split,
    synth_dataset,
)
from pmvl.latent import LatentTable, reconstruction_loss
from pmvl.metrics import clustering_acc, nmi, nrmse
from pmvl.nets import SIGMOID_ALL, SIGMOID_HIDDEN, backward, forward, init_net
from pmvl.supervised import (
    TrainConfig,
    class_centroids,
    classification_loss,
    evaluate,
    infer_latents,
    latent_gradients,
    retune,
    train,
)

SEEDS = list(range(10))
FD_EPS = 1e-5
FD_TOL = 1e-4


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def central_diff(f, arr, i, eps=FD_EPS):
    old = arr.flat[i]
    arr.flat[i] = old + eps
    hi = f()
    arr.flat[i] = old - eps
    lo = f()
    arr.flat[i] = old
    return (hi - lo) / (2 * eps)


def close(analytic, fd):
    return abs(analytic - fd) <= FD_TOL * max(1.0, abs(fd))


# ---------------------------------------------------------------- fixtures

def desk_config(seed):
    return TrainConfig(latent_dim=32, lam=10.0, lr_nets=0.05, lr_latent=0.02,
                       epochs=400, infer_iters=300, infer_lr=0.05, seed=seed)


def desk_data(seed):
    return synth_dataset(300, 3, 8, [20, 16, 12], seed=seed, noise_scale=0.05,
                         center_scale=4.0, nuisance_scale=3.5)


def run_desk_seed(seed, eta):
    data = desk_data(seed)
    masked = apply_missing_pattern(data, MissingSpec(eta, seed=seed)) if eta > 0 else data
    train_d, test_d = split(masked, 0.7, seed=seed)

    model = train(train_d, desk_config(seed))
    acc_pre = evaluate(model, test_d).accuracy
    model = retune(model, train_d)
    acc_post = evaluate(model, test_d).accuracy

    filled = impute_baseline(masked, GLOBAL_MEAN)
    btrain, btest = split(filled, 0.7, seed=seed)
    base = concat_classify(btrain, btest, rule="nearest_centroid").accuracy

    h = model.latent.H
    h = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)
    sims = h @ h.T
    same = train_d.labels[:, None] == train_d.labels[None, :]
    off = ~np.eye(len(h), dtype=bool)
    return {
        "acc_pre": acc_pre, "acc_post": acc_post, "base": base,
        "intra": float(sims[same & off].mean()),
        "inter": float(sims[~same].mean()),
        "model": model, "test_d": test_d,
    }


@pytest.fixture(scope="module")
def desk_runs():
    t0 = time.time()
    etas = (0.0, 0.5)
    cells = list(itertools.product(etas, SEEDS))
    done = dict(zip(cells, map_striped(lambda c: run_desk_seed(c[1], c[0]), cells)))
    runs = {eta: [done[eta, s] for s in SEEDS] for eta in etas}
    runs["elapsed"] = time.time() - t0
    return runs


def gan_nrmse(seed, eta, adv_weight, d_steps):
    truth = synth_dataset(200, 3, 8, [20, 16, 12], seed=seed, noise_scale=0.05)
    masked = apply_missing_pattern(truth, MissingSpec(eta, seed=seed))
    cfg = GanConfig(latent_dim=16, lr=0.05, epochs=200, adv_weight=adv_weight,
                    seed=seed, hidden_dims=(64,), d_steps=d_steps)
    model = train_unsupervised(masked, cfg)
    res = impute(model, masked, truth=truth)
    filled = impute_baseline(masked, GLOBAL_MEAN)
    base = nrmse(filled.views, truth.views, masked.mask == 0)
    return res.overall_nrmse, base.overall


@pytest.fixture(scope="module")
def imputation_runs():
    out = {}
    etas, arms = (0.5, 0.3), ((0.1, 8), (0.0, 1))  # adversarial, then plain
    cells = list(itertools.product(etas, arms, SEEDS))
    done = dict(zip(cells, map_striped(lambda c: gan_nrmse(c[2], c[0], *c[1]), cells)))
    for eta in etas:
        adv = [done[eta, arms[0], s] for s in SEEDS]
        plain = [done[eta, arms[1], s] for s in SEEDS]
        out[eta] = {
            "gan": float(np.mean([g for g, _ in adv])),
            "plain": float(np.mean([p for p, _ in plain])),
            "base": float(np.mean([b for _, b in adv])),
        }
    return out


# ------------------------------------------------------- 1: gradient oracles

def recon_instance(rng):
    n = int(rng.integers(3, 7))
    k = int(rng.integers(2, 4))
    dims = [int(rng.integers(2, 5)) for _ in range(2)]
    views = [rng.normal(size=(n, d)) for d in dims]
    mask = (rng.random((n, 2)) < 0.7).astype(np.int64)
    mask[mask.sum(axis=1) == 0, 0] = 1
    labels = np.array([0, 1] + list(rng.integers(0, 2, n - 2)))
    data = MultiViewDataset(views, mask, labels)
    latent = LatentTable(rng.normal(size=(n, k)))
    nets = [init_net([k, 3, d], SIGMOID_HIDDEN, rng=rng) for d in dims]
    return data, latent, nets, labels


def check_recon_instance(rng):
    data, latent, nets, labels = recon_instance(rng)
    n = data.n_samples
    loss = lambda: reconstruction_loss(nets, latent, data)
    centroids = class_centroids(latent.H, labels, 2)
    g = latent_gradients(nets, latent, data, labels, centroids, 0.0) / n
    for i in range(latent.H.size):
        if not close(g.flat[i], central_diff(loss, latent.H, i)):
            return False
    for v, net in enumerate(nets):
        diff = (forward(net, latent.H) - data.views[v]) * data.mask[:, v:v + 1]
        bundle = backward(net, latent.H, (2.0 / n) * diff)
        for layer in range(len(net.weights)):
            for i in range(net.weights[layer].size):
                if not close(bundle.d_weights[layer].flat[i],
                             central_diff(loss, net.weights[layer], i)):
                    return False
            for i in range(net.biases[layer].size):
                if not close(bundle.d_biases[layer].flat[i],
                             central_diff(loss, net.biases[layer], i)):
                    return False
    return True


def check_margin_instance(rng):
    n = int(rng.integers(4, 8))
    k = int(rng.integers(2, 4))
    c = int(rng.integers(2, 4))
    latent = LatentTable(rng.normal(size=(n, k)))
    labels = np.array(list(range(c)) + list(rng.integers(0, c, n - c)))
    centroids = rng.normal(size=(c, k))
    scores = latent.H @ centroids.T
    top2 = np.sort(scores, axis=1)[:, -2:]
    if (top2[:, 1] - top2[:, 0]).min() < 1e-2:
        return None  # too close to the hinge kink for finite differences
    dummy = MultiViewDataset([np.zeros((n, 1))], np.ones((n, 1), dtype=np.int64))
    g = latent_gradients([], latent, dummy, labels, centroids, 1.0) / n
    loss = lambda: classification_loss(latent, labels, centroids)
    return all(close(g.flat[i], central_diff(loss, latent.H, i))
               for i in range(latent.H.size))


def adversarial_instance(rng):
    n, dims, k = 5, (3, 2), 2
    views = [rng.normal(size=(n, d)) for d in dims]
    mask = np.ones((n, 2), dtype=np.int64)
    gone = rng.choice(n, size=2, replace=False)
    mask[gone, 0] = 0
    stays = [i for i in range(n) if i not in gone]
    mask[stays[0], 1] = 0
    data = MultiViewDataset(views, mask)
    cfg = GanConfig(latent_dim=k, lr=0.05, epochs=1, adv_weight=0.8,
                    seed=int(rng.integers(1 << 30)), hidden_dims=(4,))
    gens = [init_net([k, 4, d], SIGMOID_HIDDEN, rng=rng) for d in dims]
    discs = [init_net([d, 4, 1], SIGMOID_ALL, rng=rng) for d in dims]
    model = AdversarialModel(LatentTable(rng.normal(size=(n, k))), gens, discs, cfg)
    return model, data


def check_adversarial_instance(rng):
    model, data = adversarial_instance(rng)
    n = data.n_samples
    w = model.config.adv_weight
    combined = lambda: (w * adversarial_loss(model, data)
                        + reconstruction_loss(model.generators, model.latent, data))
    adv_only = lambda: adversarial_loss(model, data)

    d_bundles = discriminator_gradients(model, data, generator_fills(model, data))
    for disc, bundle in zip(model.discriminators, d_bundles):
        if bundle is None:
            continue
        for layer in range(len(disc.weights)):
            for i in range(disc.weights[layer].size):
                if not close(bundle.d_weights[layer].flat[i],
                             central_diff(adv_only, disc.weights[layer], i)):
                    return False
            for i in range(disc.biases[layer].size):
                if not close(bundle.d_biases[layer].flat[i],
                             central_diff(adv_only, disc.biases[layer], i)):
                    return False

    ups = combined_upstreams(model, data)
    for gen, u in zip(model.generators, ups):
        bundle = backward(gen, model.latent.H, u)
        for layer in range(len(gen.weights)):
            for i in range(gen.weights[layer].size):
                if not close(bundle.d_weights[layer].flat[i],
                             central_diff(combined, gen.weights[layer], i)):
                    return False
            for i in range(gen.biases[layer].size):
                if not close(bundle.d_biases[layer].flat[i],
                             central_diff(combined, gen.biases[layer], i)):
                    return False

    g = latent_gradient(model, data) / n
    return all(close(g.flat[i], central_diff(combined, model.latent.H, i))
               for i in range(model.latent.H.size))


def test_criterion_01_gradient_oracles(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    counts = []
    for checker in (check_recon_instance, check_margin_instance,
                    check_adversarial_instance):
        accepted = 0
        attempts = 0
        while accepted < 20:
            attempts += 1
            assert attempts < 200, "instance filter rejects too much"
            outcome = checker(rng)
            if outcome is None:
                continue
            assert outcome, f"{checker.__name__} gradient mismatch"
            accepted += 1
        counts.append(accepted)
    elapsed = time.time() - t0
    verdict(capsys, 1, elapsed < 30.0,
            f"{counts} instances of recon/margin/adversarial gradients all "
            f"match finite differences (rel tol {FD_TOL}) in {elapsed:.1f}s < 30s")


# ------------------------------------------------------- 2: loss invariants

def test_criterion_02_loss_invariants(capsys):
    rng = np.random.default_rng(5)
    h = np.vstack([np.eye(3)[rng.integers(0, 3)] * 2 + rng.normal(scale=0.05, size=3)
                   for _ in range(12)])
    labels = h.argmax(axis=1)
    latent = LatentTable(h)
    centroids = class_centroids(h, labels, 3)
    margin_zero = classification_loss(latent, labels, centroids) == 0.0

    data, latent2, nets, labels2 = recon_instance(rng)
    junk = data.take(np.arange(data.n_samples))
    for v in range(junk.n_views):
        junk.views[v][junk.mask[:, v] == 0] = 1e6
    cent2 = class_centroids(latent2.H, labels2, 2)
    g_clean = latent_gradients(nets, latent2, data, labels2, cent2, 1.0)
    g_junk = latent_gradients(nets, latent2, junk, labels2, cent2, 1.0)
    masked_inert = np.array_equal(g_clean, g_junk)
    for v, net in enumerate(nets):
        for d, masked in ((data, False), (junk, True)):
            diff = (forward(net, latent2.H) - d.views[v]) * d.mask[:, v:v + 1]
            bundle = backward(net, latent2.H, diff)
            if masked:
                masked_inert &= all(np.array_equal(a, b) for a, b in
                                    zip(bundle.d_weights, ref.d_weights))
                masked_inert &= all(np.array_equal(a, b) for a, b in
                                    zip(bundle.d_biases, ref.d_biases))
                masked_inert &= np.array_equal(bundle.d_input, ref.d_input)
            else:
                ref = bundle

    model, gdata = adversarial_instance(np.random.default_rng(9))
    gjunk = gdata.take(np.arange(gdata.n_samples))
    for v in range(gjunk.n_views):
        gjunk.views[v][gjunk.mask[:, v] == 0] = -1e6
    masked_inert &= np.array_equal(latent_gradient(model, gdata),
                                   latent_gradient(model, gjunk))
    for ua, ub in zip(combined_upstreams(model, gdata), combined_upstreams(model, gjunk)):
        masked_inert &= np.array_equal(ua, ub)

    truth = synth_dataset(60, 3, 4, [6, 5], seed=3, noise_scale=0.05)
    masked = apply_missing_pattern(truth, MissingSpec(0.4, seed=3))
    observed_kept = True
    fills = [impute_baseline(masked, kind) for kind in (GLOBAL_MEAN, CLASS_MEAN)]
    fills.append(impute_baseline(masked, SVD))
    gmodel = train_unsupervised(masked, GanConfig(latent_dim=4, epochs=20,
                                                  hidden_dims=(8,), seed=0))
    fills.append(impute(gmodel, masked).completed)
    for filled in fills:
        for v in range(masked.n_views):
            keep = masked.mask[:, v] == 1
            observed_kept &= np.array_equal(filled.views[v][keep],
                                            masked.views[v][keep])

    ok = margin_zero and masked_inert and observed_kept
    verdict(capsys, 2, ok,
            f"margin loss exactly zero at correct argmaxes: {margin_zero}; "
            f"masked slots bit-inert in every gradient: {masked_inert}; "
            f"all four imputers keep observed entries bit-exact: {observed_kept}")


# ---------------------------------------------- 3: supervised desk-scale run

def test_criterion_03_supervised_desk_scale(capsys, desk_runs):
    complete = np.array([r["acc_post"] for r in desk_runs[0.0]])
    at_half = np.array([r["acc_post"] for r in desk_runs[0.5]])
    base_half = np.array([r["base"] for r in desk_runs[0.5]])
    gap = at_half.mean() - base_half.mean()
    elapsed = desk_runs["elapsed"]
    ok = complete.mean() >= 0.90 and gap >= 0.03 and elapsed < 300
    verdict(capsys, 3, ok,
            f"complete-data mean acc {complete.mean():.4f} >= 0.90; at half "
            f"missing {at_half.mean():.4f} vs mean-fill baseline "
            f"{base_half.mean():.4f} (gap {100 * gap:+.1f}pts >= 3); "
            f"{elapsed:.0f}s < 300s")


# ------------------------------------------------- 4: public-data robustness

HANDWRITTEN_CANDIDATES = (
    Path(__file__).resolve().parent.parent / "data" / "handwritten",
    Path.home() / "data" / "handwritten",
)


def test_criterion_04_handwritten_robustness(capsys):
    located = next((p / "dataset.json" for p in HANDWRITTEN_CANDIDATES
                    if (p / "dataset.json").exists()), None)
    if located is None:
        with capsys.disabled():
            print("\n[criterion 04] SKIP: public handwritten-digits six-view "
                  "dataset not present in this environment (searched "
                  f"{', '.join(str(p) for p in HANDWRITTEN_CANDIDATES)}); "
                  "the offline sandbox cannot download it; place it as a "
                  "saved dataset manifest to enable this check")
        pytest.skip("handwritten dataset unavailable offline")
    t0 = time.time()
    data = load_dataset(located)
    cfg = dict(latent_dim=64, lam=1.0, lr_nets=0.001, lr_latent=0.001,
               epochs=200, infer_iters=300, infer_lr=0.001, hidden_dims=(200,))
    accs = {}
    for eta in (0.0, 0.3):
        masked = apply_missing_pattern(data, MissingSpec(eta, seed=0)) if eta else data
        tr, te = split(masked, 0.7, seed=0)
        model = retune(train(tr, TrainConfig(seed=0, **cfg)), tr)
        accs[eta] = evaluate(model, te).accuracy
    decline = accs[0.0] - accs[0.3]
    elapsed = time.time() - t0
    verdict(capsys, 4, decline <= 0.07 and elapsed < 1200,
            f"accuracy {accs[0.0]:.4f} complete vs {accs[0.3]:.4f} at 0.3 "
            f"missing; decline {100 * decline:.1f}pts <= 7; {elapsed:.0f}s")


# ------------------------------------------------------ 5: re-tuning ablation

def test_criterion_05_retune_ablation(capsys, desk_runs):
    rows = desk_runs[0.5]
    wins = sum(r["acc_post"] >= r["acc_pre"] for r in rows)
    verdict(capsys, 5, wins >= 6,
            f"re-tuned accuracy >= un-tuned in {wins}/10 seeds at half missing")


# ---------------------------------------------------- 6: imputation ordering

def test_criterion_06_imputation_ordering(capsys, imputation_runs):
    r5, r3 = imputation_runs[0.5], imputation_runs[0.3]
    chain = r5["gan"] <= r5["plain"] <= r5["base"]
    beats_base = r3["gan"] <= r3["base"]

    rng = np.random.default_rng(7)
    x = np.outer(rng.uniform(0.5, 1.5, 40), rng.uniform(0.5, 1.5, 12))
    observed = rng.random(x.shape) > 0.3
    done, _ = soft_impute_matrix(x, observed,
                                 SvdParams(rank=1, shrinkage=0.0, iters=500),
                                 tol=1e-12)
    svd_err = float(np.abs(done - x)[~observed].max())
    col_means = np.where(observed, x, 0).sum(0) / observed.sum(0)
    mean_err = float(np.abs(np.where(observed, x, col_means) - x)[~observed].max())
    rank1 = svd_err < 1e-3 and svd_err < mean_err

    ok = chain and beats_base and rank1
    verdict(capsys, 6, ok,
            f"half-missing seed-mean NRMSE adversarial {r5['gan']:.6f} <= "
            f"plain {r5['plain']:.6f} <= mean-fill {r5['base']:.6f}; at 0.3 "
            f"adversarial {r3['gan']:.4f} <= mean-fill {r3['base']:.4f}; "
            f"rank-1 soft-impute max err {svd_err:.1e} < 1e-3 "
            f"(mean-fill {mean_err:.1e})")


# ------------------------------------------------- 7: latent-space structure

def test_criterion_07_latent_structure(capsys, desk_runs):
    gaps = {eta: float(np.mean([r["intra"] - r["inter"] for r in desk_runs[eta]]))
            for eta in (0.0, 0.5)}
    ok = all(g >= 0.2 for g in gaps.values())
    verdict(capsys, 7, ok,
            "mean intra-class minus inter-class latent cosine similarity: "
            f"{gaps[0.0]:.3f} complete, {gaps[0.5]:.3f} at half missing "
            "(both >= 0.2)")


# --------------------------------------------------- 8: linear-probe bound

def test_criterion_08_versatility_bound(capsys, desk_runs):
    run = desk_runs[0.5][0]
    model, test_d = run["model"], run["test_d"]
    ht = infer_latents(model, test_d)
    nets = model.retuned_nets if model.retuned_nets is not None else model.recon_nets
    rng = np.random.default_rng(1000)
    held = 0
    trials = 100
    for _ in range(trials):
        e_y = e_r = 0.0
        kphi = 0.0
        for v, net in enumerate(nets):
            probe = rng.normal(size=(5, test_d.view_dims[v]))
            kphi = max(kphi, float(np.linalg.norm(probe, 2)))
            dv = forward(net, ht) - test_d.views[v]
            e_r += float((dv ** 2).sum())
            e_y += float(((dv @ probe.T) ** 2).sum())
        held += e_y <= kphi ** 2 * e_r * (1 + 1e-12)
    verdict(capsys, 8, held == trials,
            f"probe-space error <= (max probe operator norm)^2 x "
            f"reconstruction error in {held}/{trials} random probes")


# --------------------------------------------------------- 9: metric oracles

def brute_force_acc(assignments, labels, c):
    best = 0.0
    for perm in itertools.permutations(range(c)):
        mapped = np.array(perm)[assignments]
        best = max(best, float((mapped == labels).mean()))
    return best


def test_criterion_09_metric_oracles(capsys):
    rng = np.random.default_rng(99)
    acc_ok = nmi_ok = relabel_ok = True
    for _ in range(200):
        c = int(rng.integers(1, 6))
        n = int(rng.integers(5, 61))
        a = rng.integers(0, c, n)
        b = rng.integers(0, c, n)
        acc_ok &= abs(clustering_acc(a, b) - brute_force_acc(a, b, c)) < 1e-12
        nmi_ok &= 0.0 <= nmi(a, b) <= 1.0
        perm = rng.permutation(c)
        relabel_ok &= nmi(perm[b], b) == pytest.approx(1.0, abs=1e-12)

    truth = [rng.normal(size=(30, 4)), rng.normal(size=(30, 3))]
    filled = [t + rng.normal(scale=0.3, size=t.shape) for t in truth]
    score_rows = rng.random((30, 2)) < 0.4
    score_rows[0] = [True, True]
    report = nrmse(filled, truth, score_rows)
    by_hand = []
    for v in range(2):
        d = (filled[v] - truth[v])[score_rows[:, v]]
        t = truth[v][score_rows[:, v]]
        by_hand.append(np.sqrt((d ** 2).mean()) / (t.max() - t.min()))
    nrmse_ok = (abs(report.overall - np.mean(by_hand)) < 1e-12
                and all(abs(a - b) < 1e-12
                        for a, b in zip(report.per_view, by_hand)))

    ok = acc_ok and nmi_ok and relabel_ok and nrmse_ok
    verdict(capsys, 9, ok,
            f"200 fuzz cases: ACC matches brute-force permutation search "
            f"({acc_ok}), NMI within [0,1] ({nmi_ok}) and 1.0 on relabelings "
            f"({relabel_ok}); NRMSE matches hand recomputation ({nrmse_ok})")


# ----------------------------------------------------- 10: CLI determinism

def run_cli(*argv):
    rc = cli.main([str(a) for a in argv])
    assert rc == 0, f"command failed: {argv}"


def stable_outputs(out_dir):
    """Everything the command wrote, with the timestamp field removed."""
    blobs = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if not path.is_file():
            continue
        if path.name == "report.json":
            payload = json.loads(path.read_text())
            payload.pop("timestamp")
            blobs[str(path)] = json.dumps(payload, sort_keys=True)
        else:
            blobs[str(path)] = path.read_bytes()
    return blobs


def test_criterion_10_cli_determinism(capsys, tmp_path):
    base = tmp_path / "a"
    commands = {
        "synth": ["synth", "--n", 40, "--classes", 3, "--zdim", 4,
                  "--view-dims", "6,5", "--seed", 1, "--out", base / "synth"],
        "mask": ["mask", "--data", base / "synth" / "dataset.json",
                 "--eta", 0.4, "--seed", 1, "--out", base / "mask"],
        "train-sup": ["train-sup", "--data", base / "synth" / "dataset.json",
                      "--epochs", 25, "--repeats", 2, "--latent-dim", 6,
                      "--hidden-dims", "8", "--seed", 1, "--out", base / "sup"],
        "train-unsup": ["train-unsup", "--data", base / "mask" / "dataset.json",
                        "--truth", base / "synth" / "dataset.json",
                        "--epochs", 20, "--latent-dim", 5, "--hidden-dims", "8",
                        "--seed", 1, "--out", base / "unsup"],
        "impute": ["impute", "--data", base / "mask" / "dataset.json",
                   "--method", "svd", "--truth", base / "synth" / "dataset.json",
                   "--out", base / "imp"],
        "eval": ["eval", "--model", base / "sup" / "model",
                 "--data", base / "mask" / "dataset.json", "--out", base / "ev"],
        "sweep": ["sweep", "--data", base / "synth" / "dataset.json",
                  "--rates", "0.3", "--methods", "mean-fill,class-fill",
                  "--repeats", 2, "--seed", 1, "--out", base / "sw"],
    }
    first = {}
    for name, argv in commands.items():
        run_cli(*argv)
        out_dir = Path(str(argv[argv.index("--out") + 1]))
        first[name] = stable_outputs(out_dir)
    stable = []
    for name, argv in commands.items():
        run_cli(*argv)
        out_dir = Path(str(argv[argv.index("--out") + 1]))
        if stable_outputs(out_dir) == first[name]:
            stable.append(name)
    ok = len(stable) == len(commands)
    verdict(capsys, 10, ok,
            f"{len(stable)}/{len(commands)} commands byte-stable across "
            f"repeated identical invocations: {', '.join(stable)}")
