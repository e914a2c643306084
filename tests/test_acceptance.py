"""Acceptance suite: one test per release criterion, with its tolerance
pinned in the assertion and one PASS/FAIL line printed per criterion."""

import shutil
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import dmkde
from dmkde.cli import canonical_json, evaluate_model, main
from dmkde.embedding import _loss_and_grad
from tests.conftest import ODDS_DIR, random_unit_vectors, two_cluster_spec


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_qde_matches_bruteforce(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    dims = [2, 16, 64, 256]
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 501))
        dim = dims[i % len(dims)]
        phis = random_unit_vectors(rng, n, dim)
        dm = dmkde.build_density_matrix(phis)
        for q in random_unit_vectors(rng, 20, dim):
            gap = abs(dmkde.estimate_density(dm, q) - dmkde.qde_bruteforce(phis, q))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    announce(capsys, 1, ok, f"max |fast - brute| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_density_matrix_invariants(capsys):
    rng = np.random.default_rng(202)
    worst_trace = worst_sym = 0.0
    worst_eig = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 200))
        dim = int(rng.choice([4, 16, 64]))
        dm = dmkde.build_density_matrix(random_unit_vectors(rng, n, dim))
        worst_trace = max(worst_trace, abs(np.trace(dm.matrix) - 1.0))
        worst_sym = max(worst_sym, float(np.max(np.abs(dm.matrix - dm.matrix.T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(dm.matrix).min()))

    worst_merge = 0.0
    phis = random_unit_vectors(rng, 300, 24)
    direct = dmkde.build_density_matrix(phis)
    for _ in range(5):
        cuts = np.sort(rng.choice(np.arange(1, 300), size=6, replace=False))
        bounds = [0, *cuts.tolist(), 300]
        parts = [dmkde.build_density_matrix(phis[a:b]) for a, b in zip(bounds, bounds[1:])]
        while len(parts) > 1:
            k = int(rng.integers(0, len(parts) - 1))
            parts[k] = dmkde.merge_density_matrices(parts[k], parts.pop(k + 1))
        worst_merge = max(worst_merge, float(np.max(np.abs(parts[0].matrix - direct.matrix))))

    ok = (worst_trace <= 1e-9 and worst_sym <= 1e-12
          and worst_eig >= -1e-8 and worst_merge <= 1e-12)
    announce(capsys, 2, ok,
             f"trace {worst_trace:.1e}, sym {worst_sym:.1e}, "
             f"min eig {worst_eig:.1e}, merge {worst_merge:.1e}")


def _kernel_error(dim, rff_dim, pair_seed, param_seed, pairs=200, max_dist=4.0):
    rng = np.random.default_rng(pair_seed)
    x = rng.normal(size=(pairs, dim))
    u = rng.normal(size=(pairs, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    y = x + (rng.random(pairs) * max_dist)[:, None] * u
    p = dmkde.sample_rff_params(dim, rff_dim, 1.0, param_seed)
    inner = np.sum(dmkde.embed_raw(p, x) * dmkde.embed_raw(p, y), axis=1)
    return float(np.mean(np.abs(inner - dmkde.gaussian_kernel(x, y, 1.0))))


def test_criterion_3_kernel_approximation(capsys):
    err_2000 = _kernel_error(5, 2000, pair_seed=17, param_seed=21)
    means = []
    for rff_dim in (256, 1024, 4096):
        errs = [_kernel_error(5, rff_dim, pair_seed=100 + s, param_seed=s, pairs=100)
                for s in range(5)]
        means.append(float(np.mean(errs)))
    ok = err_2000 <= 0.05 and means[0] >= means[1] >= means[2]
    announce(capsys, 3, ok,
             f"err@2000 = {err_2000:.4f}, errs over D = "
             + ", ".join(f"{m:.4f}" for m in means))


def test_criterion_4_aff_correctness(capsys):
    # analytic vs central finite differences on a d=2, D=8, 10-pair instance
    rng = np.random.default_rng(7)
    params = dmkde.sample_rff_params(2, 8, 1.0, seed=3)
    lhs, rhs = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
    targets = dmkde.gaussian_kernel(lhs, rhs, params.sigma)
    _, grad_w, grad_b = _loss_and_grad(params.weights, params.offsets, lhs, rhs, targets, True)

    def loss_at(w, b):
        return _loss_and_grad(w, b, lhs, rhs, targets, False)[0]

    step = 1e-5
    max_rel = 0.0
    for idx in np.ndindex(params.weights.shape):
        wp = params.weights.copy(); wp[idx] += step
        wm = params.weights.copy(); wm[idx] -= step
        fd = (loss_at(wp, params.offsets) - loss_at(wm, params.offsets)) / (2 * step)
        max_rel = max(max_rel, abs(grad_w[idx] - fd) / max(abs(fd), 1e-6))
    for j in range(params.embed_dim):
        bp = params.offsets.copy(); bp[j] += step
        bm = params.offsets.copy(); bm[j] -= step
        fd = (loss_at(params.weights, bp) - loss_at(params.weights, bm)) / (2 * step)
        max_rel = max(max_rel, abs(grad_b[j] - fd) / max(abs(fd), 1e-6))

    # training on the two-Gaussian synthetic set must not hurt held-out MSE
    ds = dmkde.generate_synthetic(two_cluster_spec(), seed=11)
    split = dmkde.stratified_split(ds, seed=1)
    train = ds.features[split.train]
    shift, scale = dmkde.fit_standardizer(train)
    train = dmkde.apply_standardizer(train, shift, scale)
    init = dmkde.sample_rff_params(2, 64, 1.5, seed=5)
    cfg = dmkde.AffConfig(num_pairs=1000, epochs=500, learning_rate=0.05, seed=9)
    trained = dmkde.train_aff(init, train, cfg)
    hold = np.random.default_rng(321)
    i = hold.integers(0, len(train), 2000)
    j = hold.integers(0, len(train), 2000)
    before = dmkde.pair_loss(init, train[i], train[j])
    after = dmkde.pair_loss(trained, train[i], train[j])

    ok = max_rel <= 1e-4 and after <= before
    announce(capsys, 4, ok,
             f"grad rel err {max_rel:.2e}; holdout MSE {before:.5f} -> {after:.5f}")


def test_criterion_5_threshold_calibration(capsys, two_cluster_dataset):
    split = dmkde.stratified_split(two_cluster_dataset, seed=1)
    train = two_cluster_dataset.features[split.train]
    val = two_cluster_dataset.features[split.val]
    m = len(val)
    worst = 0.0
    for rate in (0.02, 0.1, 0.3):
        model, _ = dmkde.fit(train, val, rate, dmkde.FitConfig(sigma=1.0, embed_dim=256, seed=1))
        _, densities = dmkde.predict_batch(model, val)
        frac = float(np.mean(densities < model.theta))
        worst = max(worst, abs(frac - rate) - 1.0 / m)
    ok = worst <= 1e-12
    announce(capsys, 5, ok, f"max excess over 1/m band = {worst:.2e} (m={m})")


def test_criterion_6_end_to_end_benchmark(capsys, two_cluster_dataset):
    t0 = time.perf_counter()
    ds = two_cluster_dataset
    split = dmkde.stratified_split(ds, seed=1)
    train, val, test = (ds.features[split.train], ds.features[split.val],
                        ds.features[split.test])
    rate = ds.anomaly_rate

    shift, scale = dmkde.fit_standardizer(train)
    grid = dmkde.default_sigma_grid(dmkde.apply_standardizer(train, shift, scale))
    best_cfg, _ = dmkde.grid_search(train, val, ds.labels[split.val], rate,
                                    grid, [4096], seed=1)
    model, _ = dmkde.fit(train, val, rate, best_cfg)
    pred, densities = dmkde.predict_batch(model, test)
    f1w = dmkde.f1_weighted(ds.labels[split.test], pred)

    train_s = dmkde.apply_standardizer(train, model.shift, model.scale)
    val_s = dmkde.apply_standardizer(val, model.shift, model.scale)
    test_s = dmkde.apply_standardizer(test, model.shift, model.scale)
    kde_sigma = model.embedding.sigma * dmkde.KDE_BANDWIDTH_RATIO
    ref_labels = dmkde.reference_classifier(train_s, val_s, test_s, rate, kde_sigma)
    agreement = float(np.mean(ref_labels == pred))
    rho = float(spearmanr(densities, dmkde.kde_exact_batch(train_s, kde_sigma, test_s)).statistic)
    elapsed = time.perf_counter() - t0

    ok = f1w >= 0.95 and agreement >= 0.95 and rho >= 0.95 and elapsed < 60.0
    announce(capsys, 6,
             ok, f"f1w {f1w:.4f}, agreement {agreement:.4f}, spearman {rho:.4f}, "
                 f"{elapsed:.1f}s (sigma* = {best_cfg.sigma:.3f})")


TABLE_F1 = {"arrhythmia": 0.911, "pima": 0.758, "wbc": 0.961}


@pytest.mark.skipif(not all((ODDS_DIR / f"{n}.csv").exists() for n in TABLE_F1),
                    reason="user-supplied ODDS conversions not present")
def test_criterion_7_odds_best_effort(capsys, tmp_path):
    data_dir = tmp_path / "odds"
    data_dir.mkdir()
    for name in TABLE_F1:
        shutil.copyfile(ODDS_DIR / f"{name}.csv", data_dir / f"{name}.csv")
    out_dir = tmp_path / "out"
    code = main(["benchmark", str(data_dir), "--out", str(out_dir), "--seed", "0"])
    import json
    summary = json.loads((out_dir / "summary.json").read_text())
    rows = {r["dataset"]: r for r in summary["datasets"]}
    details = []
    for name, expected in TABLE_F1.items():
        row = rows.get(name, {})
        got = row.get("test_f1_weighted")
        if got is None:
            details.append(f"{name}: failed ({row.get('error', 'missing')})")
        else:
            delta = got - expected
            inside = "within" if abs(delta) <= 0.10 else "OUTSIDE"
            details.append(f"{name}: f1 {got:.3f} vs {expected:.3f} ({delta:+.3f}, {inside} 0.10)")
    # soft criterion: completion is gating, deviations are reported only
    ok = code == 0 and all(r.get("status") == "ok" for r in rows.values())
    announce(capsys, 7, ok, "; ".join(details))


def test_criterion_8_split_protocol(capsys):
    features = np.arange(300, dtype=np.float64).reshape(100, 3)
    labels = np.array([1] * 10 + [0] * 90)
    ds = dmkde.LabeledDataset(features, labels, name="fixture")
    split = dmkde.stratified_split(ds, seed=0)
    counts_ok = (
        (len(split.test), len(split.val), len(split.train)) == (30, 21, 49)
        and labels[split.test].sum() == 3
        and labels[split.val].sum() == 2
        and labels[split.train].sum() == 5
    )
    worst = 0.0
    for seed in range(20):
        s = dmkde.stratified_split(ds, seed=seed)
        for idx in (s.train, s.val, s.test):
            worst = max(worst, abs(float(labels[idx].sum()) - 0.1 * len(idx)))
    ok = counts_ok and worst <= 1.0
    announce(capsys, 8, ok, f"counts ok = {counts_ok}, max |anomalies - rate*size| = {worst:.2f}")


def test_criterion_9_determinism_and_serialization(capsys, tmp_path, two_cluster_dataset):
    ds = two_cluster_dataset
    mismatches = []
    for seed in range(5):
        split = dmkde.stratified_split(ds, seed=seed)
        cfg = dmkde.FitConfig(sigma=1.0, embed_dim=64, seed=seed)
        model, _ = dmkde.fit(ds.features[split.train], ds.features[split.val],
                             ds.anomaly_rate, cfg)
        direct, _, _, _ = evaluate_model(model, ds, seed)
        path = tmp_path / f"model_{seed}.json"
        dmkde.save_model(model, path)
        restored, _, _, _ = evaluate_model(dmkde.load_model(path), ds, seed)
        if canonical_json(direct) != canonical_json(restored):
            mismatches.append(seed)
    ok = not mismatches
    announce(capsys, 9, ok, f"seeds with report mismatch: {mismatches or 'none'}")
