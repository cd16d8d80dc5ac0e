"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line. Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines."""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from g2i import cli
from g2i.attribution import select_hvf, shapley_sample
from g2i.cnn import ConvNetConfig, init_params, loss_and_grad, train
from g2i.community import association_matrix, fit_communities, CommunityModel
from g2i.graph import generate_sbm, sbm_signal_coords, split_dataset
from g2i.imaging import (
    build_feature_layout,
    build_structural_layout,
    read_tensor,
    render_all,
    write_tensor,
)
from g2i.metrics import ContingencyTable, ari, homogeneity_completeness_v, nmi, silhouette
from g2i.transport import sinkhorn, solve_gw
from oracles import brute_force_gw, shapley_exact


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    assert ok, f"criterion {number} ({name}) failed"


def _rand_sym(rng, m, scale=1.0):
    A = rng.random((m, m)) * scale
    C = (A + A.T) / 2.0
    np.fill_diagonal(C, 0.0)
    return C


def test_criterion_1_gw_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    ok = True
    for trial in range(50):
        m = int(rng.integers(2, 6))
        C_item = _rand_sym(rng, m)
        C_grid = _rand_sym(rng, m)
        plan = solve_gw(C_item, C_grid, epsilon=0.0, seed=trial, restarts=20)
        _, best = brute_force_gw(C_item, C_grid)
        if abs(plan.objective - best) > 1e-9:
            ok = False
    elapsed = time.time() - t0
    _report(1, "gw oracle equivalence", ok and elapsed < 60.0)


def test_criterion_2_sinkhorn_feasibility():
    rng = np.random.default_rng(202)
    ok = True
    for trial in range(100):
        m = int(rng.integers(4, 9))
        cost = rng.random((m, m))
        p = np.full(m, 1.0 / m)
        eps = 0.05 if trial % 2 == 0 else 0.5
        plan = sinkhorn(cost, p, p, epsilon=eps, max_iter=50000, tol=1e-9)
        if (np.max(np.abs(plan.sum(axis=1) - p)) > 1e-6
                or np.max(np.abs(plan.sum(axis=0) - p)) > 1e-6):
            ok = False
    _report(2, "sinkhorn feasibility", ok)


def test_criterion_3_kmeans_recovers_cliques():
    recovered = 0
    monotone = True
    for seed in range(20):
        g = generate_sbm((10, 10), 1.0, 0.0, 4, 0.0, seed=seed)
        model = fit_communities(g, 2, seed=seed)
        a = model.assignment
        if len(set(a[:10])) == 1 and len(set(a[10:])) == 1 and a[0] != a[10]:
            recovered += 1
        history = model.inertia_history
        for earlier, later in zip(history, history[1:]):
            if later > earlier + 1e-12:
                monotone = False
    _report(3, "kmeans clique recovery", recovered >= 19 and monotone)


def test_criterion_4_zscore_contract():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        P = int(rng.integers(1, 8))
        centroids = rng.normal(size=(P, 5))
        model = CommunityModel(P=P, centroids=centroids,
                               assignment=np.zeros(P, dtype=np.int64),
                               inertia_history=(), seed=0)
        assoc = association_matrix(model)
        if assoc.sigma == 0.0:
            if not np.all(assoc.values == 0.0):
                ok = False
        else:
            if abs(assoc.values.mean()) > 1e-9 or abs(assoc.values.std() - 1.0) > 1e-9:
                ok = False
    # explicit degenerate case: identical centroids
    model = CommunityModel(P=3, centroids=np.ones((3, 4)),
                           assignment=np.zeros(3, dtype=np.int64),
                           inertia_history=(), seed=0)
    if not np.all(association_matrix(model).values == 0.0):
        ok = False
    _report(4, "association z-score contract", ok)


def test_criterion_5_rendering_invariants(tmp_path):
    rng = np.random.default_rng(505)
    ok = True
    for trial in range(100):
        sizes = (int(rng.integers(5, 9)), int(rng.integers(5, 9)))
        k = int(rng.integers(2, 6))
        g = generate_sbm(sizes, 0.9, 0.1, k, 1.0, seed=trial)
        P = max(2, math.isqrt(k))
        model = fit_communities(g, P, seed=trial)
        assoc = association_matrix(model)
        s_layout = build_structural_layout(assoc, seed=trial, restarts=5)
        f_layout = build_feature_layout(g.features, seed=trial, restarts=5)
        images = render_all(g, model, s_layout, [f_layout])

        a = model.assignment
        for c in range(P):
            members = np.flatnonzero(a == c)
            rep = images.tensors[members[0], 0]
            for m_ in members[1:]:
                if not np.array_equal(images.tensors[m_, 0], rep):
                    ok = False
        for node in range(g.n):
            feat_sum = images.tensors[node, 1].astype(np.float64).sum()
            expected = g.features[node].astype(np.float32).astype(np.float64).sum()
            if abs(feat_sum - expected) > 1e-4:
                ok = False

        path = tmp_path / f"imgs_{trial}.g2t"
        write_tensor(images, path)
        loaded = read_tensor(path)
        if (images.node_ids != loaded.node_ids
                or not np.array_equal(images.tensors, loaded.tensors)):
            ok = False
    _report(5, "rendering invariants", ok)


def test_criterion_6_cnn_gradient_check():
    t0 = time.time()
    cfg = ConvNetConfig(input_side=6, input_channels=2, classes=3, conv_layers=2,
                        kernel=3, filters=4, fc_sizes=(10, 8), seed=0)
    params = init_params(cfg)
    rng = np.random.default_rng(606)
    X = rng.normal(size=(3, 2, 6, 6))
    y = np.array([0, 1, 2])
    _, grads = loss_and_grad(params, X, y)
    eps = 1e-4
    worst = 0.0
    for (name, arr), (_, g) in zip(params.arrays(), grads.arrays()):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_and_grad(params, X, y)
            flat[i] = orig - eps
            lm, _ = loss_and_grad(params, X, y)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    elapsed = time.time() - t0
    _report(6, "cnn gradient check", worst < 1e-3 and elapsed < 30.0)


def _separable_images(n=200, side=8, seed=42):
    from g2i.imaging import ImageSet

    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    pat = np.zeros((2, side, side, 2))
    pat[0, 1:4, 1:4, 0] = 2.0
    pat[0, 4:7, 4:7, 1] = -2.0
    pat[1, 1:4, 4:7, 0] = 2.0
    pat[1, 4:7, 1:4, 1] = -2.0
    imgs = []
    for i in range(n):
        t = pat[labels[i]] + rng.normal(0, 0.5, (side, side, 2))
        imgs.append(t.astype(np.float32).transpose(2, 0, 1))
    return ImageSet(node_ids=tuple(f"n{i}" for i in range(n)), tensors=np.stack(imgs),
                    labels=labels, channel_names=("a", "b"))


def test_criterion_7_cnn_learning(tmp_path):
    t0 = time.time()
    images = _separable_images()
    split = split_dataset(images.labels, seed=5)
    cfg = ConvNetConfig(input_side=8, input_channels=2, classes=2, seed=3)
    assert cfg.learning_rate == 3e-4 and cfg.batch_size == 32 and cfg.max_epochs == 20
    params, report = train(images, split, cfg, tmp_path / "checkpoint.g2t")
    from g2i.cnn import evaluate

    train_acc = evaluate(params, images, split.train)["accuracy"]
    test_acc = report.test_metrics["accuracy"]
    elapsed = time.time() - t0
    _report(7, "cnn learning", train_acc >= 0.95 and test_acc >= 0.90 and elapsed < 120.0)


def test_criterion_8_shapley_oracle():
    rng = np.random.default_rng(808)
    ok = True

    w = rng.normal(size=(2, 2, 2))

    def predict(batch):
        flat = batch.reshape(batch.shape[0], -1)
        z = flat @ w.reshape(-1)
        p1 = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - p1, p1])

    image = rng.normal(size=(2, 2, 2))
    background = rng.normal(size=(2, 2, 2))
    players = [(ch, r, c) for ch in range(2) for r in range(2) for c in range(2)]
    values = shapley_exact(predict, image, 1, background, players)

    # efficiency
    f_full = predict(image[None])[0, 1]
    f_bg = predict(background[None])[0, 1]
    if abs(values.sum() - (f_full - f_bg)) > 1e-12:
        ok = False

    # null player: cell equal to background
    image2 = image.copy()
    image2[0, 0, 0] = background[0, 0, 0]
    values2 = shapley_exact(predict, image2, 1, background, players)
    if abs(values2[players.index((0, 0, 0))]) > 1e-12:
        ok = False

    # symmetry: model that sums two interchangeable cells
    def sym_predict(batch):
        s = batch[:, 0, 0, 0] + batch[:, 0, 0, 1]
        return np.column_stack([-s, s])

    sym_img = np.zeros((1, 2, 2))
    sym_img[0, 0, 0] = 2.0
    sym_img[0, 0, 1] = 2.0
    sym_vals = shapley_exact(sym_predict, sym_img, 1, np.zeros((1, 2, 2)),
                             [(0, 0, 0), (0, 0, 1)])
    if abs(sym_vals[0] - sym_vals[1]) > 1e-12:
        ok = False

    # sampling estimator vs closed form on a linear game
    def linear_predict(batch):
        flat = batch.reshape(batch.shape[0], -1)
        z = flat @ w.reshape(-1)
        return np.column_stack([-z, z])

    sampled = shapley_sample(linear_predict, image, 1, background, players,
                             M=2000, seed=0)
    for val, (ch, r, c) in zip(sampled, players):
        expected = w[ch, r, c] * (image[ch, r, c] - background[ch, r, c])
        if abs(expected) > 1e-9 and abs(val - expected) / abs(expected) > 0.02:
            ok = False
    _report(8, "shapley oracle", ok)


def test_criterion_9_metrics_oracle():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 16))
        u = rng.integers(0, 4, n).tolist()
        v = rng.integers(0, 4, n).tolist()
        table = ContingencyTable.from_labels(u, v)

        # pair-counting ARI oracle
        a = b = c = d = 0
        for i, j in itertools.combinations(range(n), 2):
            su, sv = u[i] == u[j], v[i] == v[j]
            if su and sv:
                a += 1
            elif su:
                c += 1
            elif sv:
                d += 1
            else:
                b += 1
        total = a + b + c + d
        expected = (a + c) * (a + d) / total
        maximum = ((a + c) + (a + d)) / 2.0
        oracle_ari = (1.0 if c == d == 0 else 0.0) if maximum == expected else \
            (a - expected) / (maximum - expected)
        if abs(ari(table) - oracle_ari) > 1e-12:
            ok = False

        # direct-entropy oracles
        def entropy(labels):
            h = 0.0
            for cl in set(labels):
                p = labels.count(cl) / n
                h -= p * math.log(p)
            return h

        hu, hv = entropy(u), entropy(v)
        I = 0.0
        h_u_given_v = 0.0
        h_v_given_u = 0.0
        for cu in set(u):
            for cv in set(v):
                nij = sum(1 for x, y in zip(u, v) if x == cu and y == cv)
                if nij:
                    pu = u.count(cu) / n
                    pv = v.count(cv) / n
                    I += (nij / n) * math.log((nij / n) / (pu * pv))
                    h_u_given_v -= (nij / n) * math.log(nij / (v.count(cv)))
                    h_v_given_u -= (nij / n) * math.log(nij / (u.count(cu)))
        if hu == 0.0 and hv == 0.0:
            oracle_nmi = 1.0
        elif hu == 0.0 or hv == 0.0:
            oracle_nmi = 0.0
        else:
            oracle_nmi = 2.0 * I / (hu + hv)
        if abs(nmi(table) - oracle_nmi) > 1e-12:
            ok = False
        oh = 1.0 if hu == 0.0 else 1.0 - h_u_given_v / hu
        oc = 1.0 if hv == 0.0 else 1.0 - h_v_given_u / hv
        ov = 2.0 * oh * oc / (oh + oc) if oh + oc > 0 else 0.0
        h_, c_, v_ = homogeneity_completeness_v(table)
        if abs(h_ - oh) > 1e-12 or abs(c_ - oc) > 1e-12 or abs(v_ - ov) > 1e-12:
            ok = False

    u = [0, 0, 1, 1, 2]
    if ari(ContingencyTable.from_labels(u, u)) != 1.0:
        ok = False

    # silhouette hand case
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = np.array([0, 0, 1, 1])
    expected_sil = (9.5 / 10.5 + 8.5 / 9.5 + 8.5 / 9.5 + 9.5 / 10.5) / 4
    if abs(silhouette(X, labels) - expected_sil) > 1e-12:
        ok = False
    _report(9, "clustering metrics oracle", ok)


@pytest.fixture(scope="module")
def sbm_pipeline(tmp_path_factory):
    """Two identical end-to-end runs of the SBM experiment config."""
    root = tmp_path_factory.mktemp("sbm")
    dirs = []
    t0 = time.time()
    for label in ("a", "b"):
        out = root / label
        out.mkdir()
        args = ["--out", str(out), "--seed", "7"]
        assert cli.main(["synth", *args]) == 0
        rc = cli.main(["run", *args,
                       "--edges", str(out / "edges.tsv"),
                       "--features", str(out / "features.csv"),
                       "--labels", str(out / "labels.csv")])
        assert rc == 0
        dirs.append(out)
    return dirs, time.time() - t0


def test_criterion_10_end_to_end_sbm(sbm_pipeline):
    (out, _), elapsed = sbm_pipeline
    single_run = elapsed / 2.0
    ok = single_run < 300.0

    values = {}
    for line in (out / "eval.csv").read_text().strip().splitlines()[1:]:
        key, val = line.split(",")
        values[key] = float(val)
    if values["accuracy"] < 0.90 or values["macro_f1"] < 0.88:
        ok = False

    import csv as csv_mod

    coords = sbm_signal_coords(4, 64)
    rows = list(csv_mod.DictReader(open(out / "importance.csv")))
    for blk in range(4):
        crows = [r for r in rows if r["class"] == f"block{blk}"]
        top = max(crows, key=lambda r: float(r["shap_raw"]))
        if float(top["shap_raw"]) <= 0:
            ok = False
        if int(top["feature"][1:]) not in set(coords[blk].tolist()):
            ok = False
    _report(10, "end-to-end sbm experiment", ok)


def test_criterion_11_determinism(sbm_pipeline):
    (a, b), _ = sbm_pipeline
    ok = True
    for name in ("images.g2t", "checkpoint.g2t", "report.csv", "eval.csv",
                 "importance.csv", "metrics.csv", "communities.csv",
                 "structural_layout.csv"):
        if (a / name).read_bytes() != (b / name).read_bytes():
            ok = False
    _report(11, "determinism", ok)
