import contextlib
import ctypes
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from g2i import attribution
from g2i.attribution import (
    Dendrogram,
    cluster_profiles,
    class_global_importance,
    dendrogram_to_newick,
    hvf_players,
    map_to_features,
    select_hvf,
    shapley_exact,
    shapley_sample,
)
from g2i.cnn import ConvNetConfig, init_params, predict_proba
from g2i.errors import BadArgument, MalformedLine, ShapeMismatch, TooLarge
from g2i.imaging import ImageSet


def _linear_predict(weights):
    """2-class model: class-1 score is a sigmoid of a linear map of the image."""

    def predict(batch):
        flat = batch.reshape(batch.shape[0], -1)
        z = flat @ weights.reshape(-1)
        p1 = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - p1, p1])

    return predict


def _raw_linear_predict(weights):
    """Linear game: the class-1 'probability' is the raw affine score."""

    def predict(batch):
        flat = batch.reshape(batch.shape[0], -1)
        z = flat @ weights.reshape(-1)
        return np.column_stack([-z, z])

    return predict


class TestSelectHVF:
    def test_all_selected_when_small(self):
        F = np.random.default_rng(0).normal(size=(10, 4))
        assert sorted(select_hvf(F, 10).tolist()) == [0, 1, 2, 3]

    @staticmethod
    def _two_point_columns(transformed_levels, n=40):
        """Columns whose shift + log1p transform is exactly {0, h} half/half.

        A column taking two values collapses, after the zero-min shift and
        log1p, to {0, h} with h = log1p(hi - lo); the transformed mean is h/2
        and the variance h^2/4, both exact when the split is exactly half.
        """
        cols = []
        for h in transformed_levels:
            hi = np.expm1(h)
            col = np.concatenate([np.zeros(n // 2), np.full(n // 2, hi)])
            cols.append(col)
        return np.column_stack(cols)

    def test_planted_residual_order_recovered(self):
        levels = [2.0, 4.0, 6.0, 12.0]
        F = self._two_point_columns(levels)
        x = np.array(levels) / 2.0            # transformed means
        y = x**2                              # transformed variances
        # least-squares line via explicit normal equations
        b = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
        a = y.mean() - b * x.mean()
        residual = y - (a + b * x)
        expected = np.argsort(-residual, kind="stable").tolist()
        assert select_hvf(F, 4).tolist() == expected

    def test_dominant_residual_first(self):
        levels = [2.0, 4.0, 6.0, 12.0]
        F = self._two_point_columns(levels)
        x = np.array(levels) / 2.0
        y = x**2
        b = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
        a = y.mean() - b * x.mean()
        top = int(np.argmax(y - (a + b * x)))
        assert select_hvf(F, 1)[0] == top


def _players_chain(n, side=3):
    return [(0, i // side, i % side) for i in range(n)]


class TestShapleyExact:
    def test_efficiency(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 3, 3))
        predict = _linear_predict(w)
        image = rng.normal(size=(2, 3, 3))
        background = rng.normal(size=(2, 3, 3))
        players = [(ch, r, c) for ch in range(2) for r in range(2) for c in range(2)]
        values = shapley_exact(predict, image, 1, background, players)
        full = background.copy()
        for ch, r, c in players:
            full[ch, r, c] = image[ch, r, c]
        f_full = predict(full[None])[0, 1]
        f_bg = predict(background[None])[0, 1]
        assert values.sum() == pytest.approx(f_full - f_bg, abs=1e-12)

    def test_null_player(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 3, 3))
        predict = _linear_predict(w)
        background = rng.normal(size=(2, 3, 3))
        image = background.copy()
        image[0, 0, 0] += 1.0  # only one cell differs
        players = [(0, 0, 0), (0, 0, 1), (1, 1, 1)]
        values = shapley_exact(predict, image, 1, background, players)
        assert values[1] == 0.0
        assert values[2] == 0.0

    def test_symmetry(self):
        # model symmetric in two cells: their exact values must agree
        def predict(batch):
            s = batch[:, 0, 0, 0] + batch[:, 0, 0, 1]
            return np.column_stack([-s, s])

        image = np.zeros((1, 2, 2))
        image[0, 0, 0] = 3.0
        image[0, 0, 1] = 3.0
        background = np.zeros((1, 2, 2))
        players = [(0, 0, 0), (0, 0, 1)]
        values = shapley_exact(predict, image, 1, background, players)
        assert abs(values[0] - values[1]) <= 1e-12

    def test_too_many_players(self):
        predict = _raw_linear_predict(np.zeros((2, 3, 3)))
        players = _players_chain(9)
        with pytest.raises(TooLarge):
            shapley_exact(predict, np.zeros((2, 3, 3)), 1, np.zeros((2, 3, 3)), players)


class TestShapleySample:
    def test_per_permutation_efficiency(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 3, 3))
        predict = _linear_predict(w)
        image = rng.normal(size=(2, 3, 3))
        background = rng.normal(size=(2, 3, 3))
        players = [(ch, r, c) for ch in range(2) for r in range(3) for c in range(3)]
        values = shapley_sample(predict, image, 1, background, players, M=7, seed=0)
        full = image[None]
        bg = background[None]
        gap = predict(full)[0, 1] - predict(bg)[0, 1]
        assert values.sum() == pytest.approx(gap, abs=1e-9)

    def test_per_permutation_efficiency_float32_predictor(self):
        # explain's predictor: a float32 copy of the CNN, scoring in float32
        cfg = ConvNetConfig(input_side=3, input_channels=2, classes=3, conv_layers=2,
                            filters=4, fc_sizes=(16, 8), seed=5)
        params = init_params(cfg).astype(np.float32)
        predict = lambda batch: predict_proba(params, batch)
        rng = np.random.default_rng(5)
        image = rng.normal(size=(2, 3, 3))
        background = rng.normal(size=(2, 3, 3))
        players = [(ch, r, c) for ch in range(2) for r in range(3) for c in range(3)]
        for class_idx in range(3):
            values = shapley_sample(predict, image, class_idx, background, players, M=7, seed=0)
            scores = predict(np.stack([image, background]))[:, class_idx]
            assert values.sum() == pytest.approx(scores[0] - scores[1], abs=1e-5)

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 3, 3))
        predict = _raw_linear_predict(w)
        image = rng.normal(size=(2, 3, 3))
        background = rng.normal(size=(2, 3, 3))
        players = [(ch, r, c) for ch in range(2) for r in range(3) for c in range(3)]
        values = shapley_sample(predict, image, 1, background, players, M=50, seed=1)
        # for a linear game every permutation gives the same marginal, so even
        # small M is exact
        w_chw = w  # weights indexed (channel, row, col) to match flatten order
        for val, (ch, r, c) in zip(values, players):
            expected = w_chw[ch, r, c] * (image[ch, r, c] - background[ch, r, c])
            assert val == pytest.approx(expected, abs=1e-9)

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(1, 2, 2))
        predict = _linear_predict(w)
        image = rng.normal(size=(1, 2, 2))
        background = rng.normal(size=(1, 2, 2))
        players = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        exact = shapley_exact(predict, image, 1, background, players)
        sampled = shapley_sample(predict, image, 1, background, players,
                                 M=4000, seed=2)
        assert np.allclose(sampled, exact, atol=0.02 * max(1e-3, np.abs(exact).max()))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(1, 2, 2))
        predict = _linear_predict(w)
        image = rng.normal(size=(1, 2, 2))
        background = np.zeros((1, 2, 2))
        players = [(0, 0, 0), (0, 1, 1)]
        a = shapley_sample(predict, image, 1, background, players, M=10, seed=9)
        b = shapley_sample(predict, image, 1, background, players, M=10, seed=9)
        assert np.array_equal(a, b)


def _loop_shapley_sample(predict, image, class_idx, background_mean, players, M, seed):
    """Reference: the estimator that copies out each coalition one player at a
    time, on (C, P, P) tensors."""
    players = list(players)
    rng = np.random.default_rng(seed)
    image = np.asarray(image, dtype=np.float64)
    background = np.asarray(background_mean, dtype=np.float64)
    values = np.zeros(len(players))
    for _ in range(M):
        order = rng.permutation(len(players))
        current = background.copy()
        tensors = [current.copy()]
        for pi in order:
            ch, r, c = players[pi]
            current[ch, r, c] = image[ch, r, c]
            tensors.append(current.copy())
        scores = predict(np.stack(tensors))[:, class_idx]
        values[order] += np.diff(scores)
    return values / M


def _recording(predict):
    """``predict`` that also keeps a copy of every batch it is given."""
    batches = []

    def wrapped(batch):
        batches.append(np.array(batch))
        return predict(batch)

    return wrapped, batches


class TestShapleySampleReference:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(12)
        for trial in range(60):
            C, P = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            n = 1 if trial % 4 == 0 else int(rng.integers(1, C * P * P + 1))
            cells = np.unravel_index(rng.choice(C * P * P, size=n, replace=False), (C, P, P))
            players = [tuple(int(v) for v in cell) for cell in zip(*cells)]
            w = rng.normal(size=(C, P, P))
            image = rng.normal(size=(C, P, P))
            if trial % 3 == 0:
                image = image.astype(np.float32)
            background = rng.normal(size=(C, P, P))
            yield w, image, background, players, int(rng.integers(1, 6)), int(rng.integers(2**32))

    def test_equals_loop_reference_exactly(self):
        for w, image, background, players, M, seed in self._cases():
            got_predict, got_batches = _recording(_linear_predict(w))
            ref_predict, ref_batches = _recording(_linear_predict(w))
            got = shapley_sample(got_predict, image, 1, background, players, M, seed)
            ref = _loop_shapley_sample(ref_predict, image, 1, background, players, M, seed)
            assert np.array_equal(got, ref)
            assert len(got_batches) == len(ref_batches) == M
            for a, b in zip(got_batches, ref_batches):
                assert a.shape == (len(players) + 1, *image.shape)
                assert np.array_equal(a, b)


def _image_set(tensors, labels):
    imgs = np.stack([t.astype(np.float32) for t in tensors])
    return ImageSet(node_ids=tuple(f"n{i}" for i in range(len(tensors))), tensors=imgs,
                    labels=np.asarray(labels), channel_names=("s", "f"))


class TestClassGlobal:
    def test_single_image_class_equals_local(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 2, 2))
        predict = _raw_linear_predict(w)
        tensors = [rng.normal(size=(2, 2, 2)) for _ in range(3)]
        images = _image_set(tensors, [0, 1, 0])
        players = np.array([(1, 0, 0), (1, 1, 1)])
        with pytest.warns(UserWarning):   # class 0 has no test samples here
            values, counts = class_global_importance(predict, images, np.array([1]), 2,
                                                     players, 16, 5)
        assert counts.tolist() == [0, 1]
        assert values.shape == (2, 2)
        assert values[0].tolist() == [0.0, 0.0]
        bg_mean = np.mean(images.tensors.astype(np.float64), axis=0)
        rng_check = np.random.default_rng(5)
        local = shapley_sample(predict, images.tensors[1], 1, bg_mean, players,
                               16, int(rng_check.integers(2**32)))
        for val, got in zip(local, values[1]):
            assert got == pytest.approx(val, abs=1e-12)

    def test_two_image_mean(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 2, 2))
        predict = _raw_linear_predict(w)
        tensors = [rng.normal(size=(2, 2, 2)) for _ in range(4)]
        images = _image_set(tensors, [0, 0, 1, 1])
        players = np.array([(1, 0, 1)])
        with pytest.warns(UserWarning):   # class 1 has no test samples here
            values, counts = class_global_importance(predict, images, np.array([0, 1]), 2,
                                                     players, 8, 3)
        assert counts.tolist() == [2, 0]
        assert values.shape == (2, 1)

    def test_empty_class_warns(self):
        rng = np.random.default_rng(2)
        predict = _raw_linear_predict(rng.normal(size=(2, 2, 2)))
        tensors = [rng.normal(size=(2, 2, 2)) for _ in range(2)]
        images = _image_set(tensors, [0, 1])
        with pytest.warns(UserWarning):
            class_global_importance(predict, images, np.array([0]), 2,
                                    np.array([(1, 0, 0)]), 4, 0)

    def test_bad_permutation_count_is_named(self):
        images = _image_set([np.zeros((2, 2, 2))] * 2, [0, 1])
        with pytest.raises(BadArgument, match="n_permutations must be >= 1"):
            class_global_importance(_raw_linear_predict(np.zeros((2, 2, 2))), images,
                                    np.array([0]), 2, np.array([(1, 0, 0)]), 0, 0)


class TestMapToFeatures:
    @staticmethod
    def _identity_layout(side):
        return np.array([(i // side, i % side) for i in range(side * side)])

    def test_identity_layout_reads_row_major(self):
        # every feature played in index order: players and rows are row-major
        fl = self._identity_layout(2)
        players = hvf_players([fl], [np.arange(4)])
        assert players.tolist() == [[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
        table = map_to_features(np.array([[1.0, 2.0, 3.0, 4.0]]), [np.arange(4)],
                                [["f0", "f1", "f2", "f3"]], ["classA"])
        assert table.features == ("f0", "f1", "f2", "f3")
        assert table.raw[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_cell_lookup(self):
        # the value of the player at cell (2, 3) is reported for feature 11
        fl = self._identity_layout(4)
        selected = np.random.default_rng(0).permutation(16)
        players = hvf_players([fl], [selected])
        values = np.zeros((1, 16))
        values[0, players.tolist().index([1, 2, 3])] = 7.5
        table = map_to_features(values, [selected], [[f"f{i}" for i in range(16)]], ["classA"])
        assert table.raw[table.features.index("f11"), 0] == 7.5
        assert np.count_nonzero(table.raw) == 1

    def test_rows_follow_modality_then_feature_index(self):
        # players in selection order: features 2, 0, 3 of modality a, then 1 of b
        values = np.array([[20.0, 0.0, 30.0, 1.0]])
        table = map_to_features(values, [np.array([2, 0, 3]), np.array([1])],
                                [["a0", "a1", "a2", "a3"], ["b0", "b1"]], ["x"], ["a", "b"])
        assert table.features == ("a0", "a2", "a3", "b1")
        assert table.modalities == ("a", "a", "a", "b")
        assert table.raw.tolist() == [[0.0], [20.0], [30.0], [1.0]]

    def test_raw_is_features_by_classes(self):
        values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        table = map_to_features(values, [np.array([0, 1, 2])], [["f0", "f1", "f2"]],
                                ["c0", "c1"])
        assert table.class_names == ("c0", "c1")
        assert table.raw.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]

    def test_normalization(self):
        values = np.array([[2.0, -4.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        table = map_to_features(values, [np.arange(4)], [["a", "b", "c", "d"]], ["x", "y"])
        assert table.normalized[:, 0].tolist() == pytest.approx([0.5, -1.0, 0.25, 0.0])
        # a class whose values are all 0 normalizes to 0
        assert table.normalized[:, 1].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_csv_round_numbers(self, tmp_path):
        table = map_to_features(np.array([[1.25]]), [np.array([0])], [["a", "b", "c", "d"]],
                                ["x"])
        path = tmp_path / "imp.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature,modality,class,shap_raw,shap_normalized"
        assert lines[1] == "a,modality0,x,1.25,1.0"


def _reference_players(f_layouts, feature_sets):
    """Reference: the player list as (channel, row, col) tuples."""
    players = []
    for ch, (cells, selected) in enumerate(zip(f_layouts, feature_sets), start=1):
        for r, c in cells[np.asarray(selected, dtype=np.int64)].tolist():
            players.append((ch, r, c))
    return players


def _reference_class_global(predict, images, test_indices, n_classes, players, M, seed):
    """Reference: per-sample values scattered into a (classes, C, P, P) map."""
    values = np.zeros((n_classes, *images.tensors.shape[1:]))
    counts = np.zeros(n_classes, dtype=np.int64)
    background_idx = np.arange(len(images.node_ids))
    background_mean = images.tensors[background_idx].astype(np.float64).mean(axis=0)
    ch, r, c = np.asarray(players, dtype=np.int64).reshape(-1, 3).T
    rng = np.random.default_rng(seed)
    for idx in test_indices:
        cls = int(images.labels[idx])
        local = shapley_sample(predict, images.tensors[idx], cls, background_mean, players, M,
                               int(rng.integers(2**32)))
        np.add.at(values, (cls, ch, r, c), local)
        counts[cls] += 1
    for cls in range(n_classes):
        if counts[cls]:
            values[cls] /= counts[cls]
    return values


def _reference_rows(values, players, f_layouts, names_per_modality, class_names,
                    modality_names):
    """Reference: played cells gathered back one at a time into per-row dicts."""
    played = set(players)
    rows = []
    for ch, (cells, names, mname) in enumerate(
        zip(f_layouts, names_per_modality, modality_names), start=1
    ):
        for j, (r, c) in enumerate(cells.tolist()):
            if (ch, r, c) not in played:
                continue
            for cls, cname in enumerate(class_names):
                rows.append({"feature": names[j], "modality": mname, "class": cname,
                             "raw": float(values[cls, ch, r, c])})
    for cname in class_names:
        cls_rows = [r for r in rows if r["class"] == cname]
        peak = max((abs(r["raw"]) for r in cls_rows), default=0.0)
        for r in cls_rows:
            r["normalized"] = r["raw"] / peak if peak > 0 else 0.0
    return rows


def _softmax_predict(W):
    """Softmax over a linear map of the flattened image, one column per class."""

    def predict(batch):
        z = batch.reshape(batch.shape[0], -1) @ W
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return predict


class TestScatterGatherReference:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(21)
        for trial in range(24):
            ks = [int(rng.integers(3, 26)), int(rng.integers(2, 17))]
            side = max(math.isqrt(k - 1) + 1 for k in ks)
            f_layouts = [np.stack(np.divmod(rng.choice(side * side, size=k, replace=False),
                                            side), axis=1) for k in ks]
            n_hvf = int(rng.integers(1, min(ks)))                 # below every k
            feature_sets = [select_hvf(rng.gamma(2.0, size=(30, k)), n_hvf) for k in ks]
            names = [[f"{m}{j:02d}" for j in range(k)] for m, k in zip("fg", ks)]
            n_classes, n = 3, 12
            labels = rng.integers(0, n_classes, size=n)
            empty = trial % n_classes                             # a class with no test image
            test = np.array([i for i in range(n) if labels[i] != empty][: int(rng.integers(1, 8))])
            tensors = [rng.normal(size=(3, side, side)) for _ in range(n)]
            images = _image_set(tensors, labels)
            yield (images, test, f_layouts, feature_sets, names,
                   int(rng.integers(1, 4)), int(rng.integers(2**32)))

    def test_table_equals_scatter_gather_reference_exactly(self):
        class_names = ["c0", "c1", "c2"]
        modality_names = ["features", "extra"]
        for images, test, f_layouts, feature_sets, names, M, seed in self._cases():
            rng = np.random.default_rng(seed)
            predict = _softmax_predict(rng.normal(size=(images.tensors[0].size, 3)))
            ref_players = _reference_players(f_layouts, feature_sets)
            with pytest.warns(UserWarning):
                ref_values = _reference_class_global(predict, images, test, 3, ref_players,
                                                     M, seed)
                players = hvf_players(f_layouts, feature_sets)
                values, _ = class_global_importance(predict, images, test, 3, players, M, seed)
            ref = _reference_rows(ref_values, ref_players, f_layouts, names, class_names,
                                  modality_names)
            table = map_to_features(values, feature_sets, names, class_names, modality_names)
            got = [
                {"feature": f, "modality": m, "class": cname, "raw": raw, "normalized": norm}
                for f, m, raws, norms in zip(table.features, table.modalities,
                                             table.raw.tolist(), table.normalized.tolist())
                for cname, raw, norm in zip(table.class_names, raws, norms)
            ]
            assert got == ref
            assert players.tolist() == [list(p) for p in ref_players]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestWorkers:
    def test_same_values_for_one_and_two_workers(self, monkeypatch, tmp_path):
        parent = os.getpid()
        pids = tmp_path / "pids"
        for images, test, f_layouts, feature_sets, _, M, seed in \
                TestScatterGatherReference._cases():
            softmax = _softmax_predict(np.random.default_rng(seed).normal(
                size=(images.tensors[0].size, 3)))

            def predict(batch):
                with open(pids, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                return softmax(batch)

            players = hvf_players(f_layouts, feature_sets)
            results = []
            for n in (1, 2):
                _cpus(monkeypatch, n)
                with pytest.warns(UserWarning), _deadline(30):
                    results.append(class_global_importance(predict, images, test, 3, players,
                                                           M, seed))
                assert multiprocessing.active_children() == []
            (one, one_counts), (two, two_counts) = results
            assert np.array_equal(one, two)
            assert np.array_equal(one_counts, two_counts)
        assert {int(p) for p in pids.read_text().split()} - {parent}   # workers ran

    @pytest.mark.parametrize("cpus, n_jobs", [(2, 2), (2, 37), (3, 50)])
    def test_results_keep_job_order(self, monkeypatch, cpus, n_jobs):
        _cpus(monkeypatch, cpus)
        with _deadline(30):
            got = attribution._map_jobs(lambda i: (i, os.getpid()), [(i,) for i in range(n_jobs)])
        assert [i for i, _ in got] == list(range(n_jobs))
        assert os.getpid() not in {pid for _, pid in got}
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_an_error(self, monkeypatch):
        parent = os.getpid()
        linear = _raw_linear_predict(np.ones((2, 2, 2)))

        def predict(batch):
            if os.getpid() != parent:
                os._exit(3)
            return linear(batch)

        images = _image_set([np.full((2, 2, 2), float(i)) for i in range(4)], [0, 1, 0, 1])
        _cpus(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool), _deadline(30):
            class_global_importance(predict, images, np.arange(4), 2,
                                    np.array([(1, 0, 0)]), 2, 0)
        assert multiprocessing.active_children() == []

    def test_workers_run_one_blas_thread(self, monkeypatch):
        def blas_threads(*_):
            return [get() for get in attribution._openblas("get_num_threads", [], ctypes.c_int)]

        if not blas_threads():
            pytest.skip("no OpenBLAS library found in this process")
        _cpus(monkeypatch, 2)
        with _deadline(30):
            per_worker = attribution._map_jobs(blas_threads, [(0,), (1,)])
        assert per_worker == [[1] * len(blas_threads())] * 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [ShapeMismatch("batch of 3 images, expected 2"),
                                       MalformedLine("edges.tsv", 4, "expected 3 fields")],
                             ids=lambda e: type(e).__name__)
    def test_worker_error_reaches_the_caller(self, monkeypatch, error):
        parent = os.getpid()
        linear = _raw_linear_predict(np.ones((2, 2, 2)))

        def predict(batch):
            if os.getpid() != parent:
                raise error
            return linear(batch)

        rng = np.random.default_rng(4)
        images = _image_set([rng.normal(size=(2, 2, 2)) for _ in range(4)], [0, 1, 0, 1])
        _cpus(monkeypatch, 2)
        with pytest.raises(type(error)) as caught, _deadline(30):
            class_global_importance(predict, images, np.arange(4), 2,
                                    np.array([(1, 0, 0), (0, 1, 1)]), 3, 0)
        assert str(caught.value) == str(error)
        assert multiprocessing.active_children() == []


class TestClusterProfiles:
    def test_two_items(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        dend = cluster_profiles(X)
        assert len(dend.merges) == 1
        left, right, height, size = dend.merges[0]
        assert {left, right} == {0, 1}
        assert height == pytest.approx(5.0, abs=1e-12)
        assert size == 2

    def test_collinear_average_linkage(self):
        X = np.array([[0.0], [1.0], [10.0]])
        dend = cluster_profiles(X)
        assert dend.merges[0][:2] == (0, 1)
        assert dend.merges[0][2] == pytest.approx(1.0, abs=1e-12)
        assert dend.merges[1][2] == pytest.approx(9.5, abs=1e-12)

    def test_duplicate_merges_at_zero(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]])
        dend = cluster_profiles(X)
        assert dend.merges[0][2] == 0.0

    def test_newick_output(self):
        X = np.array([[0.0], [1.0], [10.0]])
        dend = cluster_profiles(X, labels=["a", "b", "c"])
        text = dendrogram_to_newick(dend)
        # second merge lists the leaf c first, so it is the left child
        assert text == "(c:9.5,(a:1,b:1):8.5);"


class TestPlayers:
    def test_hvf_players_channels(self):
        fl = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        players = hvf_players([fl, fl], [np.array([0, 3]), np.array([2])])
        assert players.dtype == np.int64
        assert players.tolist() == [[1, 0, 0], [1, 1, 1], [2, 1, 0]]

    def test_selection_order_is_kept(self):
        fl = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        players = hvf_players([fl], [np.array([3, 0, 2])])
        assert players.tolist() == [[1, 1, 1], [1, 0, 0], [1, 1, 0]]
