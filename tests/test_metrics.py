import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2i.errors import SingleCluster
from g2i.metrics import (
    ContingencyTable,
    ari,
    homogeneity_completeness_v,
    nmi,
    score_embedding,
    silhouette,
)


def _ari_pair_counting(u, v):
    """Independent oracle: count agreeing/disagreeing pairs directly."""
    n = len(u)
    a = b = c = d = 0
    for i, j in itertools.combinations(range(n), 2):
        same_u = u[i] == u[j]
        same_v = v[i] == v[j]
        if same_u and same_v:
            a += 1
        elif same_u:
            c += 1
        elif same_v:
            d += 1
        else:
            b += 1
    total = a + b + c + d
    expected = (a + c) * (a + d) / total
    maximum = ((a + c) + (a + d)) / 2.0
    if maximum == expected:
        return 1.0 if c == d == 0 else 0.0
    return (a - expected) / (maximum - expected)


def _entropy_oracle(labels):
    n = len(labels)
    h = 0.0
    for c in set(labels):
        p = labels.count(c) / n
        h -= p * math.log(p)
    return h


def _nmi_oracle(u, v):
    n = len(u)
    hu, hv = _entropy_oracle(list(u)), _entropy_oracle(list(v))
    if hu == 0.0 and hv == 0.0:
        return 1.0
    if hu == 0.0 or hv == 0.0:
        return 0.0
    I = 0.0
    for cu in set(u):
        for cv in set(v):
            nij = sum(1 for x, y in zip(u, v) if x == cu and y == cv)
            if nij:
                pu = sum(1 for x in u if x == cu) / n
                pv = sum(1 for y in v if y == cv) / n
                I += (nij / n) * math.log((nij / n) / (pu * pv))
    return 2.0 * I / (hu + hv)


class TestARI:
    def test_identical_partitions(self):
        u = [0, 0, 1, 1, 2]
        assert ari(ContingencyTable.from_labels(u, u)) == 1.0

    def test_degenerate_single_cluster(self):
        t = ContingencyTable.from_labels([0, 0, 0], [0, 0, 0])
        assert ari(t) == 1.0
        t2 = ContingencyTable.from_labels([0, 0, 0], [0, 1, 2])
        assert ari(t2) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 3, 12)
        v = rng.integers(0, 3, 12)
        assert ari(ContingencyTable.from_labels(u, v)) == ari(ContingencyTable.from_labels(v, u))

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            u = rng.integers(0, 3, n).tolist()
            v = rng.integers(0, 3, n).tolist()
            got = ari(ContingencyTable.from_labels(u, v))
            assert got == pytest.approx(_ari_pair_counting(u, v), abs=1e-12)

    def test_relabeling_invariance(self):
        u = [0, 0, 1, 1, 2, 2]
        v = [1, 1, 0, 0, 5, 5]
        assert ari(ContingencyTable.from_labels(u, v)) == 1.0


class TestNMI:
    def test_identical_nontrivial(self):
        u = [0, 0, 1, 1]
        assert nmi(ContingencyTable.from_labels(u, u)) == pytest.approx(1.0, abs=1e-12)

    def test_independent_product_table(self):
        # product contingency table: I = 0
        u = [0, 0, 1, 1]
        v = [0, 1, 0, 1]
        assert nmi(ContingencyTable.from_labels(u, v)) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_conventions(self):
        assert nmi(ContingencyTable.from_labels([0, 0], [0, 0])) == 1.0
        assert nmi(ContingencyTable.from_labels([0, 0], [0, 1])) == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            u = tuple(rng.integers(0, 3, n).tolist())
            v = tuple(rng.integers(0, 3, n).tolist())
            got = nmi(ContingencyTable.from_labels(u, v))
            assert got == pytest.approx(_nmi_oracle(u, v), abs=1e-12)


class TestHCV:
    def test_identical(self):
        t = ContingencyTable.from_labels([0, 1, 1, 2], [0, 1, 1, 2])
        assert homogeneity_completeness_v(t) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_refinement(self):
        truth = [0, 0, 0, 0, 1, 1, 1, 1]
        pred = [0, 0, 1, 1, 2, 2, 3, 3]
        h, c, v = homogeneity_completeness_v(ContingencyTable.from_labels(truth, pred))
        assert h == pytest.approx(1.0, abs=1e-12)
        assert c < 1.0
        assert v == pytest.approx(2 * h * c / (h + c), abs=1e-12)

    def test_hand_contingency(self):
        # truth = [0,0,0,1,1,2], pred = [0,0,1,1,1,1]
        truth = [0, 0, 0, 1, 1, 2]
        pred = [0, 0, 1, 1, 1, 1]
        h, c, v = homogeneity_completeness_v(ContingencyTable.from_labels(truth, pred))
        n = 6
        hu = _entropy_oracle(truth)
        hv = _entropy_oracle(pred)
        h_u_given_v = -(2 / 6 * math.log(2 / 2) + 1 / 6 * math.log(1 / 4)
                        + 2 / 6 * math.log(2 / 4) + 1 / 6 * math.log(1 / 4))
        h_v_given_u = -(2 / 6 * math.log(2 / 3) + 1 / 6 * math.log(1 / 3)
                        + 2 / 6 * math.log(2 / 2) + 1 / 6 * math.log(1 / 1))
        assert h == pytest.approx(1 - h_u_given_v / hu, abs=1e-12)
        assert c == pytest.approx(1 - h_v_given_u / hv, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_ranges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        u = rng.integers(0, 4, n)
        v = rng.integers(0, 4, n)
        t = ContingencyTable.from_labels(u, v)
        h, c, v_ = homogeneity_completeness_v(t)
        score_n = nmi(t)
        for val in (h, c, v_, score_n):
            assert -1e-12 <= val <= 1.0 + 1e-12


def _cube_silhouette(points, assignment):
    """Reference: silhouette over the full (n, n, d) difference cube."""
    X = np.asarray(points, dtype=np.float64)
    labels = np.asarray(assignment)
    clusters = np.unique(labels)
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own == 1:
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(dist[i, labels == c].mean() for c in clusters if c != labels[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


class TestSilhouette:
    def test_two_tight_far_clusters(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(0, 0.01, (20, 2)), rng.normal(10, 0.01, (20, 2))])
        labels = np.repeat([0, 1], 20)
        assert silhouette(X, labels) >= 0.99

    def test_null_distribution_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, 200)
        assert abs(silhouette(X, labels)) < 0.1

    def test_hand_case(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        # point 0: a=1, b=(10+11)/2=10.5 -> 9.5/10.5; symmetric for the rest
        expected = (9.5 / 10.5 + 8.5 / 9.5 + 8.5 / 9.5 + 9.5 / 10.5) / 4
        assert silhouette(X, labels) == pytest.approx(expected, abs=1e-12)

    def test_singleton_contributes_zero(self):
        X = np.array([[0.0], [1.0], [10.0]])
        labels = np.array([0, 0, 1])
        s0 = (10.0 - 1.0) / 10.0
        s1 = (9.0 - 1.0) / 9.0
        assert silhouette(X, labels) == pytest.approx((s0 + s1 + 0.0) / 3, abs=1e-12)

    def test_coincident_points_score_zero(self):
        # all four points coincide, so every a and b is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert silhouette(np.zeros((4, 2)), np.array([0, 0, 1, 1])) == 0.0
            X = np.array([[0.0], [0.0], [0.0], [0.0], [6.0], [8.0]])
            got = silhouette(X, np.array([0, 0, 1, 1, 2, 2]))
        # points 0-3 have a = b = 0; point 4: a=2, b=6; point 5: a=2, b=8
        assert got == pytest.approx((4.0 / 6.0 + 6.0 / 8.0) / 6, abs=1e-12)

    def test_equals_cube_reference_exactly(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            X = rng.normal(size=(n, d))
            if trial % 2:
                X = np.round(X * 2)      # tie-heavy lattice points
            labels = rng.integers(0, int(rng.integers(2, 6)), n)
            labels[0] = labels.max() + 1          # a singleton cluster
            if trial % 5 == 0:
                labels[1:] = 0                    # every point but one in one cluster
            with np.errstate(invalid="ignore"):
                ref = _cube_silhouette(X, labels)
            got = silhouette(X, labels)
            if math.isnan(ref):
                # the reference's 0/0 at a = b = 0; see test_coincident_points_score_zero
                assert math.isfinite(got)
                continue
            assert got == ref

    def test_single_cluster_raises(self):
        with pytest.raises(SingleCluster):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))


class TestScoreEmbedding:
    def test_separable_embedding_scores_high(self):
        rng = np.random.default_rng(3)
        X = np.concatenate([rng.normal(0, 0.1, (30, 3)), rng.normal(5, 0.1, (30, 3))])
        labels = np.repeat([0, 1], 30)
        scores = score_embedding(X, labels, seed=0)
        assert scores.ari == pytest.approx(1.0, abs=1e-12)
        assert scores.nmi == pytest.approx(1.0, abs=1e-12)
        assert scores.silhouette > 0.9

    def test_csv_output(self, tmp_path):
        from g2i.metrics import ClusteringScores, write_scores

        # the published prostate-cohort ARI for this method is 0.669; used here
        # as a formatting fixture only
        scores = ClusteringScores(ari=0.669, nmi=0.5, homogeneity=0.5,
                                  completeness=0.5, v_measure=0.5, silhouette=0.2)
        path = tmp_path / "scores.csv"
        write_scores({"g2i": scores}, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,ari,nmi,homogeneity,completeness,v_measure,silhouette"
        assert lines[1].startswith("g2i,0.669,")
