import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2i.community import (
    association_matrix,
    community_count,
    fit_communities,
    kmeans,
    kmeanspp_init,
)
from g2i.errors import BadArgument, DegenerateData
from g2i.graph import generate_sbm


def test_community_count_values():
    assert community_count(1) == 1
    assert community_count(1089) == 33
    assert community_count(5000) == 71
    assert community_count(64) == 8
    assert community_count(65) == 9


def test_community_count_invalid():
    with pytest.raises(ValueError):
        community_count(0)


class TestInit:
    def test_p1_is_some_row(self):
        rows = np.arange(12.0).reshape(4, 3)
        c = kmeanspp_init(rows, 1, seed=0)
        assert any(np.array_equal(c[0], r) for r in rows)

    def test_only_nonzero_candidate_wins(self):
        rows = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        # whichever duplicate of (0,0) goes first, the only point at positive
        # distance is (10,0), so the seed set is always {(0,0), (10,0)}
        for seed in range(30):
            c = kmeanspp_init(rows, 2, seed=seed)
            got = {tuple(v) for v in c}
            assert got == {(0.0, 0.0), (10.0, 0.0)}

    def test_two_blobs_both_seeded(self):
        rng = np.random.default_rng(0)
        rows = np.concatenate([
            rng.normal(0.0, 0.1, (25, 2)),
            rng.normal(50.0, 0.1, (25, 2)),
        ])
        hits = 0
        for seed in range(1000):
            c = kmeanspp_init(rows, 2, seed=seed)
            if (c[:, 0] < 25).sum() == 1:
                hits += 1
        assert hits >= 990

    def test_degenerate_rows(self):
        with pytest.raises(DegenerateData):
            kmeanspp_init(np.ones((5, 2)), 2, seed=0)

    def test_deterministic(self):
        rows = np.random.default_rng(1).normal(size=(20, 4))
        a = kmeanspp_init(rows, 3, seed=42)
        b = kmeanspp_init(rows, 3, seed=42)
        assert np.array_equal(a, b)


class TestKmeans:
    def test_two_cliques_recovered(self):
        g = generate_sbm((10, 10), 1.0, 0.0, 4, 0.0, seed=0)
        model = fit_communities(g, 2, seed=1)
        a = model.assignment
        assert len(set(a[:10])) == 1 and len(set(a[10:])) == 1 and a[0] != a[10]

    def test_p_equals_n(self):
        rows = np.arange(10.0).reshape(5, 2)
        _, assignment, history = kmeans(rows, 5, seed=0)
        assert len(set(assignment)) == 5
        assert history[-1] == 0.0

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            rows = rng.normal(size=(40, 6))
            _, _, history = kmeans(rows, 4, seed=seed)
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-12

    def test_assignment_optimal_at_convergence(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(30, 5))
        centroids, assignment, _ = kmeans(rows, 3, seed=2)
        d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        own = np.take_along_axis(d2, assignment[:, None], axis=1)[:, 0]
        assert np.all(own <= d2.min(axis=1) + 1e-12)

    def test_permutation_equivariance(self):
        # same starting centroids on permuted rows must give the same
        # multiset of member sets
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(24, 24))
        init = kmeanspp_init(rows, 3, seed=7)
        _, a, _ = kmeans(rows, 3, seed=7, init_centroids=init)
        pi = rng.permutation(24)
        _, a_perm, _ = kmeans(rows[pi], 3, seed=7, init_centroids=init)
        original = {frozenset(np.flatnonzero(a == c).tolist()) for c in range(3)}
        mapped = {frozenset(pi[np.flatnonzero(a_perm == c)].tolist()) for c in range(3)}
        assert original == mapped

    @pytest.mark.parametrize("P, max_iter, name", [
        (0, 300, "P must be >= 1"),
        (-1, 300, "P must be >= 1"),
        (2, 0, "max_iter must be >= 1"),
    ])
    def test_bad_setting_is_named(self, P, max_iter, name):
        rows = np.arange(10.0).reshape(5, 2)
        with pytest.raises(BadArgument, match=name):
            kmeans(rows, P, seed=0, max_iter=max_iter)


class TestAssociation:
    def _model(self, centroids):
        from g2i.community import CommunityModel

        centroids = np.asarray(centroids, dtype=np.float64)
        return CommunityModel(
            P=centroids.shape[0], centroids=centroids,
            assignment=np.zeros(centroids.shape[0], dtype=np.int64),
            inertia_history=(), seed=0,
        )

    def test_hand_example(self):
        assoc = association_matrix(self._model([[0.0, 0.0], [3.0, 4.0]]))
        assert np.allclose(assoc.raw_distances, [[0, 5], [5, 0]])
        assert assoc.mu == pytest.approx(2.5)
        assert assoc.sigma == pytest.approx(2.5)
        assert np.allclose(assoc.values, [[-1, 1], [1, -1]])

    def test_p1_degenerate(self):
        assoc = association_matrix(self._model([[1.0, 2.0]]))
        assert assoc.sigma == 0.0
        assert np.array_equal(assoc.values, [[0.0]])

    def test_identical_centroids(self):
        assoc = association_matrix(self._model(np.ones((4, 3))))
        assert np.all(assoc.values == 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_zscore_contract(self, seed):
        rng = np.random.default_rng(seed)
        P = int(rng.integers(2, 7))
        assoc = association_matrix(self._model(rng.normal(size=(P, 4))))
        assert np.allclose(assoc.values, assoc.values.T, atol=1e-12)
        assert np.all(np.diag(assoc.raw_distances) == 0.0)
        if assoc.sigma > 0:
            assert abs(assoc.values.mean()) <= 1e-9
            assert abs(assoc.values.std() - 1.0) <= 1e-9
            assert abs(assoc.values.sum()) <= 1e-9 * P * P
