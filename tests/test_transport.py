import numpy as np
import pytest

from g2i import transport
from g2i.errors import DimensionMismatch, GridTooSmall, NonConvergence, TooLarge
from g2i.imaging import build_feature_layout
from g2i.transport import (
    TransportPlan,
    _lexmin_max_assignment,
    _perm_objective,
    _plan_permutation,
    _swap_deltas,
    _two_opt,
    brute_force_gw,
    grid_cost,
    gw_objective,
    pad_to_square,
    resolve_assignment,
    sinkhorn,
    solve_gw,
)


def _uniform_plan(m):
    p = np.full(m, 1.0 / m)
    return TransportPlan(matrix=np.outer(p, p), objective=0.0, converged=True)


def _rand_sym(rng, m, scale=1.0):
    A = rng.random((m, m)) * scale
    C = (A + A.T) / 2.0
    np.fill_diagonal(C, 0.0)
    return C


class TestGrid:
    def test_square_cost_formula(self):
        cost = grid_cost(3)
        assert cost.shape == (9, 9)
        # cells are row-major: cell 1 = (0,1), cell 5 = (1,2)
        assert cost[1, 5] == (0 - 1) ** 2 + (1 - 2) ** 2
        assert np.array_equal(cost, cost.T)
        assert np.all(np.diag(cost) == 0)


class TestObjective:
    def test_perfect_alignment(self):
        cost = grid_cost(2)
        T = np.eye(4) / 4.0
        assert gw_objective(cost, cost, T) == 0.0

    def test_hand_expansion(self):
        C1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        C2 = np.array([[0.0, 4.0], [4.0, 0.0]])
        T = np.eye(2) / 2.0
        assert gw_objective(C1, C2, T) == pytest.approx(4.5, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(0)
        C1, C2 = _rand_sym(rng, 4), _rand_sym(rng, 4)
        T = _uniform_plan(4).matrix
        assert gw_objective(C1, C2, T) == pytest.approx(gw_objective(C2, C1, T), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gw_objective(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))


class TestBruteForce:
    def test_m1(self):
        perm, obj = brute_force_gw(np.zeros((1, 1)), np.zeros((1, 1)))
        assert list(perm) == [0]
        assert obj == 0.0

    def test_self_alignment_zero(self):
        cost = grid_cost(2)
        _, obj = brute_force_gw(cost, cost)
        assert obj == pytest.approx(0.0, abs=1e-15)

    def test_line_order_preserved(self):
        C_item = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        # 1x3 line template: squared distances 0,1,4
        C_grid = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        perm, obj = brute_force_gw(C_item, C_grid)
        assert obj == pytest.approx(0.0, abs=1e-15)
        assert list(perm) in ([0, 1, 2], [2, 1, 0])

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_gw(np.zeros((9, 9)), np.zeros((9, 9)))


class TestSolve:
    def test_identity_fixed_point(self):
        cost = grid_cost(2)
        plan = solve_gw(cost, cost, seed=0)
        assert plan.objective <= 1e-12
        layout = resolve_assignment(plan, grid_side=2)
        assert layout.dtype == np.int64
        assert layout.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            m = int(rng.integers(2, 6))
            C_item = _rand_sym(rng, m)
            C_grid = _rand_sym(rng, m)
            plan = solve_gw(C_item, C_grid, seed=trial)
            _, best = brute_force_gw(C_item, C_grid)
            assert abs(plan.objective - best) <= 1e-9

    def test_marginal_feasibility(self):
        rng = np.random.default_rng(2)
        C_item = _rand_sym(rng, 5)
        C_grid = _rand_sym(rng, 5)
        plan = solve_gw(C_item, C_grid, seed=0)
        m = 5
        assert np.max(np.abs(plan.matrix.sum(axis=1) - 1.0 / m)) <= 1e-6
        assert np.max(np.abs(plan.matrix.sum(axis=0) - 1.0 / m)) <= 1e-6
        assert np.all(plan.matrix >= 0)

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(4)
        C_item = _rand_sym(rng, 4)
        C_grid = _rand_sym(rng, 4)
        base = solve_gw(C_item, C_grid, seed=3)
        pi = rng.permutation(4)
        permuted = solve_gw(C_item[np.ix_(pi, pi)], C_grid, seed=3)
        assert permuted.objective == pytest.approx(base.objective, abs=1e-9)

    def test_entropic_smoothing(self):
        rng = np.random.default_rng(6)
        C_item = _rand_sym(rng, 4)
        C_grid = _rand_sym(rng, 4)
        exact = solve_gw(C_item, C_grid, epsilon=0.0, seed=0)
        soft = solve_gw(C_item, C_grid, epsilon=0.1, seed=0)
        assert np.max(np.abs(soft.matrix.sum(axis=1) - 0.25)) <= 1e-6
        assert np.max(np.abs(soft.matrix.sum(axis=0) - 0.25)) <= 1e-6

        def entropy(T):
            T = T[T > 0]
            return float(-(T * np.log(T)).sum())

        assert entropy(soft.matrix) > entropy(exact.matrix)


def _reference_two_opt(C1, C2, perm):
    """Pairwise-exchange descent that recomputes the objective for every swap."""
    perm = np.array(perm, dtype=np.int64)
    obj = _perm_objective(C1, C2, perm)
    m = len(perm)
    improved = True
    while improved:
        improved = False
        for i in range(m):
            for j in range(i + 1, m):
                perm[i], perm[j] = perm[j], perm[i]
                cand = _perm_objective(C1, C2, perm)
                if cand < obj - 1e-15:
                    obj = cand
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
    return perm, obj


class TestTwoOpt:
    def test_swap_deltas_match_recomputed_objective(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            m = int(rng.integers(2, 12))
            C1 = rng.random((m, m)) * 3.0       # asymmetric, nonzero diagonal
            C2 = rng.random((m, m))
            perm = rng.permutation(m)
            B = C2[np.ix_(perm, perm)]
            X, Y = np.hstack([C1, C1.T]), np.hstack([B, B.T])
            s = np.einsum("ab,ab->a", X, Y)
            base = _perm_objective(C1, C2, perm)
            for i in range(m - 1):
                deltas = _swap_deltas(X, Y, s, i, i + 1)
                for j in range(i + 1, m):
                    swapped = perm.copy()
                    swapped[[i, j]] = swapped[[j, i]]
                    expected = _perm_objective(C1, C2, swapped) - base
                    assert deltas[j - i - 1] == pytest.approx(expected, abs=1e-12)

    def test_matches_full_recompute(self):
        rng = np.random.default_rng(32)
        for trial in range(240):
            kind = trial % 4
            m = int(rng.integers(1, 30))
            g = int(np.ceil(np.sqrt(m)))
            C1 = _rand_sym(rng, m)
            C2 = grid_cost(g)
            if kind == 1:       # rounded item costs: many exact ties
                C1 = np.round(C1 * 2.0) / 2.0
            elif kind == 2:     # rounded random lattice costs
                C2 = np.round(_rand_sym(rng, g * g, scale=3.0))
            elif kind == 3:     # no symmetry to lean on
                C1 = rng.random((m, m))
                C2 = rng.random((g * g, g * g))
            padded = pad_to_square(C1, g)   # zero-distance dummies
            start = rng.permutation(g * g)
            want_perm, want_obj = _reference_two_opt(padded, C2, start)
            got_perm, got_obj = _two_opt(padded, C2, start)
            assert np.array_equal(got_perm, want_perm), trial
            assert got_obj == want_obj, trial


class TestSinkhorn:
    def test_zero_cost_gives_outer_product(self):
        p = np.full(3, 1.0 / 3)
        plan = sinkhorn(np.zeros((3, 3)), p, p, epsilon=1.0, max_iter=1000, tol=1e-10)
        assert np.allclose(plan, np.outer(p, p), atol=1e-9)

    def test_diagonal_attracts_mass(self):
        p = np.full(2, 0.5)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn(cost, p, p, epsilon=1.0, max_iter=1000, tol=1e-10)
        assert np.allclose(plan, plan.T, atol=1e-9)
        assert plan[0, 0] > plan[0, 1]

    def test_residuals(self):
        rng = np.random.default_rng(9)
        cost = rng.random((3, 3))
        p = np.full(3, 1.0 / 3)
        plan = sinkhorn(cost, p, p, epsilon=0.5, max_iter=10000, tol=1e-9)
        assert np.max(np.abs(plan.sum(axis=1) - p)) <= 1e-8
        assert np.max(np.abs(plan.sum(axis=0) - p)) <= 1e-8

    def test_nonconvergence(self):
        rng = np.random.default_rng(1)
        cost = rng.random((4, 4))
        p = np.full(4, 0.25)
        with pytest.raises(NonConvergence):
            sinkhorn(cost, p, p, epsilon=0.01, max_iter=2, tol=1e-14)


class TestResolve:
    def test_identity(self):
        layout = resolve_assignment(_plan(np.eye(3) / 3.0), grid_side=3)
        assert _perm(layout, 3) == [0, 1, 2]

    def test_antidiagonal_swap(self):
        T = np.array([[0.1, 0.4], [0.4, 0.1]])
        layout = resolve_assignment(_plan(T), grid_side=2)
        assert _perm(layout, 2) == [1, 0]

    def test_matches_brute_force(self):
        import itertools

        rng = np.random.default_rng(12)
        for trial in range(10):
            T = rng.random((6, 6))
            T = T / T.sum()
            layout = resolve_assignment(_plan(T), grid_side=6)
            got = _perm(layout, 6)
            best = max(
                itertools.permutations(range(6)),
                key=lambda s: sum(T[i, s[i]] for i in range(6)),
            )
            best_mass = sum(T[i, best[i]] for i in range(6))
            got_mass = sum(T[i, got[i]] for i in range(6))
            assert got_mass == pytest.approx(best_mass, abs=1e-12)

    def test_tie_breaks_lexicographically(self):
        # all permutations tie; the identity is lexicographically smallest
        T = np.full((3, 3), 1.0 / 9)
        layout = resolve_assignment(_plan(T), grid_side=3)
        assert _perm(layout, 3) == [0, 1, 2]


class TestPermutationPlan:
    def test_matches_lexmin_on_permutation_plans(self):
        rng = np.random.default_rng(33)
        for trial in range(50):
            m = int(rng.integers(1, 8))
            M = np.zeros((m, m))
            M[np.arange(m), rng.permutation(m)] = rng.uniform(0.01, 1.0, m)
            got = _plan_permutation(M)
            assert got is not None
            assert np.array_equal(got, _lexmin_max_assignment(M))

    def test_defers_on_tied_plan(self):
        T = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert _plan_permutation(T) is None

    def test_defers_below_tie_tolerance(self):
        # mass 1e-12 on the swap of items 0 and 1 is a tie with the identity
        T = np.diag([0.0, 0.0, 0.5, 0.5])
        T[0, 1] = T[1, 0] = 1e-12
        assert _plan_permutation(T) is None
        assert _perm(resolve_assignment(_plan(T), grid_side=4), 4) == [0, 1, 2, 3]

    def test_exact_feature_layout_skips_lexmin(self, monkeypatch):
        def forbidden(M):
            raise AssertionError("lexmin search run on a permutation plan")

        monkeypatch.setattr(transport, "_lexmin_max_assignment", forbidden)
        F = np.random.default_rng(34).standard_normal((40, 121))
        layout = build_feature_layout(F, seed=7, epsilon=0.0, restarts=2)
        assert len(np.unique(layout, axis=0)) == 121


def _plan(T):
    return TransportPlan(matrix=T, objective=0.0, converged=True)


def _perm(layout, m):
    # grid_side was m in these tests, so cell index is row * m + col
    return [r * m + c for r, c in layout.tolist()][:m]


class TestPadding:
    def test_exact_fit(self):
        C = np.ones((4, 4)) - np.eye(4)
        padded = pad_to_square(C, 2)
        assert np.array_equal(padded, C)

    def test_pad_with_zeros(self):
        C = np.ones((3, 3)) - np.eye(3)
        padded = pad_to_square(C, 2)
        assert padded.shape == (4, 4)
        assert np.array_equal(padded[:3, :3], C)
        assert np.all(padded[3, :] == 0) and np.all(padded[:, 3] == 0)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            pad_to_square(np.zeros((5, 5)), 2)

    def test_real_items_mapped_injectively(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            m, g = 5, 3
            C = rng.random((m, m))
            C = (C + C.T) / 2.0
            np.fill_diagonal(C, 0.0)
            padded = pad_to_square(C, g)
            plan = solve_gw(padded, grid_cost(g), seed=trial, restarts=5)
            layout = resolve_assignment(plan, n_items=m, grid_side=g)
            assert layout.shape == (m, 2)
            assert len(np.unique(layout, axis=0)) == m
