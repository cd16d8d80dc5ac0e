"""Gromov-Wasserstein alignment of an item cost matrix with a 2D lattice.

The solver is a permutation-restricted Frank-Wolfe scheme: each step
linearizes the quartic GW objective, solves the inner linear problem (exact
assignment at epsilon=0, Sinkhorn scaling at epsilon>0) and accepts a
line-search step. A plan is resolved to a layout, an (n_items, 2) int64 array
holding each item's (row, col) lattice cell, by maximizing the coupled mass
with an exact linear sum assignment. Ties go to the lexicographically smallest
permutation of tight entries, whose reduced costs under that assignment's dual
potentials are within the tie tolerance; its mass may thus fall short of the
maximum by up to m tolerances.

The exact assignments are scipy's ``linear_sum_assignment``, taken from its
compiled extension alone (``_assignment_solver``): ``scipy.optimize`` imports
scipy.sparse, scipy.linalg and scipy.special, which would double the memory of
every g2i process.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import (
    BadArgument,
    DimensionMismatch,
    GridTooSmall,
    NumericalUnderflow,
    NonConvergence,
)

_MAX_OUTER = 1000       # outer Frank-Wolfe / mirror-descent steps per restart
_REL_TOL = 1e-9         # relative objective change that counts as converged
_TIE_SCALE = 1e-9       # reduced costs within this times max(1, max |M|) are tight


def _assignment_solver(optimize_dir):
    """``linear_sum_assignment`` of the extension module ``_lsap`` in scipy's
    ``optimize_dir``, loaded on its own as ``scipy.optimize._lsap``, so that
    ``scipy/optimize/__init__.py`` does not run; a later ``import
    scipy.optimize`` finds the module in ``sys.modules`` and exports the same
    function. Where ``optimize_dir`` holds no such file, scipy.optimize's."""
    name = "scipy.optimize._lsap"
    paths = (os.path.join(optimize_dir, "_lsap" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].linear_sum_assignment


linear_sum_assignment = _assignment_solver(os.path.join(os.path.dirname(scipy.__file__),
                                                        "optimize"))


def grid_cost(side):
    """(g*g, g*g) squared Euclidean distances between the cells of a g x g
    unit lattice, cells in row-major order. The coordinates are small
    integers, so every distance is exact."""
    rows, cols = (a.astype(np.float64) for a in np.divmod(np.arange(side * side), side))
    cost = np.square(np.subtract.outer(rows, rows))
    cost += np.square(np.subtract.outer(cols, cols))
    return cost


@dataclass(frozen=True)
class TransportPlan:
    matrix: np.ndarray
    objective: float
    converged: bool = True


def _check_pair(C_item, C_grid):
    C_item = np.asarray(C_item, dtype=np.float64)
    C_grid = np.asarray(C_grid, dtype=np.float64)
    if C_item.ndim != 2 or C_item.shape[0] != C_item.shape[1]:
        raise DimensionMismatch(f"item cost matrix is not square: {C_item.shape}")
    if C_grid.shape != C_item.shape:
        raise DimensionMismatch(f"cost shapes differ: {C_item.shape} vs {C_grid.shape}")
    return C_item, C_grid


def _linear_term(C1, C2, T):
    # L(T)[i,j] = sum_{k,l} (C1[i,k] - C2[j,l])^2 T[k,l], for symmetric C1, C2
    row = T.sum(axis=1)
    col = T.sum(axis=0)
    return (C1**2) @ row[:, None] + ((C2**2) @ col)[None, :] - 2.0 * C1 @ T @ C2


def sinkhorn(cost, p, q, epsilon, max_iter, tol):
    """Entropic-regularized plan diag(u) exp(-cost/epsilon) diag(v).

    Runs in the log domain (potentials f, g) so peaked kernels stay finite.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    cost = np.asarray(cost, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValueError("marginals must be strictly positive")
    log_p = np.log(p)
    log_q = np.log(q)
    f = np.zeros_like(p)
    g = np.zeros_like(q)
    for _ in range(max_iter):
        f = epsilon * (log_p - _logsumexp((g[None, :] - cost) / epsilon, axis=1))
        g = epsilon * (log_q - _logsumexp((f[:, None] - cost) / epsilon, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - cost) / epsilon)
        if not np.all(np.isfinite(plan)):
            raise NumericalUnderflow("kernel entries vanished; epsilon too small")
        err = max(
            np.abs(plan.sum(axis=1) - p).max(),
            np.abs(plan.sum(axis=0) - q).max(),
        )
        if err <= tol:
            return plan
    raise NonConvergence(f"sinkhorn did not reach tol={tol} in {max_iter} iterations")


def _logsumexp(x, axis):
    m = x.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.exp(x - m).sum(axis=axis))


def _perm_plan(perm, m):
    T = np.zeros((m, m))
    T[np.arange(m), perm] = 1.0 / m
    return T


def _perm_objective(C1, C2, perm):
    m = len(perm)
    C2p = C2[np.ix_(perm, perm)]
    return float(np.sum((C1 - C2p) ** 2)) / (m * m)


def _swap_deltas(X, Y, s, i, start):
    """Exact change of the permutation objective from swapping item i with
    each item j >= ``start``.

    ``X = [C1, C1.T]`` and ``Y = [B, B.T]`` side by side, with ``B =
    C2[perm][:, perm]``, and ``s`` the row sums of ``X * Y``. A swap exchanges
    rows and columns i and j of ``B``, so only the terms of ``sum(C1 * B)`` in
    those rows and columns change; ``sum(C1**2)`` and ``sum(B**2)`` do not.
    Row k of ``X`` and ``Y`` holds row and column k of ``C1`` and ``B``, so
    ``full[j] = sum((X[i] - X[j]) * (Y[i] - Y[j]))`` covers them, except that
    it miscounts the four entries where rows i, j meet columns i, j;
    ``meet_c1 * meet_b`` corrects exactly those.
    """
    m = X.shape[0]
    full = s[i] + s[start:] - X[start:] @ Y[i] - Y[start:] @ X[i]
    meet_c1 = X[i, start:m] + X[i, m + start:] - X[i, i] - np.diagonal(X)[start:]
    meet_b = Y[i, start:m] + Y[i, m + start:] - Y[i, i] - np.diagonal(Y)[start:]
    return 2.0 * (full - meet_c1 * meet_b) / (m * m)


def _two_opt(C1, C2, perm):
    """Pairwise-exchange descent on the permutation objective.

    Swaps are tried in (i, j) order, and one is kept when the recomputed
    objective falls by more than 1e-15. The exact swap delta decides most
    swaps without recomputing it: the delta's rounding error is far below
    ``band``, so a swap whose delta is at least ``band`` would fail that test
    and one whose delta is below ``-band`` would pass it. Only the swaps in
    between are recomputed. After a swap kept on its delta alone, ``obj`` is
    stale until the next recompute; the objective only falls meanwhile, so
    the stale value sets a band at least as wide as the current one.
    """
    perm = np.array(perm, dtype=np.int64)
    obj = _perm_objective(C1, C2, perm)
    stale = False
    m = len(perm)
    B = C2[np.ix_(perm, perm)]
    X = np.hstack([C1, C1.T])
    Y = np.hstack([B, B.T])
    s = np.einsum("ab,ab->a", X, Y)
    improved = True
    while improved:
        improved = False
        for i in range(m - 1):
            start = i + 1
            while start < m:
                band = 1e-9 * max(1.0, abs(obj))
                deltas = _swap_deltas(X, Y, s, i, start)
                first, start = start, m
                for j in first + np.flatnonzero(deltas < band):
                    if deltas[j - first] >= -band:
                        if stale:
                            obj, stale = _perm_objective(C1, C2, perm), False
                        perm[[i, j]] = perm[[j, i]]
                        cand = _perm_objective(C1, C2, perm)
                        if not cand < obj - 1e-15:
                            perm[[i, j]] = perm[[j, i]]
                            continue
                        obj = cand
                    else:
                        perm[[i, j]] = perm[[j, i]]
                        stale = True
                    improved = True
                    Y[[i, j]] = Y[[j, i]]
                    Y[:, [i, j, m + i, m + j]] = Y[:, [j, i, m + j, m + i]]
                    s = np.einsum("ab,ab->a", X, Y)
                    start = j + 1  # the rest of row i sees the new permutation
                    break
    if stale:
        obj = _perm_objective(C1, C2, perm)
    return perm, obj


def solve_gw(C_item, C_grid, epsilon=0.0, seed=0, restarts=20):
    """Minimize the GW distortion over plans with uniform marginals.

    Runs ``restarts`` seeded initializations (uniform plan plus random
    doubly-stochastic perturbations) and keeps the lowest-objective result.
    At epsilon=0 the returned plan is a permutation scaled by 1/m.
    """
    if not restarts >= 1:
        raise BadArgument(f"restarts must be at least 1, got {restarts}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise BadArgument(f"epsilon must be finite and >= 0, got {epsilon}")
    C1, C2 = _check_pair(C_item, C_grid)
    m = C1.shape[0]
    p = np.full(m, 1.0 / m)
    rng = np.random.default_rng(seed)

    best_obj = math.inf
    best_T = None
    converged_all = True

    def consider(perm):
        nonlocal best_obj, best_T
        cand = _perm_objective(C1, C2, perm)
        if cand < best_obj:
            best_obj = cand
            best_T = _perm_plan(np.asarray(perm), m)

    def entropic_value(T):
        pos = T[T > 0]
        return float(np.sum(_linear_term(C1, C2, T) * T) + epsilon * np.sum(pos * np.log(pos)))

    if epsilon == 0.0:
        consider(np.arange(m))
    for r in range(restarts):
        if r == 0:
            T = np.outer(p, p)
        else:
            alpha = rng.uniform(0.1, 1.0)
            perm = rng.permutation(m)
            T = (1.0 - alpha) * np.outer(p, p) + alpha * _perm_plan(perm, m)
        converged = False
        if epsilon == 0.0:
            obj = float(np.sum(_linear_term(C1, C2, T) * T))
            for _ in range(_MAX_OUTER):
                grad = 2.0 * _linear_term(C1, C2, T)
                _, cols = linear_sum_assignment(grad)
                D = _perm_plan(cols, m)
                consider(cols)  # every inner permutation is an exact candidate
                delta = D - T
                b = float(np.sum(grad * delta))
                if b >= -_REL_TOL * max(1.0, abs(obj)):
                    converged = True
                    break
                a = float(np.sum(_linear_term(C1, C2, delta) * delta))
                if a > 0:
                    t = min(1.0, max(0.0, -b / (2.0 * a)))
                else:
                    t = 1.0 if a + b < 0 else 0.0
                if t == 0.0:
                    converged = True
                    break
                T = T + t * delta
                new_obj = obj + b * t + a * t * t
                if abs(obj - new_obj) <= _REL_TOL * max(1.0, abs(obj)):
                    obj = new_obj
                    converged = True
                    break
                obj = new_obj
            _, cols = linear_sum_assignment(-T)
            refined, _ = _two_opt(C1, C2, cols)
            consider(refined)
        else:
            # mirror descent: Sinkhorn projection of the linearized cost,
            # accepted with a damped backtracking step on the entropic value
            value = entropic_value(T)
            for _ in range(_MAX_OUTER):
                grad = 2.0 * _linear_term(C1, C2, T)
                try:
                    D = sinkhorn(grad, p, p, epsilon, max_iter=50000, tol=1e-8)
                except (NumericalUnderflow, NonConvergence):
                    _, cols = linear_sum_assignment(grad)
                    D = _perm_plan(cols, m)
                accepted = False
                t = 1.0
                for _ in range(12):
                    cand = (1.0 - t) * T + t * D
                    cand_value = entropic_value(cand)
                    if cand_value < value - _REL_TOL * max(1.0, abs(value)):
                        T, value = cand, cand_value
                        accepted = True
                        break
                    t /= 2.0
                if not accepted:
                    converged = True
                    break
            obj = float(np.sum(_linear_term(C1, C2, T) * T))
            if obj < best_obj:
                best_obj = obj
                best_T = T
        converged_all = converged_all and converged
    return TransportPlan(matrix=best_T, objective=best_obj, converged=converged_all)


def resolve_assignment(T, n_items=None, grid_side=None):
    """(n_items, 2) int64 (row, col) cells of the first ``n_items`` items
    under the permutation maximizing the plan's coupled mass.

    Ties are broken toward the lexicographically smallest permutation. The
    plan's column index j is interpreted as the row-major cell (j // g, j % g)
    of a g x g lattice, g inferred as sqrt(m) unless given; ``n_items``
    defaults to all m items.
    """
    M = T.matrix if isinstance(T, TransportPlan) else np.asarray(T, dtype=np.float64)
    m = M.shape[0]
    if M.shape != (m, m):
        raise DimensionMismatch(f"plan is not square: {M.shape}")
    perm = _lexmin_max_assignment(M)
    g = grid_side if grid_side is not None else math.isqrt(m)
    if g * g != m and grid_side is None:
        raise DimensionMismatch(f"plan size {m} is not a perfect square; pass grid_side")
    return np.stack(np.divmod(perm[:n_items], g), axis=1)


def _lexmin_max_assignment(M):
    """The lexicographically smallest max-mass assignment, from the tight
    entries of one assignment's reduced costs.

    The shortest-path column potentials ``d`` of the exchange graph of one
    max-mass assignment ``cols`` (edge ``cols[i] -> j`` of weight ``cost[i, j]
    - cost[i, cols[i]]``) give each entry a reduced cost >= 0, 0 on ``cols``;
    an assignment falls short of the maximum by the sum of its own. A tight
    entry off ``cols`` on no cycle of tight exchange edges is in no max-mass
    assignment and is dropped, so a unique maximum leaves one per row. Each
    row then takes the smallest free tight column that leaves the rows below
    a perfect tight matching: an assignment of zero cost when each non-tight
    entry costs 1.
    """
    m = M.shape[0]
    cost = -M
    _, cols = linear_sum_assignment(cost)
    w = cost - cost[np.arange(m), cols][:, None]
    d = np.zeros(m)
    for _ in range(m):
        relaxed = (d[cols][:, None] + w).min(axis=0)
        if np.array_equal(relaxed, d):
            break
        d = relaxed
    tight = w + d[cols][:, None] - d <= _TIE_SCALE * max(1.0, float(np.abs(M).max()))
    reach = tight[np.argsort(cols)].astype(np.float64)  # [c, j]: c's row may take j
    while not np.array_equal(reach, closed := (reach @ reach > 0).astype(np.float64)):
        reach = closed
    tight &= reach.T[cols] > 0
    perm = np.empty(m, dtype=np.int64)
    free = np.ones(m, dtype=bool)
    for i in range(m):
        candidates = np.flatnonzero(tight[i] & free)
        for j in candidates[:-1]:
            free[j] = False
            loose = ~tight[i + 1:][:, free]
            if not loose[linear_sum_assignment(loose)].any():
                break
            free[j] = True
        else:
            j = candidates[-1]  # the tight matching of the rows left must use it
        perm[i] = j
        free[j] = False
    return perm


def pad_to_square(C_item, g):
    """Extend an m x m cost matrix with zero-distance dummies to g^2 items."""
    C_item = np.asarray(C_item, dtype=np.float64)
    m = C_item.shape[0]
    if g * g < m:
        raise GridTooSmall(f"grid side {g} gives {g*g} cells for {m} items")
    out = np.zeros((g * g, g * g))
    out[:m, :m] = C_item
    return out
