"""Verification oracles: exact answers by exhaustive search, which the tests
compare g2i's solvers and estimators against. The package never calls them."""

import itertools
import math

import numpy as np

from g2i.errors import DimensionMismatch
from g2i.transport import TransportPlan, _check_pair, _linear_term, _perm_objective


class TooLarge(Exception):
    """An oracle asked to search more cases than it enumerates in a test's time."""


def gw_objective(C_item, C_grid, T):
    """Distortion sum_{i,j,k,l} (C_item[i,k] - C_grid[j,l])^2 T[i,j] T[k,l]."""
    C1, C2 = _check_pair(C_item, C_grid)
    M = T.matrix if isinstance(T, TransportPlan) else np.asarray(T, dtype=np.float64)
    if M.shape != C1.shape:
        raise DimensionMismatch(f"plan shape {M.shape} does not match costs {C1.shape}")
    return float(np.sum(_linear_term(C1, C2, M) * M))


def brute_force_gw(C_item, C_grid):
    """Exhaustive minimum over all m! permutation plans (verification oracle)."""
    C1, C2 = _check_pair(C_item, C_grid)
    m = C1.shape[0]
    if m > 8:
        raise TooLarge(f"brute force limited to m <= 8, got {m}")
    best_perm = None
    best_obj = math.inf
    for perm in itertools.permutations(range(m)):
        obj = _perm_objective(C1, C2, list(perm))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_perm = perm
    return best_perm, best_obj


def lexmin_max_assignment(M):
    """The lexicographically smallest of the permutations of largest total
    mass sum_i M[i, perm[i]], by exhaustive search (m <= 8)."""
    M = np.asarray(M, dtype=np.float64)
    m = M.shape[0]
    if m > 8:
        raise TooLarge(f"exhaustive assignment limited to m <= 8, got {m}")
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    # permutations() yields lexicographic order, and argmax keeps the first maximum
    return perms[np.argmax(M[np.arange(m), perms].sum(axis=1))]


def shapley_exact(predict, image, class_idx, background_mean, players):
    """Exact Shapley values by subset enumeration (<= 8 players); ``image``
    and ``background_mean`` are (C, P, P) tensors."""
    players = list(players)
    P = len(players)
    if P > 8:
        raise TooLarge(f"exhaustive Shapley limited to 8 players, got {P}")
    image = np.asarray(image, dtype=np.float64)
    background = np.asarray(background_mean, dtype=np.float64)
    tensors = []
    for mask in range(1 << P):
        t = background.copy()
        for pi in range(P):
            if mask >> pi & 1:
                ch, r, c = players[pi]
                t[ch, r, c] = image[ch, r, c]
        tensors.append(t)
    scores = predict(np.stack(tensors))[:, class_idx]
    fact = [math.factorial(i) for i in range(P + 1)]
    values = np.zeros(P)
    for pi in range(P):
        for mask in range(1 << P):
            if mask >> pi & 1:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[P - s - 1] / fact[P]
            values[pi] += weight * (scores[mask | (1 << pi)] - scores[mask])
    return values
