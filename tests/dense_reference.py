"""Dense formulas over a length-V probability vector: the oracle for the
row path of ``models`` and ``tree``, which never builds that vector.

``add_k`` is an add-k n-gram row from a token -> count map, ``perturb``
the uniform-noise mixture over the whole vector, ``top_tokens`` the first
k entries of a stable argsort on -dist, and ``step_entropy`` the top-k
step entropy of a full sort. Nothing here imports ``heterospec``.
"""
from __future__ import annotations

import numpy as np


def add_k(seen: dict[int, int], smoothing: float, v: int) -> np.ndarray:
    """(counts + k) / (total + k * V) over the V tokens, ``seen`` holding
    the counts of the context's records."""
    vec = np.zeros(v, dtype=np.int64)
    for tok, count in seen.items():
        vec[tok] = count
    return (vec + smoothing) / (vec.sum() + smoothing * v)


def perturb(dist: np.ndarray, noise: float) -> np.ndarray:
    """normalize((1-noise) * softmax(log dist) + noise * uniform); noise 0
    is a copy."""
    if noise == 0.0:
        return dist.copy()
    v = dist.shape[0]
    with np.errstate(divide="ignore"):
        logits = np.log(dist)
    logits -= logits.max()
    shaped = np.exp(logits)
    shaped /= shaped.sum()
    mixed = (1.0 - noise) * shaped + noise / v
    return mixed / mixed.sum()


def top_tokens(dist: np.ndarray, k: int) -> np.ndarray:
    """The k most probable tokens, most probable first, ties to the
    smaller id."""
    return np.argsort(-dist, kind="stable")[:k]


def step_entropy(dist: np.ndarray, k: int) -> float:
    """Entropy in nats of the k largest probabilities renormalized, summed
    in ascending order; all of ``dist`` in index order when k >= V."""
    top = np.sort(dist)[-k:] if k < dist.shape[0] else dist
    total = top.sum()
    if total <= 0.0:
        return 0.0
    p = top / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0
