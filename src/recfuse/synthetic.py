"""Seeded synthetic interaction datasets with recommender-friendly structure.

Generation is driven entirely by the package's pinned SplitMix64 stream
(`data.splitmix64_stream`), not by numpy's RNG, so a seed reproduces the
same dataset on any platform and numpy version. The model: users and items
get latent factors, items get a Zipf-like popularity boost, and each user's
interactions are their top-quota items under affinity + popularity + Gumbel
noise (which is exactly sampling without replacement proportional to
softmax weights).
"""

from __future__ import annotations

import sys

import numpy as np

from recfuse.core import IdIndex, IndexedPairs, InteractionDataset
from recfuse.data import splitmix64_stream


def _uniforms(seed: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1), 53-bit resolution, never exactly 0."""
    bits = splitmix64_stream(seed, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) / 9007199254740993.0


def check_recipe(n_users: int, n_items: int, n_interactions: int,
                 n_factors: int = 8, popularity_weight: float = 1.0,
                 noise_scale: float = 0.6):
    """Raise ValueError unless generate_interactions can take this recipe."""
    if n_users < 1 or n_items < 1:
        raise ValueError("need at least one user and one item")
    if not 1 <= n_interactions <= n_users * n_items:
        raise ValueError("n_interactions must be in [1, n_users * n_items]")
    if n_factors < 1:
        raise ValueError("n_factors must be >= 1")
    for name, value in (("popularity_weight", popularity_weight),
                        ("noise_scale", noise_scale)):
        # False for NaN, infinities and ints beyond the float range.
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be finite, got {value!r}")


def generate_interactions(n_users: int, n_items: int, n_interactions: int,
                          seed: int, n_factors: int = 8,
                          popularity_weight: float = 1.0,
                          noise_scale: float = 0.6) -> InteractionDataset:
    """Generate a dataset of exactly n_interactions implicit events.

    Per-user quotas are proportional to a uniform draw in [0.5, 1.5] with
    largest-remainder rounding, clamped to [0, n_items], so the requested
    total is met exactly whenever n_interactions <= n_users * n_items. A
    user with quota 0 emits nothing, so fewer than n_users users may appear.

    Args:
        n_users: users, ids u0000..; zero-padded so id order is numeric order.
        n_items: catalog size, ids i00000...
        n_interactions: total events to emit.
        seed: drives every random choice.
        n_factors: latent dimensionality of the affinity term.
        popularity_weight: strength of the shared Zipf-like item boost.
        noise_scale: Gumbel noise magnitude; higher means noisier tastes.
    """
    check_recipe(n_users, n_items, n_interactions, n_factors,
                 popularity_weight, noise_scale)
    seeds = dict(zip(("user_f", "item_f", "pop", "quota", "noise"),
                     splitmix64_stream(seed, 5).tolist()))

    user_f = _uniforms(seeds["user_f"], n_users * n_factors).reshape(
        n_users, n_factors)
    item_f = _uniforms(seeds["item_f"], n_items * n_factors).reshape(
        n_items, n_factors)

    # Zipf-like boost over a seeded item permutation, normalized to [0, 1].
    rank_weight = 1.0 / np.power(np.arange(1, n_items + 1, dtype=np.float64), 0.8)
    rank_weight /= rank_weight[0]
    perm = np.argsort(splitmix64_stream(seeds["pop"], n_items), kind="stable")
    popularity = np.empty(n_items, dtype=np.float64)
    popularity[perm] = rank_weight

    draws = 0.5 + _uniforms(seeds["quota"], n_users)
    exact = n_interactions * draws / draws.sum()
    quotas = np.floor(exact).astype(np.int64)
    np.clip(quotas, 0, n_items, out=quotas)
    # floor(exact) <= exact and the clip only lowers quotas: never negative.
    leftover = n_interactions - int(quotas.sum())
    remainders = exact - np.floor(exact)
    # Most-deserving users first; index breaks ties. Skip full users.
    order = np.lexsort((np.arange(n_users), -remainders))
    pos = 0
    while leftover > 0:
        u = int(order[pos % n_users])
        if quotas[u] < n_items:
            quotas[u] += 1
            leftover -= 1
        pos += 1

    affinity = np.zeros((n_users, n_items))
    for f in range(n_factors):  # one factor at a time: no BLAS call
        affinity += user_f[:, f, None] * item_f[:, f]
    affinity *= n_factors ** -0.5
    noise_u = _uniforms(seeds["noise"], n_users * n_items).reshape(
        n_users, n_items)
    gumbel = -np.log(-np.log(noise_u))
    scores = affinity + popularity_weight * popularity + noise_scale * gumbel

    user_width = max(4, len(str(n_users - 1)))
    item_width = max(5, len(str(n_items - 1)))
    # Each user's top-quota items, in item order: events sorted by (user,
    # item), timestamped in that order.
    cols = np.concatenate([np.sort(np.argsort(-scores[u], kind="stable")
                                   [:int(quotas[u])]) for u in range(n_users)])
    indexed = IndexedPairs(
        IdIndex(f"u{u:0{user_width}d}" for u in range(n_users)),
        IdIndex(f"i{j:0{item_width}d}" for j in range(n_items)),
        np.repeat(np.arange(n_users, dtype=np.int32), quotas),
        cols.astype(np.int32)).compact()
    return InteractionDataset._of(indexed, np.ones(cols.size),
                                  np.ones(cols.size, dtype=bool),
                                  np.arange(cols.size, dtype=np.float64))
