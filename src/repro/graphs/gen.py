"""Synthetic directed power-law graph generators.

The paper evaluates on six real web/social/citation graphs (Table I).
Offline, we generate Barabási–Albert-style stand-ins that preserve the
properties GoGraph's results depend on (see DESIGN.md §2):

* power-law degree distribution (hub extraction matters),
* cycles (so maximizing positive edges is the NP-hard MAS problem),
* a controllable *default-order quality* ``forward_frac`` — the fraction
  of edges whose source has a smaller original ID than its destination,
  which is exactly ``M(default)/|E|`` and is the paper's Table II
  "Default" row (0.07 for cit-Patents).

Generators are deterministic in ``seed``. Edge weights are uniform
integers in [1, 10] stored as float64 (used by SSSP/PHP/SSWP).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.local import LocalGraph

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

#: Stand-in parameters per paper dataset (bench scale). ``n`` is the vertex
#: count, ``m`` the BA attachment count (average in-degree ≈ m + extra),
#: ``forward`` the default-order quality, ``extra`` a fraction of extra
#: uniform-random edges that create cross-community cycles, ``comm`` the
#: approximate community size of the community-structured BA model
#: (real web/social graphs have strong communities; pure BA does not).
DATASETS: dict[str, dict] = {
    "IC": dict(n=2_272, m=4, forward=0.45, extra=0.08, comm=120, seed=101),
    "SK": dict(n=6_071, m=3, forward=0.40, extra=0.05, comm=150, seed=102),
    "GL": dict(n=8_757, m=5, forward=0.80, extra=0.10, comm=200, seed=103),
    "WK": dict(n=9_322, m=2, forward=0.35, extra=0.15, comm=150, seed=104),
    "CP": dict(n=12_000, m=4, forward=0.07, extra=0.10, comm=200, seed=105),
    "LJ": dict(n=10_083, m=6, forward=0.50, extra=0.10, comm=180, seed=106),
}


def _ba_undirected_pairs(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Barabási–Albert preferential attachment; returns (k, 2) int64 pairs.

    Classic "repeated nodes" construction: each new vertex v attaches to
    ``m`` targets sampled from the degree-weighted multiset of existing
    endpoints. Duplicate targets within one step are dropped (slightly
    fewer than ``m * (n - m)`` edges), self-loops cannot occur.
    """
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    # the pool starts as 0..m-1 and each step appends at most 2m endpoints
    rep = np.empty(m + 2 * m * (n - m), dtype=np.int64)
    rep[:m] = np.arange(m)
    n_rep = m
    edges = np.empty((m * (n - m), 2), dtype=np.int64)
    n_edges = 0
    for v in range(m, n):
        idx = rng.integers(0, n_rep, size=m)
        targets = np.unique(rep[idx])
        k = len(targets)
        edges[n_edges : n_edges + k, 0] = v
        edges[n_edges : n_edges + k, 1] = targets
        n_edges += k
        rep[n_rep : n_rep + k] = targets
        rep[n_rep + k : n_rep + 2 * k] = v
        n_rep += 2 * k
    return edges[:n_edges]


def _orient(pairs: np.ndarray, forward_frac: float, rng: np.random.Generator) -> np.ndarray:
    """Orient undirected pairs: with prob ``forward_frac`` low-ID → high-ID."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    fwd = rng.random(len(pairs)) < forward_frac
    src = np.where(fwd, lo, hi)
    dst = np.where(fwd, hi, lo)
    return np.stack([src, dst], axis=1)


def _dedupe(pairs: np.ndarray) -> np.ndarray:
    """Drop duplicate directed edges and self-loops, keep deterministic order."""
    keep = pairs[:, 0] != pairs[:, 1]
    pairs = pairs[keep]
    key = pairs[:, 0].astype(np.int64) * (pairs[:, 1].max() + 1) + pairs[:, 1]
    _, idx = np.unique(key, return_index=True)
    return pairs[np.sort(idx)]


def ba_graph(
    n: int,
    m: int,
    *,
    forward_frac: float = 0.5,
    extra_frac: float = 0.0,
    seed: int = 0,
    name: str = "ba",
) -> LocalGraph:
    """Directed power-law graph with controllable default-order quality.

    ``extra_frac`` adds that fraction of |E| extra uniform-random edges
    (oriented with the same ``forward_frac``) to create cross-hub cycles.
    """
    rng = np.random.default_rng(seed)
    pairs = _ba_undirected_pairs(n, m, rng)
    if extra_frac > 0:
        k = int(len(pairs) * extra_frac)
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        keep = a != b
        pairs = np.concatenate([pairs, np.stack([a[keep], b[keep]], axis=1)])
    pairs = _dedupe(_orient(pairs, forward_frac, rng))
    w = rng.integers(1, 11, size=len(pairs)).astype(np.float64)
    return LocalGraph(
        n=n, src=pairs[:, 0].copy(), dst=pairs[:, 1].copy(), w=w, name=name
    )


class _ScalarDraws:
    """The scalar draws ``rng.random()`` and ``rng.integers(0, k)`` of a
    PCG64 ``Generator``, replayed bit for bit from raw words read in bulk.

    A scalar numpy call costs ~0.5 µs (``random``) or ~2.5 µs
    (``integers``); a replayed draw is a few Python integer operations.
    ``random()`` is numpy's ``(raw >> 11) * 2**-53``. ``integers(k)`` is
    numpy's 32-bit Lemire draw with rejection, whose 32-bit halves come
    low half first through PCG64's ``has_uint32``/``uinteger`` buffer;
    ``k == 1`` consumes nothing. The words come from a copy of the bit
    generator: :meth:`close` advances the real one by the words used and
    restores the buffer, so later draws on ``rng`` continue from the
    state the scalar calls would have left.
    """

    _CHUNK = 8192  # words read from the copy at a time

    def __init__(self, rng: np.random.Generator):
        bg = rng.bit_generator
        state = bg.state
        self._bg = bg
        self._copy = np.random.PCG64()
        self._copy.state = state  # raises unless ``rng`` is PCG64
        self._has_uint32 = bool(state["has_uint32"])
        self._uinteger = int(state["uinteger"])
        self._words: list[int] = []
        self._i = 0  # next word in ``_words``
        self._used = 0  # words consumed before ``_words``

    def _word(self) -> int:
        i = self._i
        if i == len(self._words):
            self._used += i
            self._words = self._copy.random_raw(self._CHUNK).tolist()
            i = 0
        self._i = i + 1
        return self._words[i]

    def _uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        w = self._word()
        self._has_uint32 = True
        self._uinteger = w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        """``rng.random()``: a float in [0, 1)."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, k: int) -> int:
        """``rng.integers(0, k)`` for 1 <= k < 2**32."""
        if not 1 <= k < 1 << 32:
            raise ValueError(f"replay covers 1 <= k < 2**32, got k={k}")
        if k == 1:
            return 0
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:
            threshold = ((1 << 32) - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * k
        return m >> 32

    def close(self) -> None:
        """Move ``rng`` to the state the replayed scalar calls would leave."""
        self._bg.advance(self._used + self._i)
        state = self._bg.state
        state["has_uint32"] = int(self._has_uint32)
        state["uinteger"] = self._uinteger
        self._bg.state = state


def community_ba_graph(
    n: int,
    m: int,
    *,
    comm_size: int = 150,
    p_intra: float = 0.9,
    forward_frac: float = 0.5,
    extra_frac: float = 0.0,
    seed: int = 0,
    name: str = "cba",
) -> LocalGraph:
    """Community-structured BA graph: preferential attachment with a
    ``p_intra`` bias toward the new vertex's own community.

    Real web/social/citation graphs (the paper's Table I) combine a
    power-law degree distribution with strong community structure — the
    latter is what Rabbit-style partitioning and the cache experiments
    (Figs 9/10/13) exploit. Pure BA has no communities, so we grow the
    graph per community.

    Vertex IDs equal arrival order (like chronological patent/crawl
    IDs), and each edge is oriented low-ID → high-ID with probability
    ``forward_frac``, so the default order's M/|E| ≈ ``forward_frac``
    and, since early vertices accumulate degree, backward edges point
    *toward hubs* — exactly the structure that makes cit-Patents'
    default order bad (paper Table II: 0.07) and keeps hub-based
    reorderings from fixing it. Community members arrive throughout the
    growth process, so the default order has poor cache locality even
    though IDs are chronological.
    """
    rng = np.random.default_rng(seed)
    n_comms = max(1, n // comm_size)
    comm = rng.integers(0, n_comms, size=n).tolist()
    pools: list[list[int]] = [[] for _ in range(n_comms)]
    global_pool: list[int] = []
    srcs: list[int] = []
    dsts: list[int] = []
    draws = _ScalarDraws(rng)
    for v in range(n):
        c = comm[v]
        targets: set[int] = set()
        for _ in range(m):
            use_intra = pools[c] and draws.random() < p_intra
            pool = pools[c] if use_intra else global_pool
            if not pool:
                continue
            t = pool[draws.integers(len(pool))]
            if t != v:
                targets.add(t)
        for t in targets:
            srcs.append(v)
            dsts.append(t)
            pools[comm[t]].append(t)
            global_pool.append(t)
        pools[c].append(v)
        global_pool.append(v)
    draws.close()
    arr = np.stack((np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64)), axis=1)
    if extra_frac > 0:
        k = int(len(arr) * extra_frac)
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        keep = a != b
        arr = np.concatenate([arr, np.stack([a[keep], b[keep]], axis=1)])
    arr = _dedupe(_orient(arr, forward_frac, rng))
    w = rng.integers(1, 11, size=len(arr)).astype(np.float64)
    return LocalGraph(
        n=n, src=arr[:, 0].copy(), dst=arr[:, 1].copy(), w=w, name=name
    )


def dataset_graph(name: str, *, scale: float = 1.0) -> LocalGraph:
    """Stand-in for a paper dataset (Table I), scaled by ``scale``.

    ``scale=1.0`` is bench scale (DESIGN.md §2); tests use ``scale=0.1``.
    """
    p = DATASETS[name]
    n = max(p["m"] + 2, int(p["n"] * scale))
    return community_ba_graph(
        n,
        p["m"],
        comm_size=max(10, int(p["comm"] * scale**0.5)),
        forward_frac=p["forward"],
        extra_frac=p["extra"],
        seed=p["seed"],
        name=name,
    )


def edges_to_spark(spark: SparkSession, g: LocalGraph) -> DataFrame:
    """LocalGraph edges → Spark DataFrame(src long, dst long, weight double)."""
    import pandas as pd

    pdf = pd.DataFrame({"src": g.src, "dst": g.dst, "weight": g.w})
    return spark.createDataFrame(pdf)
