"""Local (driver-side) graph view shared by the reference engine, the
sequential reorder kernels, and the cache simulator.

``LocalGraph`` is a plain struct of numpy edge arrays; adjacency builders
are cached. It is the format the generators produce and every numpy-path
module (reorderers, partitioners, reference engine, cache simulator)
consumes, together with the kernels they share: ``group_lists``,
``bfs_order`` and ``order_to_positions``. ``to_local`` collects a Spark
edge frame (src, dst[, weight]) into one, for the Spark functions whose
driver-side steps need the whole graph in memory, which is fine at
reproduction scale (≤ ~100k edges).
"""
from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pyspark.sql import DataFrame


@dataclass
class LocalGraph:
    """Directed weighted graph as parallel edge arrays (vertices 0..n-1)."""

    n: int
    src: np.ndarray  # int64 (|E|,)
    dst: np.ndarray  # int64 (|E|,)
    w: np.ndarray  # float64 (|E|,)
    name: str = "g"
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def out_degree(self) -> np.ndarray:
        """Out-degree per vertex (int64)."""
        if "outdeg" not in self._cache:
            self._cache["outdeg"] = np.bincount(self.src, minlength=self.n)
        return self._cache["outdeg"]

    def in_degree(self) -> np.ndarray:
        if "indeg" not in self._cache:
            self._cache["indeg"] = np.bincount(self.dst, minlength=self.n)
        return self._cache["indeg"]

    def degree(self) -> np.ndarray:
        """Total degree (in + out)."""
        return self.in_degree() + self.out_degree()

    def out_weight(self) -> np.ndarray:
        """Sum of outgoing edge weights per vertex (for PHP normalization)."""
        if "outw" not in self._cache:
            self._cache["outw"] = np.bincount(
                self.src, weights=self.w, minlength=self.n
            )
        return self._cache["outw"]

    def undirected_adj(self) -> list[list[int]]:
        """``adj[v]`` = neighbors of v ignoring direction, ascending, each once.

        A self-loop makes v its own neighbor once. This is the one
        undirected adjacency builder: every partitioner and Rabbit read it.
        """
        if "und_adj" not in self._cache:
            n, src, dst = self.n, self.src, self.dst
            # key v * n + u for each neighbor u of v, sorted and each once
            keys = np.unique(np.concatenate((src * n + dst, dst * n + src)))
            bounds = np.searchsorted(keys, np.arange(n + 1) * n)
            keys %= n  # in place: each key becomes its neighbor u
            self._cache["und_adj"] = _cut(bounds, keys)
        return self._cache["und_adj"]

    def highest_out_degree_vertex(self) -> int:
        """Canonical source vertex for SSSP/BFS/PHP (best propagation reach)."""
        return int(np.argmax(self.out_degree()))


def group_lists(n: int, keys: np.ndarray, vids: np.ndarray) -> list[list[int]]:
    """``out[k]`` = the ``vids[i]`` with ``keys[i] == k``, in array order.

    Grouped with a stable argsort and cut at ``searchsorted`` bounds.
    Every entry is the one Python int of its vertex id (``vids`` lie in
    0..n-1), so the lists hold no int per edge of their own.
    """
    by_key = np.argsort(keys, kind="stable")
    return _cut(np.searchsorted(keys[by_key], np.arange(n + 1)), vids[by_key])


def _cut(bounds: np.ndarray, vids: np.ndarray) -> list[list[int]]:
    """``[vids[bounds[k]:bounds[k + 1]] for k]`` as lists of shared ints."""
    flat = np.arange(len(bounds) - 1).astype(object)[vids].tolist()
    b = bounds.tolist()
    return [flat[lo:hi] for lo, hi in zip(b[:-1], b[1:])]


def bfs_order(
    adj: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    roots: Iterable[int],
    members: Collection[int] | None = None,
) -> list[int]:
    """Breadth-first visit order, starting from each not-yet-seen root in turn.

    Neighbours are enqueued in ``adj[v]`` order. With ``members`` the walk
    never steps outside that set. Each vertex appears once.
    """
    seen: set[int] = set()
    order: list[int] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        q = deque([root])
        while q:
            v = q.popleft()
            order.append(v)
            for u in adj[v]:
                if u not in seen and (members is None or u in members):
                    seen.add(u)
                    q.append(u)
    return order


def order_to_positions(order: Sequence[int] | np.ndarray) -> np.ndarray:
    """Inverse permutation: ``pos[order[i]] = i`` (int64)."""
    pos = np.empty(len(order), dtype=np.int64)
    pos[np.asarray(order, dtype=np.int64)] = np.arange(len(order))
    return pos


def to_local(edges_df: DataFrame, n: int | None = None, name: str = "g") -> LocalGraph:
    """Collect a Spark edge frame (src, dst[, weight]) into a LocalGraph."""
    pdf = edges_df.toPandas()
    src = pdf["src"].to_numpy(dtype=np.int64)
    dst = pdf["dst"].to_numpy(dtype=np.int64)
    w = (
        pdf["weight"].to_numpy(dtype=np.float64)
        if "weight" in pdf.columns
        else np.ones(len(src))
    )
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    return LocalGraph(n=n, src=src, dst=dst, w=w, name=name)
