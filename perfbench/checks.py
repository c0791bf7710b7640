"""Output checks made apart from the program.

Each check recomputes what the program's output must satisfy with code of
its own (numpy, DuckDB SQL, networkx) or from a property the method must
have, and returns ``(ok, detail)``. Nothing here imports ``repro``.
``test_perfbench.py`` shows that each check fails on a perturbed output.
DuckDB, networkx and pandas are imported where a check first needs them,
so that they count in neither a workload's set-up time nor its peak memory
(the checks run after the timed passes).
"""
from __future__ import annotations

import numpy as np

INF = float("inf")
TOL = 1e-6  # PageRank/PHP threshold on max |Δx| per round, as in DESIGN.md


class Ledger:
    """Operations attempted and failed in one run.

    An operation is an order computed, a run converged, or a check passed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def check(self, what: str, result: tuple[bool, str]) -> bool:
        return self.record(what, *result)


# -- orders -------------------------------------------------------------------
def is_permutation(pos: np.ndarray, n: int) -> tuple[bool, str]:
    """``pos`` maps the n vertices one-to-one onto 0..n-1."""
    pos = np.asarray(pos)
    if pos.shape != (n,) or not np.issubdtype(pos.dtype, np.integer):
        return False, f"shape {pos.shape} dtype {pos.dtype}"
    seen = np.zeros(n, dtype=bool)
    inside = (pos >= 0) & (pos < n)
    seen[pos[inside]] = True
    ok = bool(inside.all() and seen.all())
    return ok, "" if ok else f"{int((~seen).sum())} positions unused"


def positive_edges_sql(src: np.ndarray, dst: np.ndarray, pos: np.ndarray) -> int:
    """M(O) counted by DuckDB over edge and position tables."""
    import duckdb
    import pandas as pd

    edges = pd.DataFrame({"src": src, "dst": dst})
    order = pd.DataFrame({"vid": np.arange(len(pos), dtype=np.int64), "p": pos})
    con = duckdb.connect(config={"threads": 1})
    try:
        con.register("edges", edges)
        con.register("order_pos", order)
        # A WHERE a.p < b.p filter lets DuckDB 1.0 plan an inequality join of
        # the two position scans first (n^2 rows, seconds and GBs); counting
        # with CASE keeps the plan on the two equi-joins.
        return int(
            con.execute(
                "SELECT coalesce(sum(CASE WHEN a.p < b.p THEN 1 ELSE 0 END), 0) "
                "FROM edges e "
                "JOIN order_pos a ON e.src = a.vid "
                "JOIN order_pos b ON e.dst = b.vid"
            ).fetchone()[0]
        )
    finally:
        con.close()


def same_count(what: str, got: int, want: int) -> tuple[bool, str]:
    return got == want, f"{what} {got} != {want}"


def gograph_beats_all(ms: dict[str, int]) -> tuple[bool, str]:
    """GoGraph's M exceeds every competitor's (paper Table II)."""
    rivals = {k: v for k, v in ms.items() if k != "gograph"}
    best = max(rivals, key=rivals.get)
    ok = ms["gograph"] > rivals[best]
    return ok, "" if ok else f"gograph {ms['gograph']} <= {best} {rivals[best]}"


# -- converged states ---------------------------------------------------------
def top_out_degree_vertex(src: np.ndarray, n: int) -> int:
    """The vertex with most out-edges (smallest id among ties)."""
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, src, 1)
    return int(np.flatnonzero(counts == counts.max())[0])


def reference_distances(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray | None, n: int, source: int
) -> np.ndarray:
    """networkx Dijkstra (``w`` given) or BFS hop distances; inf if unreachable."""
    import networkx as nx

    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    if w is None:
        G.add_edges_from(zip(src.tolist(), dst.tolist()))
        found = nx.single_source_shortest_path_length(G, source)
    else:
        G.add_weighted_edges_from(zip(src.tolist(), dst.tolist(), w.tolist()))
        found = nx.single_source_dijkstra_path_length(G, source)
    out = np.full(n, INF)
    for v, d in found.items():
        out[v] = d
    return out


def same_states(x: np.ndarray, ref: np.ndarray) -> tuple[bool, str]:
    """Exact equality (min-kind states are sums of integer weights)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != ref.shape:
        return False, f"shape {x.shape} != {ref.shape}"
    bad = np.flatnonzero(x != ref)
    ok = len(bad) == 0
    return ok, "" if ok else f"{len(bad)} vertices differ, e.g. v{bad[0]}: {x[bad[0]]} != {ref[bad[0]]}"


class SumUpdate:
    """The sum-kind update x_v = base_v + Σ_{(u,v)} coef(u,v)·x_u, in numpy.

    PageRank: base 1-d, coef d/|OUT(u)|. PHP: base 0, coef c·w(u,v)/Σw(u,·),
    the source clamped to 1. ``damping`` bounds every column sum of coef,
    which makes the update a contraction by that factor in the 1-norm.
    """

    def __init__(self, algo: str, src, dst, w, n: int, source: int, damping: float = 0.85):
        self.src, self.dst, self.n = src, dst, n
        self.damping = damping
        self.clamp: dict[int, float] = {}
        if algo == "pagerank":
            outdeg = np.maximum(np.bincount(src, minlength=n), 1)
            self.coef = damping / outdeg[src]
            self.base = np.full(n, 1.0 - damping)
        elif algo == "php":
            outw = np.bincount(src, weights=w, minlength=n)
            self.coef = damping * w / np.maximum(outw[src], 1e-12)
            self.base = np.zeros(n)
            self.clamp = {source: 1.0}
        else:
            raise ValueError(algo)
        self.in_coef = np.bincount(dst, weights=self.coef, minlength=n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        fx = self.base + np.bincount(self.dst, weights=self.coef * x[self.src], minlength=self.n)
        for v, val in self.clamp.items():
            fx[v] = val
        return fx

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x) - x

    def residual_bound(self, tol: float) -> float:
        """Largest |F(x)-x| a run stopped at ``tol`` may leave.

        The last sweep moved no state by more than ``tol``, so each
        vertex's update saw in-neighbour values at most ``tol`` from the
        final ones: |F(x)_v - x_v| <= tol · Σ_u coef(u,v).
        """
        return tol * float(self.in_coef.max(initial=0.0)) + 1e-9


def fixpoint_residual(upd: SumUpdate, x: np.ndarray, tol: float) -> tuple[bool, str]:
    r = float(np.abs(upd.residual(np.asarray(x, dtype=np.float64))).max())
    bound = upd.residual_bound(tol)
    return r <= bound, f"residual {r:.3e} > bound {bound:.3e}"


def same_fixpoint(upd: SumUpdate, xa: np.ndarray, xb: np.ndarray, tol: float) -> tuple[bool, str]:
    """Two runs stopped at ``tol`` reached the same fixpoint x*.

    Each passed :func:`fixpoint_residual`, so ||F(x) - x||_1 <=
    tol · Σ coef, and a contraction by ``damping`` in the 1-norm puts each
    within that over (1 - damping) of x*.
    """
    gap = float(np.abs(xa - xb).sum())
    bound = 2.0 * (tol * float(upd.in_coef.sum()) + 1e-9 * upd.n) / (1.0 - upd.damping)
    return gap <= bound, f"||xa-xb||_1 {gap:.3e} > {bound:.3e}"


def no_more_rounds(gs_rounds: int, jacobi_rounds: int) -> tuple[bool, str]:
    """Eq. 2 never needs more rounds than Eq. 1 (monotone algorithms)."""
    return gs_rounds <= jacobi_rounds, f"Eq. 2 {gs_rounds} > Eq. 1 {jacobi_rounds} rounds"
