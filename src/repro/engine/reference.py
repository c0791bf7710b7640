"""Local reference engine: Jacobi (Eq. 1) and Gauss–Seidel (Eq. 2).

This is the round-counting oracle and the harness used for the large
parameter sweeps (7 orders × 4 algorithms × 6 graphs); the Spark engines
are validated against it in tests (`tests/test_spark_engines.py`) and
timed on IC by perfbench's spark-ic workload. See DESIGN.md §4 for why both exist.

Semantics:

* ``jacobi``       — every contribution uses previous-round values.
* ``gauss_seidel`` — vertices are processed in ascending position of the
  supplied order; the state array is updated in place, so in-neighbors
  with smaller positions contribute this-round values and the rest
  previous-round values — exactly Eq. 2.

:func:`sweep` is that sequential loop, and the only one: the
``impl="python"`` engine, :func:`per_round_time` and the block step of
both Spark engines (``spark_sync.run_blocks``: Eq. 2 per block, Eq. 1 as
its all-blocks case read from round-start states) all call it.
:func:`_level_step` is the one vectorized round, and Eq. 1 is its
single-level case. :func:`_rounds` is the one round loop: ``jacobi``,
``fixpoint`` and both ``gauss_seidel`` implementations run their rounds
through it.

A round is counted iff its max state change exceeds the algorithm's
tolerance (the final detection sweep is not counted; DESIGN.md §4).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.algorithms import Algo, Prepared, effective_graph
from repro.graphs.local import LocalGraph, order_to_positions

MAX_ROUNDS = 10_000


@dataclass
class RunResult:
    """Outcome of an iterative run."""

    rounds: int
    x: np.ndarray
    converged: bool
    deltas: list[float]
    sums: list[float] = None  # Σ of finite states after each counted round


def _finite_sum(x: np.ndarray) -> float:
    """Σ over finite entries — the paper's Fig 7 distance uses Σ x_t."""
    return float(x[np.isfinite(x)].sum())


def _delta(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| with inf==inf counted as no change."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    diff[np.isnan(diff)] = 0.0  # inf - inf
    return float(diff.max(initial=0.0))


def sweep(kind: str, order, in_adj, x, src, base, fixed) -> None:
    """One sequential application of F(·) over ``order``, updating ``x`` in place.

    This is the one sequential loop of F(·): vertex v reads in-neighbour u
    from ``src[u]``, so ``src is x`` lets earlier positions contribute
    their this-round values (Eq. 2), while a round-start copy gives Eq. 1
    (the Spark sync engine's block step passes ``dict(x)``).
    ``in_adj[v]`` is [(u, param)], ``base[v]`` the sum-kind additive term,
    and vertices in ``fixed`` keep their current value. Only ``x[u]`` reads
    and ``x[v] =`` writes are used, so lists and vid-keyed dicts both work.
    """
    inf = float("inf")
    if kind == "sum":
        for v in order:
            if v in fixed:
                continue
            acc = base[v]
            for u, p in in_adj[v]:
                xu = src[u]
                if xu != inf:
                    acc += xu * p
            x[v] = acc
    elif kind == "min":
        for v in order:
            if v in fixed:
                continue
            best = x[v]
            for u, p in in_adj[v]:
                cand = src[u] + p
                if cand < best:
                    best = cand
            x[v] = best
    elif kind == "maxmin":
        for v in order:
            if v in fixed:
                continue
            best = x[v]
            for u, p in in_adj[v]:
                xu = src[u]
                cand = xu if xu < p else p
                if cand > best:
                    best = cand
            x[v] = best
    else:
        raise ValueError(kind)


def _in_adj(
    n: int, src: np.ndarray, dst: np.ndarray, param: np.ndarray
) -> list[list[tuple[int, float]]]:
    """Per-vertex in-edge lists [(src, param)] in edge-array order."""
    in_adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, d, p in zip(src.tolist(), dst.tolist(), param.tolist()):
        in_adj[d].append((s, p))
    return in_adj


def _rounds(step, x: np.ndarray, tol: float, max_rounds: int) -> RunResult:
    """The round loop: ``x = step(x)`` until the max state change is ≤ ``tol``.

    ``step`` returns the next state without writing into its argument.
    """
    deltas: list[float] = []
    sums: list[float] = []
    converged = False
    for _ in range(max_rounds):
        xn = step(x)
        d = _delta(x, xn)
        x = xn
        if d <= tol:
            converged = True
            break
        deltas.append(d)
        sums.append(_finite_sum(x))
    return RunResult(len(deltas), x, converged, deltas, sums)


def _update(kind: str, x: np.ndarray, src_val, dst, param, base) -> None:
    """Apply F(·) in place to the states ``x``: in-edge i carries
    ``src_val[i]`` with ``param[i]`` into ``x[dst[i]]``; ``base`` is the
    sum kind's additive term."""
    if kind == "sum":
        msg = src_val * param
        msg[~np.isfinite(msg)] = 0.0
        x[:] = base + np.bincount(dst, weights=msg, minlength=len(x))
    elif kind == "min":
        np.minimum.at(x, dst, src_val + param)
    elif kind == "maxmin":
        np.maximum.at(x, dst, np.minimum(src_val, param))
    else:
        raise ValueError(kind)


def _level_step(prep: Prepared, eg: LocalGraph, positions: np.ndarray | None = None):
    """The vectorized round: Eq. 2 under ``positions``, Eq. 1 if ``None``.

    A sequential in-position sweep is equivalent to processing vertices
    level by level, where ``level(v) = 1 + max(level(u))`` over positive
    in-edges (u, v) (0 if none): when a level is processed, every
    positive in-neighbor (smaller position → strictly smaller level) has
    already received its this-round value, and every negative in-neighbor
    contributes its previous-round value — exactly the sequential
    semantics, since a vertex's update never depends on same-level
    vertices. Each level is one numpy scatter over its in-edge slice,
    turning the O(|E|) Python loop into ~#levels numpy ops per round.
    Eq. 1 (``positions=None``) is the case with no positive edge: there is
    one level and every in-neighbor reads its previous-round value, so the
    round runs in vid order without the level relabel.
    """
    n = eg.n
    kind = prep.kind
    fixed_vid = np.fromiter(prep.fixed.keys(), dtype=np.int64, count=len(prep.fixed))
    fixed_val = np.fromiter(prep.fixed.values(), dtype=np.float64, count=len(prep.fixed))
    positive = None if positions is None else positions[eg.src] < positions[eg.dst]
    if positive is None or not positive.any():
        # one level, so vid order is level order
        def one_level(x_prev: np.ndarray) -> np.ndarray:
            x = x_prev.copy()
            _update(kind, x, x_prev[eg.src], eg.dst, prep.param, prep.base)
            x[fixed_vid] = fixed_val
            return x

        return one_level

    # level(v) over the positive-edge DAG: positive edges in destination
    # position order, so each source's level is final before it is read
    p_src, p_dst = eg.src[positive], eg.dst[positive]
    by_dst = np.argsort(positions[p_dst], kind="stable")
    level_of = [0] * n
    for u, v in zip(p_src[by_dst].tolist(), p_dst[by_dst].tolist()):
        if level_of[u] >= level_of[v]:
            level_of[v] = level_of[u] + 1
    level = np.array(level_of, dtype=np.int64)

    # vertices relabelled by level, so that level L is the slice
    # [v_bounds[L], v_bounds[L + 1]); edges grouped by destination level
    by_level = np.argsort(level, kind="stable")
    rank = order_to_positions(by_level)
    n_levels = int(level.max(initial=0)) + 1
    v_bounds = np.searchsorted(level[by_level], np.arange(n_levels + 1))
    dst_level = level[eg.dst]
    edge_order = np.argsort(dst_level, kind="stable")
    e_bounds = np.searchsorted(dst_level[edge_order], np.arange(n_levels + 1))
    # a positive edge reads its source's this-round slot n + u, a negative
    # one its previous-round slot u, of the [previous | this round] buffer
    e_read = (rank[eg.src] + n * positive)[edge_order]
    e_dst = (rank[eg.dst] - v_bounds[dst_level])[edge_order]  # offset within its level
    e_param = prep.param[edge_order]
    base = prep.base[by_level]
    fixed_idx = rank[fixed_vid]

    def step(x_prev: np.ndarray) -> np.ndarray:
        x_lvl = x_prev[by_level]
        buf = np.concatenate((x_lvl, x_lvl))
        x = buf[n:]  # this round's states, updated in place level by level
        for L in range(n_levels):
            lo, hi = e_bounds[L], e_bounds[L + 1]
            vlo, vhi = v_bounds[L], v_bounds[L + 1]
            _update(
                kind, x[vlo:vhi], buf[e_read[lo:hi]], e_dst[lo:hi], e_param[lo:hi],
                base[vlo:vhi],
            )
            # re-clamp before any later level reads these values
            x[fixed_idx] = fixed_val
        out = np.empty(n)
        out[by_level] = x
        return out

    return step


def jacobi(
    g: LocalGraph, algo: Algo, *, source: int | None = None, max_rounds: int = MAX_ROUNDS
) -> RunResult:
    """Synchronous (Eq. 1) iteration, vectorized with numpy."""
    prep = algo.prepare(g, source)
    return _rounds(_level_step(prep, effective_graph(g, prep)), prep.init, prep.tol, max_rounds)


def fixpoint(g: LocalGraph, algo: Algo, *, source: int | None = None) -> np.ndarray:
    """Converged state x* (tight-tolerance Jacobi) — oracle for tests."""
    prep = algo.prepare(g, source)
    step = _level_step(prep, effective_graph(g, prep))
    return _rounds(step, prep.init, prep.tol / 1e3, MAX_ROUNDS).x


def gauss_seidel(
    g: LocalGraph,
    algo: Algo,
    positions: np.ndarray,
    *,
    source: int | None = None,
    max_rounds: int = MAX_ROUNDS,
    impl: str = "fast",
) -> RunResult:
    """Asynchronous (Eq. 2) iteration under ``positions`` (vid → ordinal).

    ``impl='python'`` is the literal sequential sweep; ``impl='fast'`` is
    the vectorized level-synchronous equivalent (see :func:`_level_step`)
    — tests assert they produce the same rounds and states.
    """
    prep = algo.prepare(g, source)
    eg = effective_graph(g, prep)
    if impl == "fast":
        return _rounds(_level_step(prep, eg, positions), prep.init, prep.tol, max_rounds)
    order = np.argsort(positions, kind="stable").tolist()
    in_adj = _in_adj(eg.n, eg.src, eg.dst, prep.param)
    base = prep.base.tolist()

    def step(x: np.ndarray) -> np.ndarray:
        xs = x.tolist()
        sweep(prep.kind, order, in_adj, xs, xs, base, prep.fixed)
        return np.asarray(xs)

    return _rounds(step, prep.init, prep.tol, max_rounds)


def per_round_time(
    g: LocalGraph,
    algo: Algo,
    positions: np.ndarray | None = None,
    *,
    source: int | None = None,
    sweeps: int = 3,
) -> float:
    """Measured wall-clock of one round of the *sequential* engine.

    Runs ``sweeps`` full sweeps of the pure-Python engine (no
    convergence checks) and returns the best per-sweep time.
    ``positions=None`` times the synchronous mode (contributions read
    from a round-start snapshot); otherwise the Eq. 2 in-place sweep in
    position order. Experiments report runtime as
    ``rounds × per_round_time`` — the paper's engine is a sequential
    sweep whose per-round cost is order-independent, whereas the
    vectorized fast engine's per-round cost varies with the positive-DAG
    depth, which would be a measurement artifact (DESIGN.md §4).

    The graph is first relabelled so that vertex ``i`` is the one at
    position ``i`` and its in-edge lists are built in that order; the
    timed sweep then walks ``range(n)`` over memory laid out in sweep
    order, so no order pays for scattered access to lists stored in vid
    order.
    """
    prep = algo.prepare(g, source)
    eg = effective_graph(g, prep)
    n = eg.n
    vid_at = np.arange(n) if positions is None else np.argsort(positions, kind="stable")
    rank = order_to_positions(vid_at)
    # edges grouped by destination position, each list in edge-array order
    by_dst = np.argsort(rank[eg.dst], kind="stable")
    in_adj = _in_adj(n, rank[eg.src][by_dst], rank[eg.dst][by_dst], prep.param[by_dst])
    base = prep.base[vid_at].tolist()
    x = prep.init[vid_at].tolist()
    fixed = {int(rank[v]): val for v, val in prep.fixed.items()}
    order = range(n)
    best = float("inf")
    for _ in range(sweeps):
        t0 = time.perf_counter()
        src = x if positions is not None else x.copy()
        sweep(prep.kind, order, in_adj, x, src, base, fixed)
        best = min(best, time.perf_counter() - t0)
    return best
