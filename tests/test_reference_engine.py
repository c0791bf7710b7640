"""Tests for the local reference engine: correctness oracles and the
paper's theoretical claims (monotonicity, Lemma 1 / Theorem 1 behavior).
"""
import numpy as np
import pytest

from repro.engine.algorithms import ALGOS, effective_graph, make_algo
from repro.engine.reference import fixpoint, gauss_seidel, jacobi, per_round_time, sweep
from repro.graphs.gen import ba_graph, dataset_graph
from repro.graphs.local import LocalGraph

SEEDS = range(4)


def _bellman_ford(g: LocalGraph, source: int) -> np.ndarray:
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    for _ in range(g.n):
        nd = dist.copy()
        np.minimum.at(nd, g.dst, dist[g.src] + g.w)
        if np.array_equal(
            np.nan_to_num(nd, posinf=1e30), np.nan_to_num(dist, posinf=1e30)
        ):
            break
        dist = nd
    return dist


def _hops(g: LocalGraph, source: int) -> np.ndarray:
    gu = LocalGraph(n=g.n, src=g.src, dst=g.dst, w=np.ones(g.n_edges))
    return _bellman_ford(gu, source)


def _components(g: LocalGraph) -> np.ndarray:
    # union-find oracle for weakly connected components (min label)
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s, d in zip(g.src.tolist(), g.dst.tolist()):
        ra, rb = find(s), find(d)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(v) for v in range(g.n)], dtype=np.float64)


@pytest.mark.parametrize("seed", SEEDS)
def test_sssp_matches_bellman_ford(seed):
    g = ba_graph(200, 3, forward_frac=0.4, extra_frac=0.2, seed=seed)
    src = g.highest_out_degree_vertex()
    r = jacobi(g, make_algo("sssp"), source=src)
    expect = _bellman_ford(g, src)
    assert np.array_equal(
        np.nan_to_num(r.x, posinf=1e30), np.nan_to_num(expect, posinf=1e30)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_bfs_matches_hop_counts(seed):
    g = ba_graph(200, 3, forward_frac=0.4, extra_frac=0.2, seed=seed)
    src = g.highest_out_degree_vertex()
    r = jacobi(g, make_algo("bfs"), source=src)
    expect = _hops(g, src)
    assert np.array_equal(
        np.nan_to_num(r.x, posinf=1e30), np.nan_to_num(expect, posinf=1e30)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_cc_matches_union_find(seed):
    g = ba_graph(150, 2, forward_frac=0.5, seed=seed)
    r = jacobi(g, make_algo("cc"))
    assert np.array_equal(r.x, _components(g))


@pytest.mark.parametrize("seed", SEEDS)
def test_pagerank_fixpoint_satisfies_equations(seed):
    g = ba_graph(150, 3, seed=seed)
    x = fixpoint(g, make_algo("pagerank"))
    outdeg = np.maximum(g.out_degree(), 1)
    rhs = 0.15 + 0.85 * np.bincount(
        g.dst, weights=x[g.src] / outdeg[g.src], minlength=g.n
    )
    assert np.abs(x - rhs).max() < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_php_fixpoint_satisfies_equations(seed):
    g = ba_graph(150, 3, seed=seed)
    src = g.highest_out_degree_vertex()
    x = fixpoint(g, make_algo("php"), source=src)
    outw = np.maximum(g.out_weight(), 1e-12)
    rhs = 0.85 * np.bincount(
        g.dst, weights=x[g.src] * g.w / outw[g.src], minlength=g.n
    )
    rhs[src] = 1.0
    assert np.abs(x - rhs).max() < 1e-6


def test_sswp_widest_path_small_oracle():
    # 0→1 (w=2), 0→2 (w=9), 2→1 (w=5): widest path to 1 is min(9,5)=5
    g = LocalGraph(
        n=3,
        src=np.array([0, 0, 2]),
        dst=np.array([1, 2, 1]),
        w=np.array([2.0, 9.0, 5.0]),
    )
    r = jacobi(g, make_algo("sswp"), source=0)
    assert r.x[1] == 5.0 and r.x[2] == 9.0


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_gs_reaches_same_fixpoint_as_jacobi(algo):
    g = ba_graph(150, 3, forward_frac=0.3, extra_frac=0.2, seed=7)
    pos = np.random.default_rng(0).permutation(g.n)
    rj = jacobi(g, make_algo(algo))
    rg = gauss_seidel(g, make_algo(algo), pos)
    tol = 1e-4 if ALGOS[algo].kind == "sum" else 0
    assert np.allclose(
        np.nan_to_num(rj.x, posinf=1e30),
        np.nan_to_num(rg.x, posinf=1e30),
        atol=tol,
    )


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("seed", range(2))
def test_fast_gs_matches_python_gs(algo, seed):
    """The vectorized level engine is exactly the sequential sweep."""
    g = ba_graph(120, 3, forward_frac=0.3, extra_frac=0.2, seed=seed)
    pos = np.random.default_rng(seed).permutation(g.n)
    r1 = gauss_seidel(g, make_algo(algo), pos, impl="python", max_rounds=300)
    r2 = gauss_seidel(g, make_algo(algo), pos, impl="fast", max_rounds=300)
    assert r1.rounds == r2.rounds
    assert np.allclose(
        np.nan_to_num(r1.x, posinf=1e30),
        np.nan_to_num(r2.x, posinf=1e30),
        atol=1e-12,
    )
    assert np.allclose(r1.deltas, r2.deltas)


@pytest.mark.parametrize("algo", ["pagerank", "sssp", "bfs", "php"])
def test_gs_never_more_rounds_than_jacobi(algo):
    """Monotone F ⇒ using fresher states cannot slow convergence."""
    g = dataset_graph("CP", scale=0.1)
    rj = jacobi(g, make_algo(algo))
    rg = gauss_seidel(g, make_algo(algo), np.arange(g.n))
    assert rg.rounds <= rj.rounds


def test_good_order_fewer_rounds_than_bad_order():
    """Theorem 1 consequence: more positive edges → faster convergence."""
    from repro.core.gograph import gograph_order
    from repro.core.metric import metric_m_local

    g = dataset_graph("CP", scale=0.1)
    pos_good = gograph_order(g)
    pos_bad = np.arange(g.n)
    assert metric_m_local(g, pos_good) > metric_m_local(g, pos_bad)
    for algo in ("pagerank", "php"):
        r_good = gauss_seidel(g, make_algo(algo), pos_good)
        r_bad = gauss_seidel(g, make_algo(algo), pos_bad)
        assert r_good.rounds < r_bad.rounds


def test_pagerank_iterates_monotone_increasing():
    """§III monotonicity: with x⁰=0, PR iterates only grow toward x*."""
    g = ba_graph(200, 3, seed=3)
    r = jacobi(g, make_algo("pagerank"))
    assert all(b >= a - 1e-12 for a, b in zip(r.sums, r.sums[1:]))


def test_sssp_iterates_monotone_decreasing():
    g = ba_graph(200, 3, forward_frac=0.4, seed=3)
    src = g.highest_out_degree_vertex()
    r = jacobi(g, make_algo("sssp"), source=src)
    # finite sums can grow as vertices become reachable; per-vertex states
    # never increase — check via re-running and tracking manually
    prep = make_algo("sssp").prepare(g, src)
    x = prep.init.copy()
    for _ in range(r.rounds + 1):
        xn = x.copy()
        np.minimum.at(xn, g.dst, x[g.src] + g.w)
        assert (xn <= x).all()
        x = xn


def test_topological_order_converges_sssp_in_one_round():
    """A DAG processed in topological order finishes SSSP in one sweep."""
    g = ba_graph(200, 3, forward_frac=1.0, extra_frac=0.0, seed=4)  # DAG, src<dst
    src = g.highest_out_degree_vertex()
    r = gauss_seidel(g, make_algo("sssp"), np.arange(g.n), source=src)
    assert r.rounds == 1


def test_round_counting_excludes_detection_sweep():
    # two-vertex chain: SSSP needs exactly one counted round
    g = LocalGraph(
        n=2, src=np.array([0]), dst=np.array([1]), w=np.array([2.0])
    )
    r = gauss_seidel(g, make_algo("sssp"), np.arange(2), source=0)
    assert r.rounds == 1 and r.converged


@pytest.mark.parametrize("method", ["default", "gograph", "rabbit", "gorder"])
@pytest.mark.parametrize("name", ["IC", "SK", "GL", "WK", "CP", "LJ"])
def test_eq2_rounds_equal_negative_depth_of_shortest_path_dag(name, method):
    """Eq. 2 round-count oracle for BFS and SSSP (Yen, Q. Appl. Math. 1970).

    A sweep in a fixed order carries a distance along any run of positive
    edges, so each negative edge on a shortest path costs one more sweep.
    On the shortest-path DAG of x*, weight an edge 1 if it is negative
    (pos[s] > pos[d]) and not out of the source, whose state is final
    before round 1; otherwise 0. The counted rounds are then 1 + the
    largest 0-1 distance from the source.
    """
    from repro.reorder.api import compute_order

    g = dataset_graph(name, scale=0.1)
    pos = compute_order(g, method)
    source = g.highest_out_degree_vertex()
    for algo_name in ("bfs", "sssp"):
        algo = make_algo(algo_name)
        x = fixpoint(g, algo, source=source)
        param = algo.prepare(g, source).param
        tight = np.isfinite(x[g.src]) & (x[g.dst] == x[g.src] + param)
        s, d = g.src[tight], g.dst[tight]
        w = ((pos[s] > pos[d]) & (s != source)).astype(float)
        depth = np.full(g.n, np.inf)
        depth[source] = 0.0
        while True:  # Bellman-Ford over the 0-1 weights
            nd = depth.copy()
            np.minimum.at(nd, d, depth[s] + w)
            if np.array_equal(nd, depth):
                break
            depth = nd
        r = gauss_seidel(g, algo, pos, source=source)
        assert r.converged
        assert r.rounds == 1 + int(depth[np.isfinite(depth)].max()), algo_name


def test_per_round_time_positive_and_stable():
    g = dataset_graph("IC", scale=0.1)
    t_sync = per_round_time(g, make_algo("pagerank"), None, sweeps=2)
    t_async = per_round_time(g, make_algo("pagerank"), np.arange(g.n), sweeps=2)
    assert t_sync > 0 and t_async > 0


@pytest.mark.parametrize("algo_name", ["pagerank", "sssp", "php", "sswp", "cc"])
@pytest.mark.parametrize("order", ["identity", "reversed", "shuffled", "sync"])
def test_per_round_time_sweeps_the_graph_relabelled_into_position_order(
    monkeypatch, algo_name, order
):
    # the timed sweep runs on the graph relabelled so that vertex i is the
    # one at position i; mapped back, its states are one round of the engine
    from repro.engine import reference

    g = dataset_graph("IC", scale=0.1)
    positions = {
        "identity": np.arange(g.n),
        "reversed": np.arange(g.n)[::-1].copy(),
        "shuffled": np.random.default_rng(5).permutation(g.n),
        "sync": None,
    }[order]
    seen = []
    inner = reference.sweep

    def recording_sweep(kind, order_, in_adj, x, src, base, fixed):
        inner(kind, order_, in_adj, x, src, base, fixed)
        seen.append((list(order_), list(x)))

    monkeypatch.setattr(reference, "sweep", recording_sweep)
    algo = make_algo(algo_name)
    per_round_time(g, algo, positions, sweeps=1)
    (swept, x), = seen
    assert swept == list(range(g.n))
    if positions is None:
        # one Eq. 1 sweep in vid order, reading a round-start copy
        prep = algo.prepare(g, None)
        eg = effective_graph(g, prep)
        want = prep.init.tolist()
        in_adj = reference._in_adj(eg.n, eg.src, eg.dst, prep.param)
        inner(prep.kind, range(g.n), in_adj, want, list(want), prep.base.tolist(), prep.fixed)
        rank = np.arange(g.n)
    else:
        want = gauss_seidel(g, algo, positions, max_rounds=1, impl="python").x
        rank = positions
    assert np.array_equal(np.asarray(x)[rank], np.asarray(want))


def test_unconverged_run_reports_flag():
    g = dataset_graph("CP", scale=0.1)
    r = jacobi(g, make_algo("pagerank"), max_rounds=3)
    assert not r.converged and r.rounds == 3


INF = float("inf")
CHAIN = {0: [], 1: [(0, 1.0)], 2: [(1, 1.0)]}  # SSSP chain 0 → 1 → 2


@pytest.mark.parametrize(
    "kind, order, in_adj, x, eq1, fixed, expect",
    [
        # forward order: one Eq. 2 sweep propagates through both hops
        ("min", [0, 1, 2], CHAIN, [0.0, INF, INF], False, set(), [0.0, 1.0, 2.0]),
        # reverse order: 2 is swept before 1 and reads 1's previous-round value
        ("min", [2, 1, 0], CHAIN, [0.0, INF, INF], False, set(), [0.0, 1.0, INF]),
        # a fixed vertex keeps its clamped value and later vertices read it
        ("sum", [0, 1], {0: [(1, 0.5)], 1: [(0, 0.5)]}, {0: 1.0, 1: 0.0}, False, {0}, {0: 1.0, 1: 0.5}),
        # a round-start snapshot as src gives Eq. 1: no this-round values are read
        ("min", [0, 1, 2], CHAIN, [0.0, INF, INF], True, set(), [0.0, 1.0, INF]),
        # one update per kind: base + Σ x_u·p, min(x_v, x_u + p), max(x_v, min(x_u, p))
        ("sum", [0], {0: [(1, 0.5), (2, 0.25)]}, [0.0, 1.0, 2.0], False, set(), [1.15, 1.0, 2.0]),
        ("min", [0], {0: [(1, 1.0), (2, 1.0)]}, [7.0, 3.0, 10.0], False, set(), [4.0, 3.0, 10.0]),
        ("min", [0], {0: [(1, 1.0)]}, [2.0, 3.0], False, set(), [2.0, 3.0]),
        ("maxmin", [0], {0: [(1, 3.0), (2, 9.0)]}, [0.0, 5.0, 2.0], False, set(), [3.0, 5.0, 2.0]),
    ],
    ids=[
        "forward-chain",
        "reverse-reads-previous",
        "fixed-clamped",
        "snapshot-is-eq1",
        "sum-update",
        "min-update",
        "min-keeps-own",
        "maxmin-update",
    ],
)
def test_sweep_semantics(kind, order, in_adj, x, eq1, fixed, expect):
    src = x.copy() if eq1 else x
    sweep(kind, order, in_adj, x, src, {0: 0.15, 1: 0.0, 2: 0.0}, fixed)
    assert x == pytest.approx(expect)


def test_sweep_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sweep("prod", [0], {0: []}, [0.0], [0.0], [0.0], set())
