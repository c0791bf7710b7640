"""Tests for the local reference engine: correctness oracles and the
paper's theoretical claims (monotonicity, Lemma 1 / Theorem 1 behavior).
"""
import hashlib

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


@pytest.mark.parametrize("algo", sorted(set(ALGOS) - {"cc"}))  # cc symmetrizes the edges
def test_gs_without_positive_edge_is_jacobi(algo):
    """An order with no positive edge takes the one-level round: the
    sequential sweep and Eq. 1 give the same rounds and states."""
    g = ba_graph(120, 3, forward_frac=0.0, seed=1)  # every edge runs high → low id
    pos = np.arange(g.n)
    r1 = gauss_seidel(g, make_algo(algo), pos, impl="python", max_rounds=300)
    r2 = gauss_seidel(g, make_algo(algo), pos, impl="fast", max_rounds=300)
    r3 = jacobi(g, make_algo(algo), max_rounds=300)
    assert r1.rounds == r2.rounds == r3.rounds
    assert np.array_equal(r2.x, r3.x)
    assert np.allclose(
        np.nan_to_num(r1.x, posinf=1e30), np.nan_to_num(r2.x, posinf=1e30), atol=1e-12
    )


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


def negative_depth(g: LocalGraph, algo, pos: np.ndarray, source: int) -> int:
    """Eq. 2 round-count oracle for BFS and SSSP (Yen, Q. Appl. Math. 1970).

    A sweep in a fixed order carries a distance along any run of positive
    edges, so each negative edge on a shortest path costs one more sweep.
    On the shortest-path DAG of x*, weight an edge 1 if it is negative
    (pos[s] > pos[d]) and not out of the source, whose state is final
    before round 1; otherwise 0. The counted rounds of Eq. 2 under ``pos``
    are then 1 + the largest 0-1 distance from the source, returned here.
    """
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
    return int(depth[np.isfinite(depth)].max())


@pytest.mark.parametrize("method", ["default", "gograph", "rabbit", "gorder"])
@pytest.mark.parametrize("name", ["IC", "SK", "GL", "WK", "CP", "LJ"])
def test_eq2_rounds_equal_negative_depth_of_shortest_path_dag(name, method):
    """Eq. 2 rounds are 1 + :func:`negative_depth` for BFS and SSSP."""
    from repro.reorder.api import compute_order

    g = dataset_graph(name, scale=0.1)
    pos = compute_order(g, method)
    source = g.highest_out_degree_vertex()
    for algo_name in ("bfs", "sssp"):
        algo = make_algo(algo_name)
        r = gauss_seidel(g, algo, pos, source=source)
        assert r.converged
        assert r.rounds == 1 + negative_depth(g, algo, pos, source), algo_name


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


def _run_hash(h, r) -> None:
    h.update(f"{r.rounds} {r.converged}".encode())
    for a in (r.deltas, r.sums, r.x):
        h.update(np.asarray(a).tobytes())


# sha256, per graph and algorithm, over jacobi, jacobi(max_rounds=5), fixpoint
# and gauss_seidel under the default and the GoGraph order, on the six bench
# graphs at scale 0.1. Each run adds its rounds, converged, deltas, sums and
# x. Refactors of the engine must keep these byte-identical.
GOLDEN_ENGINE = {
    ("IC", "bfs"): "5d8c2c6eddae686526fefea1ea38afbfbd633d5775f5a11d3e3ab46f5dbf6a47",
    ("IC", "cc"): "3b7c34a4740b6afdf5182a500a31f90d5f4764bca6dd9914c2a557deabda97e6",
    ("IC", "pagerank"): "4d8e63c6572aaeacda05e0bb49cdd23f118ef1f000f6a9ed2e85482a704de774",
    ("IC", "php"): "3db43a11721e786f78dad5c6f5e153f9b40c2bc0905bbfeb63608927f3b77054",
    ("IC", "sssp"): "08aba402486f6890af3095d707238e37a4f22ae90fbd69a2572c90641a977959",
    ("IC", "sswp"): "8999390902bf0eaa5f7ba7197daf84f16bcc3518beead3649f55f624d1f560d4",
    ("SK", "bfs"): "d1413f1135f2192c6ecd4f0584e952419f5c3936627c6af2c810c1e721155442",
    ("SK", "cc"): "51015327245e8d3b692cee46f7036b9369e0bbcef76dc1392e15bdecf76986d5",
    ("SK", "pagerank"): "5bfd3442000abd88be7f5d85fe6bf46b0f126ae900c75b01d15f761fd618c7bf",
    ("SK", "php"): "c19d132ff260956d029c49ee6e1d0558066f9b39eae882f4e45ad4e82625930d",
    ("SK", "sssp"): "f4f1eb7a11f00a540c0a88a339872da0ec5e3959004ea1a60c2e6a08980095b6",
    ("SK", "sswp"): "48612303dabba5a31aa883f0c9fa6043312e1c7d929c13d7148a5fffffef36c4",
    ("GL", "bfs"): "1d9495f259f28b1dcda3a811a6be41959e887e25d3d7bd743446229e7024360d",
    ("GL", "cc"): "40d688f294e86b1feb6fa326b79e6ecd4ccafdb980f44d6d9d48bb301db55ff8",
    ("GL", "pagerank"): "7bbac16745fbbcb34edf057946da4bbc27fa96090330716ac9c3bea8d03ab319",
    ("GL", "php"): "438ce85c76391b95c6684c2973a892dfeed3fe77592581494aa8550d0e748ad3",
    ("GL", "sssp"): "a102af59ed9328e8fe17e1134f7d7ad0691e793bf0bd98854c7e5d69bc8601fa",
    ("GL", "sswp"): "0accff162c7be091d5d1a40dd993f6432c290bab8845ed88e35cc0b9b72b5e0a",
    ("WK", "bfs"): "8960e74d5427e384acafa170bddc9309ebf110d61a6403e8cffb35b1e76dd697",
    ("WK", "cc"): "14658d77dfdd06f8af93a87699125541c493552a4ea2433fd050a1b2bffe2825",
    ("WK", "pagerank"): "9bd932d1f95538b08d64f735e5722b9f619af2c99eeac99bc231d750b02e9e64",
    ("WK", "php"): "966290640b5051cf078eb7492acc9572dd73e2e89c8db6deebb8d0fbad0bb888",
    ("WK", "sssp"): "58b07c4912b204f8647cc22ae8b7e5799a853df7fae66273e43454111c0db29e",
    ("WK", "sswp"): "c3cf85b48e8e91c88c80b167a1116217bc0d8c66c5b295f577c4aa51915a6af7",
    ("CP", "bfs"): "a0d248bc6d8a4cbf0f2783d4bde5bceb8dd90f4936a228e53eefb5ce1ab06a98",
    ("CP", "cc"): "04e14de68a4970b7cd73de6fb3cbcf7b3bdaae50a5c08361ad6870fa524bc6b9",
    ("CP", "pagerank"): "921ed0ef1bc89ab2033615ac342bab224cc29a8301eefe0e066615c1b772ca65",
    ("CP", "php"): "e8a6bab983f8670813ab7d0c328e5e5e7ae7b3b71f85c89d718aa5a423a7a06f",
    ("CP", "sssp"): "926a06945fea427565a081b2322a118e9c28ca3e4c2391f609f0e4618b490d71",
    ("CP", "sswp"): "4aa6e42f7002d10c3c1d65a7775883197c618d4334b932003236ae5bbaa78f11",
    ("LJ", "bfs"): "4e941c0f8d166b9bafe7602a2436c140c803bef7345a25fd6eb8a2914038faf1",
    ("LJ", "cc"): "f599919eb26df38a4c02fefb795ae804ccac642b2c17e1f48f8c461aef2a0763",
    ("LJ", "pagerank"): "a4d8cba5cdb8aad37f97a22c60f42219eb1b64b1692b2c5ac509b10cef688edd",
    ("LJ", "php"): "6293f728a28c756f24f20e57867ce4a6c3e14870c9a6c1a6713e35dc02ef63a3",
    ("LJ", "sssp"): "44dc0b0140e63ee1bcd96f1e440cac7ec25921000164a348e6c8c0a8ca37c748",
    ("LJ", "sswp"): "122116c84b32bf8a6671e5dc3eab064f40f17a8eb5c44e09984ff486859995b6",
}


@pytest.mark.parametrize("name", ["IC", "SK", "GL", "WK", "CP", "LJ"])
def test_golden_engine_outputs(name):
    from repro.reorder.api import compute_order

    g = dataset_graph(name, scale=0.1)
    orders = [compute_order(g, m) for m in ("default", "gograph")]
    got = {}
    for algo_name in sorted(ALGOS):
        algo = make_algo(algo_name)
        h = hashlib.sha256()
        _run_hash(h, jacobi(g, algo))
        _run_hash(h, jacobi(g, algo, max_rounds=5))
        h.update(fixpoint(g, algo).tobytes())
        for pos in orders:
            _run_hash(h, gauss_seidel(g, algo, pos))
        got[algo_name] = h.hexdigest()
    want = {a: v for (n, a), v in GOLDEN_ENGINE.items() if n == name}
    assert got == want
