"""Generator outputs against the scalar-draw loops they replace.

``community_ba_graph`` replays its per-draw ``rng.random()`` and
``rng.integers(0, k)`` calls from raw PCG64 words read in bulk, and
``_ba_undirected_pairs`` grows its repeated-nodes pool in a preallocated
buffer. The loops below are the previous implementations, kept as the
reference: every output must be bit-identical to theirs.
"""
import numpy as np
import pytest

from repro.graphs.gen import (
    DATASETS,
    _ba_undirected_pairs,
    _dedupe,
    _orient,
    _ScalarDraws,
    community_ba_graph,
    dataset_graph,
)


def _community_ba_reference(
    n, m, *, comm_size=150, p_intra=0.9, forward_frac=0.5, extra_frac=0.0, seed=0
):
    """``community_ba_graph`` with one numpy call per draw."""
    rng = np.random.default_rng(seed)
    n_comms = max(1, n // comm_size)
    comm = rng.integers(0, n_comms, size=n)
    pools = [[] for _ in range(n_comms)]
    global_pool = []
    pairs = []
    for v in range(n):
        c = int(comm[v])
        targets = set()
        for _ in range(m):
            use_intra = pools[c] and rng.random() < p_intra
            pool = pools[c] if use_intra else global_pool
            if not pool:
                continue
            t = pool[int(rng.integers(0, len(pool)))]
            if t != v:
                targets.add(t)
        for t in targets:
            pairs.append((v, t))
            pools[int(comm[t])].append(t)
            global_pool.append(t)
        pools[c].append(v)
        global_pool.append(v)
    arr = np.asarray(pairs, dtype=np.int64)
    if extra_frac > 0:
        k = int(len(arr) * extra_frac)
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        keep = a != b
        arr = np.concatenate([arr, np.stack([a[keep], b[keep]], axis=1)])
    arr = _dedupe(_orient(arr, forward_frac, rng))
    w = rng.integers(1, 11, size=len(arr)).astype(np.float64)
    return arr[:, 0], arr[:, 1], w


def _ba_pairs_reference(n, m, rng):
    """``_ba_undirected_pairs`` growing its pool by one concatenate per vertex."""
    rep = np.array(list(range(m)), dtype=np.int64)
    edges = []
    for v in range(m, n):
        idx = rng.integers(0, len(rep), size=m)
        targets = np.unique(rep[idx])
        for t in targets:
            edges.append((v, int(t)))
        rep = np.concatenate([rep, targets, np.full(len(targets), v, dtype=np.int64)])
    return np.asarray(edges, dtype=np.int64)


def _assert_same(g, ref):
    src, dst, w = ref
    assert np.array_equal(g.src, src)
    assert np.array_equal(g.dst, dst)
    assert np.array_equal(g.w, w)


def _dataset_kwargs(name, scale):
    p = DATASETS[name]
    return dict(
        n=max(p["m"] + 2, int(p["n"] * scale)),
        m=p["m"],
        comm_size=max(10, int(p["comm"] * scale**0.5)),
        forward_frac=p["forward"],
        extra_frac=p["extra"],
    )


@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_graph_matches_scalar_loop(name, scale):
    kw = _dataset_kwargs(name, scale)
    ref = _community_ba_reference(**kw, seed=DATASETS[name]["seed"])
    _assert_same(dataset_graph(name, scale=scale), ref)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_community_ba_matches_scalar_loop_over_seeds(name, seed):
    kw = _dataset_kwargs(name, 0.1)
    g = community_ba_graph(**kw, seed=seed)
    _assert_same(g, _community_ba_reference(**kw, seed=seed))


@pytest.mark.parametrize(
    "n, m, comm_size",
    [
        (6, 4, 10),  # n = m + 2, the smallest dataset_graph size
        (3, 1, 10),  # n = m + 2 with a single draw per vertex
        (40, 3, 40),  # comm_size == n: one community
        (40, 3, 500),  # comm_size > n
        (25, 2, 1),  # 25 one-vertex communities: intra pools of length 1
        (60, 5, 2),  # pools of length 1 and 2 under many draws
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_community_ba_edge_cases(n, m, comm_size, seed):
    kw = dict(n=n, m=m, comm_size=comm_size, forward_frac=0.3, extra_frac=0.2)
    _assert_same(community_ba_graph(**kw, seed=seed), _community_ba_reference(**kw, seed=seed))


def _scalar_calls(rng, calls):
    return [rng.random() if k is None else int(rng.integers(0, k)) for k in calls]


def _replayed_calls(rng, calls):
    draws = _ScalarDraws(rng)
    out = [draws.random() if k is None else draws.integers(k) for k in calls]
    draws.close()
    return out


@pytest.mark.parametrize(
    "calls",
    [
        [None, 5, 1, 1, 7, None, 3],  # k == 1 draws nothing
        [3],  # ends with a buffered 32-bit half
        [3, 3],  # ends with the buffer consumed
        [None] * 3 + [1] * 4,
        [2**31 + 1, 2**31 + 3, 2**32 - 1, 2**31 + 1] * 50,  # Lemire rejects ~50 %
        [None, 12, 2**31 + 1] * 4000,  # spans several bulk reads
    ],
)
@pytest.mark.parametrize("seed", [0, 105])
def test_replay_matches_generator_and_leaves_same_state(calls, seed):
    ref_rng = np.random.default_rng(seed)
    ref = _scalar_calls(ref_rng, calls)
    rng = np.random.default_rng(seed)
    assert _replayed_calls(rng, calls) == ref
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # later draws continue identically, scalar and bulk
    assert _scalar_calls(rng, [9, None, 4]) == _scalar_calls(ref_rng, [9, None, 4])
    assert np.array_equal(rng.integers(0, 10**9, size=5), ref_rng.integers(0, 10**9, size=5))


def test_replay_starts_from_a_buffered_half():
    ref_rng = np.random.default_rng(3)
    rng = np.random.default_rng(3)
    ref_rng.integers(0, 5)
    rng.integers(0, 5)  # leaves has_uint32 set
    assert rng.bit_generator.state["has_uint32"] == 1
    calls = [6, None, 2**31 + 1, 6]
    assert _replayed_calls(rng, calls) == _scalar_calls(ref_rng, calls)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("k", [0, 2**32, 2**40])
def test_replay_rejects_k_outside_32_bits(k):
    draws = _ScalarDraws(np.random.default_rng(0))
    with pytest.raises(ValueError):
        draws.integers(k)


def test_replay_rejects_other_bit_generators():
    with pytest.raises(ValueError):
        _ScalarDraws(np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("n, m, seed", [(3, 2, 0), (5, 1, 1), (60, 3, 2), (400, 4, 3), (300, 7, 4)])
def test_ba_pairs_match_concatenating_pool(n, m, seed):
    got = _ba_undirected_pairs(n, m, np.random.default_rng(seed))
    ref = _ba_pairs_reference(n, m, np.random.default_rng(seed))
    assert np.array_equal(got, ref)

