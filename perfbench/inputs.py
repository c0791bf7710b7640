"""Benchmark inputs: the paper's stand-in graphs, generated from a seed.

``graph(name, scale, seed)`` builds the stand-in of ``repro.graphs.gen.
DATASETS[name]`` exactly as ``dataset_graph`` does, except that the
generator seed comes from the benchmark. With the Table I seed (105 for
CP, 101 for IC) it is the same graph the experiments use.
"""
from __future__ import annotations

from repro.graphs import gen
from repro.graphs.local import LocalGraph

TABLE1_SEEDS = {name: p["seed"] for name, p in gen.DATASETS.items()}


def graph(name: str, scale: float, seed: int) -> LocalGraph:
    """Stand-in ``name`` at ``scale``, generated with ``seed``."""
    p = gen.DATASETS[name]
    n = max(p["m"] + 2, int(p["n"] * scale))
    # looked up on the module at call time, so a traced run sees the call
    return gen.community_ba_graph(
        n,
        p["m"],
        comm_size=max(10, int(p["comm"] * scale**0.5)),
        forward_frac=p["forward"],
        extra_frac=p["extra"],
        seed=seed,
        name=name,
    )


def fresh(g: LocalGraph) -> LocalGraph:
    """Same edges, empty adjacency cache: no call inherits another's lists."""
    return LocalGraph(n=g.n, src=g.src, dst=g.dst, w=g.w, name=g.name)
