"""Smoke tests for the per-table experiment harnesses (test scale)."""
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.experiments import common
from repro.experiments.async_impact import async_impact
from repro.experiments.cache import cache_misses, partition_effect
from repro.experiments.common import load_graph, markdown_table, run_async, run_sync
from repro.experiments.convergence import convergence, gograph_time_fraction
from repro.experiments.degrees import degrees_experiment
from repro.experiments.memuse import memory_usage
from repro.experiments.overall import gograph_speedups, overall
from repro.experiments.partition_methods import partition_methods
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.table1 import PAPER_TABLE1, table1
from repro.experiments.table2 import PAPER_TABLE2, table2
from repro.reorder.api import METHODS

ROOT = Path(__file__).resolve().parents[1]


def test_capped_run_raises():
    """A run stopped at max_rounds has no round count to report."""
    g = load_graph("CP", "test")
    with pytest.raises(RuntimeError, match="pagerank.*max_rounds=5"):
        run_async(g, "pagerank", np.arange(g.n), max_rounds=5)
    with pytest.raises(RuntimeError, match="pagerank.*max_rounds=5"):
        run_sync(g, "pagerank", max_rounds=5)
    assert run_async(g, "pagerank", np.arange(g.n)).converged


def test_convergence_refuses_capped_run(monkeypatch):
    """Fig 7 reports rounds_to_eps only for runs that converged."""
    real = common.gauss_seidel
    monkeypatch.setattr(
        common,
        "gauss_seidel",
        lambda *a, **kw: dataclasses.replace(real(*a, **kw), converged=False),
    )
    with pytest.raises(RuntimeError, match="pagerank.*max_rounds=500"):
        convergence("test", graphs=("CP",), algos=("pagerank",))


def test_registry_names_are_design_rows():
    """One registry entry per DESIGN.md §3 row, in the same order."""
    design = (ROOT / "DESIGN.md").read_text()
    section = design.split("## 3.", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|.*\| `(\w+)` \|$", section, re.M)
    assert len(rows) == 9
    assert rows == list(EXPERIMENTS)


def _run_job(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run.py"), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_job_prints_markdown_table():
    r = _run_job("table1", "--scale", "test")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("| graph |")


def test_run_job_rejects_unknown_name():
    r = _run_job("table3", "--scale", "test")
    assert r.returncode != 0
    assert "table3" in r.stderr


def test_fig5_6_discussion_reads_depths_from_the_rounds():
    """EXPERIMENTS.md's Fig 5/6 prose names the BFS/SSSP cells where GoGraph
    takes more rounds than Default, with each depth as rounds − 1."""
    sys.path.insert(0, str(ROOT / "jobs"))
    try:
        from make_experiments_md import more_rounds_than_default
    finally:
        sys.path.remove(str(ROOT / "jobs"))
    rows = [
        ("IC", "bfs", 4, 5), ("IC", "sssp", 7, 6), ("IC", "pagerank", 45, 50)
    ]
    df = pd.DataFrame(
        [(g, a, m, r) for g, a, d, gg in rows for m, r in (("default", d), ("gograph", gg))],
        columns=["graph", "algo", "method", "rounds"],
    )
    text = more_rounds_than_default(df).replace("\n", " ")
    assert "3 → 4 (IC BFS)" in text
    assert "SSSP)" not in text and "PAGERANK" not in text
    better = df.assign(rounds=np.where(df["method"] == "gograph", 1, df["rounds"]))
    assert "no more BFS or SSSP rounds" in more_rounds_than_default(better)


def test_table1_covers_all_paper_datasets():
    df = table1("test")
    assert set(df["graph"]) == set(PAPER_TABLE1)
    assert (df["ours_V"] > 0).all() and (df["ours_E"] > 0).all()


def test_table2_has_all_methods_and_columns():
    df = table2("test")
    assert list(df["method"]) == list(METHODS)
    for c in ("M", "M_over_E", "rounds_pagerank", "rounds_sssp", "rounds_bfs", "rounds_php"):
        assert c in df.columns


def test_table2_gograph_max_metric_min_pagerank_rounds():
    """The paper's Table II shape at test scale."""
    df = table2("test").set_index("method")
    assert df["M"].idxmax() == "gograph"
    assert df.loc["gograph", "rounds_pagerank"] == df["rounds_pagerank"].min()
    assert df.loc["gograph", "rounds_php"] == df["rounds_php"].min()


def test_table2_default_matches_forward_frac():
    df = table2("test").set_index("method")
    assert df.loc["default", "M_over_E"] == pytest.approx(0.07, abs=0.03)


def test_overall_normalization():
    df = overall("test", graphs=("IC",), algos=("sssp",), repeats=1)
    base = df[(df["method"] == "default")]
    assert np.allclose(base["norm_rounds"], 1.0)
    assert np.allclose(base["norm_runtime"], 1.0)
    assert len(df) == len(METHODS)


def test_gograph_speedups_shape():
    df = overall("test", graphs=("CP",), algos=("pagerank",), repeats=1)
    sp = gograph_speedups(df)
    assert set(sp["vs_method"]) == set(METHODS) - {"gograph"}
    assert (sp["round_red_avg_pct"] >= 0).all()


def test_async_impact_rounds_ordering():
    """Sync ≥ Async+Default ≥ Async+GoGraph in rounds (paper Fig 8)."""
    df = async_impact("test", graphs=("CP",), repeats=1)
    assert (df["async_def_rounds"] <= df["sync_def_rounds"]).all()
    assert (df["async_gograph_rounds"] <= df["async_def_rounds"]).all()


def test_cache_misses_harness_columns():
    df = cache_misses("test", graphs=("IC",))
    assert set(df["method"]) == set(METHODS)
    assert (df["misses"] <= df["accesses"]).all()


def test_partition_effect_harness():
    df = partition_effect("test", graphs=("IC",))
    assert {"misses_with_partition", "misses_without_partition"} <= set(df.columns)


def test_memory_usage_sync_highest():
    df = memory_usage("test", graphs=("CP",))
    assert (df["sync_default_MiB"] > df["async_default_MiB"]).all()
    assert (df["async_gograph_MiB"] == df["async_default_MiB"]).all()


def test_degrees_experiment_shape():
    df = degrees_experiment(n=600, repeats=1)
    assert set(df["avg_degree"]) == {2, 4, 6, 8}
    # heavier graphs have more edges
    e = df.groupby("avg_degree")["edges"].first()
    assert e.loc[8] > e.loc[2]


def test_partition_methods_normalized_to_rabbit():
    df = partition_methods("test", graphs=("CP",), repeats=1)
    rb = df[df["partitioner"] == "rabbit"]
    assert np.allclose(rb["norm_rounds"], 1.0)
    assert set(df["partitioner"]) == {"rabbit", "metis", "louvain", "fennel"}


def test_convergence_harness():
    df = convergence("test", graphs=("CP",), algos=("pagerank",))
    assert set(df["method"]) == set(METHODS)
    frac = gograph_time_fraction(df)
    assert (frac["gograph_time_frac"] > 0).all()


def test_convergence_charges_every_order_one_round_time():
    """Within a (graph, algo) cell, Fig 7's time is rounds × one per-round time."""
    df = convergence("test", graphs=("CP",), algos=("pagerank", "sssp"))
    for _, cell in df.groupby(["graph", "algo"]):
        per_round = (cell["time_to_eps_s"] / cell["rounds_to_eps"]).to_numpy()
        assert np.allclose(per_round, per_round[0], rtol=1e-12, atol=0.0)


def test_markdown_table_renders():
    df = table1("test")
    md = markdown_table(df)
    assert md.startswith("| graph |")
    assert md.count("\n") == len(df) + 1
