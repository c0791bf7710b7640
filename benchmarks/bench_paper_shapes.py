"""The paper's shape on every table and figure, at bench scale.

One case per ``repro.experiments.registry`` entry: it runs the entry's
harness once and asserts what the paper claims of it. Timing is
``perfbench/``'s job; these cases only check results.
"""
import pytest

from repro.experiments.registry import EXPERIMENTS


def _table1(df):
    assert len(df) == 6


def _table2(df, paper):
    d = df.set_index("method")
    assert d["M"].idxmax() == "gograph"
    assert d.loc["gograph", "rounds_pagerank"] == d["rounds_pagerank"].min()


def _fig5_6(df, speedups):
    gg = df[df["method"] == "gograph"]
    # paper: fewest rounds "on most tested conditions" — assert the robust
    # aggregate plus the long-horizon algorithms cell-by-cell
    assert gg["norm_rounds"].mean() < 1.0
    long_horizon = gg[gg["algo"].isin(["pagerank", "php"])]
    assert (long_horizon["norm_rounds"] <= 1.0 + 1e-9).all()


def _fig7(df, frac):
    # paper: GoGraph needs 59% of the others' average time; our scaled-down
    # stand-ins are noisier on short-horizon cells — assert the aggregate
    assert frac["gograph_time_frac"].mean() < 1.0


def _fig8(df):
    assert (df["async_gograph_rounds"] <= df["sync_def_rounds"]).all()


def _fig9_10(misses, partition):
    gg = misses[misses["method"] == "gograph"]["norm_misses"]
    assert gg.mean() < 0.8  # paper: ~30% average reduction
    # paper: 33% average / 58% max reduction from partitioning
    assert partition["reduction_pct"].mean() > 10
    assert partition["reduction_pct"].max() > 30


def _fig11(df):
    assert (df["sync_overhead_ratio"] > 1.0).all()


def _fig12(df):
    gg = df[df["method"] == "gograph"].set_index("avg_degree")["rounds"]
    dd = df[df["method"] == "default"].set_index("avg_degree")["rounds"]
    assert (gg <= dd).all()


def _fig13(df):
    assert set(df["partitioner"]) == {"rabbit", "metis", "louvain", "fennel"}


SHAPES = {
    "table1": _table1,
    "table2": _table2,
    "fig5_6": _fig5_6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9_10": _fig9_10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_shape(name):
    tables = EXPERIMENTS[name]("bench")
    for title, df, _ in tables:
        print(f"\n[{name}] {title or ''}\n", df.to_string(index=False))
    SHAPES[name](*(df for _, df, _ in tables))
