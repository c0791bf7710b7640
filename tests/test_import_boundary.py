"""The numpy path loads no Spark stack.

Generating a stand-in, reordering it and running the reference engine
must not import pandas, pyarrow or pyspark: those cost ~0.5 s and ~70 MB
at start-up, and only the Spark and DataFrame functions use them (they
import them when called). Checked in a fresh interpreter, since the test
session itself has Spark loaded.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import repro.graphs, repro.reorder, repro.partition, repro.core
import repro.engine, repro.cachesim, repro.experiments.cache
from repro.core.gograph import gograph_order
from repro.engine.algorithms import make_algo
from repro.engine.reference import gauss_seidel
from repro.graphs.gen import dataset_graph

g = dataset_graph("IC", scale=0.1)
pos = gograph_order(g)
gauss_seidel(g, make_algo("pagerank"), pos, max_rounds=1)
print(",".join(m for m in ("pandas", "pyarrow", "pyspark") if m in sys.modules))
"""


def test_numpy_path_imports_no_spark_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    r = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "", f"loaded: {r.stdout.strip()}"
