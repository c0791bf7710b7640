"""Print one paper table or figure (DESIGN.md §3) as markdown tables.

Usage: spark-submit jobs/run.py <name> [--scale bench|test]
  name: table1 table2 fig5_6 fig7 fig8 fig9_10 fig11 fig12 fig13
"""
import argparse

from repro.experiments.common import SCALES, markdown_table
from repro.experiments.registry import EXPERIMENTS

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("name", choices=list(EXPERIMENTS))
    ap.add_argument("--scale", default="bench", choices=list(SCALES))
    args = ap.parse_args()
    for i, (title, df, float_fmt) in enumerate(EXPERIMENTS[args.name](args.scale)):
        if i:
            print()
        if title:
            print(title)
        print(markdown_table(df, float_fmt=float_fmt))
