#!/usr/bin/env python3
"""Cluster a graph file end to end and print the partition at chosen levels.

Reads .gml, .csv adjacency, or a whitespace edge list; writes dendrogram
artifacts to --out-dir and prints the clusters obtained by cutting the tree
at each --level (default: the three largest merge levels in the tree).
"""

import argparse
import logging
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from graphtree import Merge, load_graph_file, run_dataset_clustering


def largest_levels(dendro, count=3):
    """The count largest distinct merge levels, walking the tree with an explicit stack."""
    seen = set()
    stack = [dendro.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Merge):
            seen.add(node.level)
            stack += [node.left, node.right]
    return sorted(seen, reverse=True)[:count]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="graph file (.gml, .csv, or edge list)")
    ap.add_argument("--C", type=float, default=0.09)
    ap.add_argument("--variant", default="modified", choices=["modified", "original"])
    ap.add_argument("--out-dir", default="results/dataset")
    ap.add_argument("--baseline", action="store_true",
                    help="also cluster negated column distances")
    ap.add_argument("--level", type=float, action="append", default=None,
                    help="cut level; repeatable")
    ap.add_argument("--max-print", type=int, default=12,
                    help="print at most this many clusters per level")
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

    dendro = run_dataset_clustering(
        args.input, c=args.C, variant=args.variant,
        out_dir=args.out_dir, baseline=args.baseline,
    )
    _, labels = load_graph_file(args.input)

    levels = args.level or largest_levels(dendro)
    for lam in levels:
        parts = dendro.cut(lam)
        print(f"\nlevel {lam:g}: {len(parts)} clusters")
        for c in parts[: args.max_print]:
            names = [labels[i] for i in c]
            shown = ", ".join(names[:8]) + (", ..." if len(names) > 8 else "")
            print(f"  [{len(c):3d}] {shown}")
        if len(parts) > args.max_print:
            print(f"  ... and {len(parts) - args.max_print} more")
    print(f"\nartifacts in {args.out_dir}")


if __name__ == "__main__":
    main()
