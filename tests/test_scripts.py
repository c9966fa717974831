"""The driver scripts under scripts/, imported as modules."""

import importlib.util
import os

from graphtree import Dendrogram, Leaf, Merge

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClusterDataset:
    def test_largest_levels_on_a_deep_chain(self):
        # 1999 levels deep: a recursive walk exceeds the interpreter's limit
        n = 2000
        node = Leaf(0)
        for k in range(1, n):
            node = Merge(node, Leaf(k), 1.0 / (k + 1))
        script = load_script("cluster_dataset")
        assert script.largest_levels(Dendrogram(node, n=n)) == [1 / 2, 1 / 3, 1 / 4]

    def test_largest_levels_distinct(self):
        tree = Dendrogram(Merge(Merge(Leaf(0), Leaf(1), 0.5), Merge(Leaf(2), Leaf(3), 0.5), 0.2), n=4)
        script = load_script("cluster_dataset")
        assert script.largest_levels(tree) == [0.5, 0.2]
        assert script.largest_levels(tree, count=1) == [0.5]
