"""Bytes held per token by `read_companion`, per record by `parse_mrp`, and
per record by `tree_to_graph(graph_to_tree(g))`.

    python tests/mem_probe.py

Run from the repository root. It builds the benchmark's seed-1 inputs
(`benchmarks/gen.py`) before it starts `tracemalloc`, so the input text is
not counted. It then reads the `encode_train` training split's companion
blocks with `read_companion` and the `prep_roundtrip` training split's MRP
lines with `parse_mrp`, keeping every result, and prints the bytes that
`tracemalloc` counts as still held after each, per token and per record,
with the number of distinct forms, lemmas and tags read. Last, it rebuilds
each parsed graph that `graph_to_tree` takes (one without node extras or
edge attributes and extras) through `tree_to_graph`, keeping every rebuilt
graph but no tree, and prints the bytes held per rebuilt record. Pytest
does not collect this file: its name does not start with `test_`."""

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import run  # noqa: E402  (puts src/ on the path)

import gen  # noqa: E402
from mrparse import companion, mrp, treeify  # noqa: E402


def held(read, inputs):
    """What read(x) for each x in inputs returns, and the bytes it holds."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    out = [read(x) for x in inputs]
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return out, after - before


def main():
    docs = [s.companion for s in gen.encode_inputs(1, run.EncodeTrain.name)[0]]
    lines = [it.mrp for it in gen.prep_inputs(1)[0]]

    sents, size = held(companion.read_companion, docs)
    tokens = [t for [s] in sents for t in s.tokens]
    print(f"read_companion, encode_train seed 1 training split: {len(docs)} sentences, {len(tokens)} tokens, "
          f"{len({t.form for t in tokens})} distinct forms, {len({t.lemma for t in tokens})} lemmas, "
          f"{len({t.xpos for t in tokens})} tags")
    print(f"  {size} B held, {size / len(tokens):.1f} B per token")

    graphs, size = held(mrp.parse_mrp, lines)
    print(f"parse_mrp, prep_roundtrip seed 1 training split: {len(graphs)} records, "
          f"{sum(len(g.nodes) for g in graphs)} nodes, {sum(len(g.edges) for g in graphs)} edges")
    print(f"  {size} B held, {size / len(graphs):.0f} B per record")

    trees = []
    for g in graphs:
        try:
            treeify.graph_to_tree(g)
        except treeify.TreeError:
            continue
        trees.append(g)
    rebuilt, size = held(lambda g: treeify.tree_to_graph(treeify.graph_to_tree(g), g.framework, g.id, g.input), trees)
    print(f"tree_to_graph(graph_to_tree(g)), the {len(trees)} of those records that treeify: "
          f"{sum(len(g.nodes) for g in rebuilt)} nodes, {sum(len(g.edges) for g in rebuilt)} edges")
    print(f"  {size} B held, {size / len(rebuilt):.0f} B per record")


if __name__ == "__main__":
    main()
