"""Character-anchor / token-span conversion.

Each anchor piece maps to its own covering token run, so a node anchored
on several pieces keeps them apart. Pieces that cut through a token are
snapped outward to whole tokens and reported back to the caller.

The covering run is found by bisection on the tokens' start and end
offsets, not by a scan over the tokens. That needs both offset lists to be
non-decreasing, which CompanionSentence guarantees: its tokens are in
order, do not overlap and none ends before it starts. Where only exact
runs count, `exact_runs` indexes the token boundaries once per sentence
and finds each run by two dict lookups, under the same rule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..mrp import MrpGraph, MrpNode


class AnchorError(Exception):
    pass


def covering_run(starts, ends, lo, hi):
    """The run of tokens overlapping [lo, hi) (the token at lo if the range
    is empty), as (s, e, exact) with e inclusive and s > e when no token
    overlaps. `exact` says the run starts at lo and ends at hi. `starts` and
    `ends` are the tokens' offsets, both non-decreasing."""
    s = bisect_right(ends, lo)  # first token ending after lo
    e = bisect_left(starts, max(hi, lo + 1)) - 1  # last token starting before hi (lo + 1 if empty)
    return s, e, s <= e and starts[s] == lo and ends[e] == hi


def exact_runs(tokens):
    """covering_run's exact case as a lookup, built once per sentence in
    one pass over the tokens: a function (lo, hi) -> (s, e) when
    covering_run gives (s, e, True), else None, in two dict lookups. It
    maps lo to the first non-empty token that starts there and hi to the
    last non-empty token that ends there; a run is exact when both exist
    in order. That is covering_run's rule: an empty token ends at its
    start, so bisection passes over it at lo and hi alike."""
    first, last = {}, {}
    for k, t in enumerate(tokens):
        if t.end > t.start:
            first.setdefault(t.start, k)
            last[t.end] = k

    def run(lo, hi):
        s, e = first.get(lo), last.get(hi)
        return (s, e) if s is not None and e is not None and s <= e else None
    return run


def anchors_to_spans(g: MrpGraph, sent) -> tuple:
    """Replace each character anchor piece [lo, hi) with the token-index
    span (start_token, end_token), end inclusive, of every token
    overlapping it. A node with a piece that does not start and end on its
    span's token boundaries is flagged as snapped. A node without anchors,
    or with an empty anchor list, keeps them as they are. Returns (graph,
    flagged node ids)."""
    starts = [t.start for t in sent.tokens]
    ends = [t.end for t in sent.tokens]
    flagged = []
    nodes = []
    for n in g.nodes:
        if n.anchors:
            spans, snapped = [], False
            for lo, hi in n.anchors:
                s, e, exact = covering_run(starts, ends, lo, hi)
                if s > e:
                    raise AnchorError(f"graph {g.id}: node {n.id}: character range ({lo},{hi}) covers no token")
                spans.append((s, e))
                snapped |= not exact
            if snapped:
                flagged.append(n.id)
            n = MrpNode(n.id, n.label, n.properties, spans, n.extras)
        nodes.append(n)
    return g.derive(nodes), flagged


def spans_to_anchors(g: MrpGraph, sent) -> MrpGraph:
    """Inverse of anchors_to_spans using the sentence's token offsets."""
    n_tok = len(sent.tokens)
    nodes = []
    for n in g.nodes:
        if n.anchors:
            for s, e in n.anchors:
                if not (0 <= s <= e < n_tok):
                    raise AnchorError(
                        f"graph {g.id}: node {n.id}: token span ({s},{e}) outside sentence of {n_tok} tokens")
            anchors = [(sent.tokens[s].start, sent.tokens[e].end) for s, e in n.anchors]
            n = MrpNode(n.id, n.label, n.properties, anchors, n.extras)
        nodes.append(n)
    return g.derive(nodes)
