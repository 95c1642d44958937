"""Character-anchor / token-span conversion.

Node anchors are assumed contiguous: the (possibly multi-span) character
range collapses to one covering token run. Anchors that cut through a
token are snapped outward to whole tokens and reported back to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mrp import MrpGraph


class AnchorError(Exception):
    pass


@dataclass(frozen=True)
class TokenSpan:
    start_token: int
    end_token: int  # inclusive

    def __post_init__(self):
        if not (0 <= self.start_token <= self.end_token):
            raise AnchorError(f"bad token span ({self.start_token}, {self.end_token})")


def char_range_to_span(lo, hi, tokens) -> tuple:
    """Covering token run for character range [lo, hi); second element
    tells whether snapping was needed."""
    overlapping = [i for i, t in enumerate(tokens) if t.end > lo and t.start < max(hi, lo + 1)]
    if not overlapping:
        raise AnchorError(f"character range ({lo},{hi}) covers no token")
    s, e = overlapping[0], overlapping[-1]
    snapped = tokens[s].start != lo or tokens[e].end != hi
    return TokenSpan(s, e), snapped


def anchors_to_spans(g: MrpGraph, sent) -> tuple:
    """Replace character anchors with token-index spans (stored as a single
    (start_token, end_token) anchor pair). Returns (graph, flagged node
    ids)."""
    g = g.copy()
    flagged = []
    for n in g.nodes:
        if n.anchors is None:
            continue
        lo = min(f for f, _ in n.anchors)
        hi = max(t for _, t in n.anchors)
        span, snapped = char_range_to_span(lo, hi, sent.tokens)
        if snapped:
            flagged.append(n.id)
        n.anchors = [(span.start_token, span.end_token)]
    return g, flagged


def spans_to_anchors(g: MrpGraph, sent) -> MrpGraph:
    """Inverse of anchors_to_spans using the sentence's token offsets."""
    g = g.copy()
    n_tok = len(sent.tokens)
    for n in g.nodes:
        if n.anchors is None:
            continue
        for s, e in n.anchors:
            if not (0 <= s <= e < n_tok):
                raise AnchorError(f"node {n.id}: token span ({s},{e}) outside sentence of {n_tok} tokens")
        n.anchors = [(sent.tokens[s].start, sent.tokens[e].end) for s, e in n.anchors]
    return g
