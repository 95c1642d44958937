"""What several test modules build or compare with: companion sentences,
the linear-scan covering run of a character range, and graph equality up
to node ids, with networkx as an independent oracle."""

import json

import networkx as nx

from mrparse.companion import CompanionSentence, Token


def _words(x):
    """A list as given; a string split on single spaces, none when empty."""
    if isinstance(x, str):
        return x.split(" ") if x else []
    return list(x)


def sentence(forms, lemmas=None, tags=None, xpos=None):
    """A companion sentence with one token per form, the tokens one space
    apart from offset 0. Forms, lemmas, NER tags and xpos are lists or
    space-separated strings; lemmas default to the lowercased forms, tags
    to all 'O', xpos to all 'XX'."""
    forms = _words(forms)
    lemmas = [f.lower() for f in forms] if lemmas is None else _words(lemmas)
    xpos = ["XX"] * len(forms) if xpos is None else _words(xpos)
    toks, pos = [], 0
    for form, lemma, xp in zip(forms, lemmas, xpos, strict=True):
        toks.append(Token(form, lemma, xp, pos, pos + len(form)))
        pos += len(form) + 1
    return CompanionSentence(tokens=toks, ner_tags=None if tags is None else _words(tags))


def covering(piece, extents):
    """Reference: the linear scan that `anchors_to_spans` replaced. The
    (first, last) tokens overlapping the piece [lo, hi), an empty piece
    counting as [lo, lo + 1), and whether they start at lo and end at hi;
    None if no token overlaps. `extents` are the tokens' (start, end)."""
    lo, hi = piece
    over = [i for i, (s, e) in enumerate(extents) if e > lo and s < max(hi, lo + 1)]
    if not over:
        return None
    return (over[0], over[-1]), extents[over[0]][0] == lo and extents[over[-1]][1] == hi


def _nx(g):
    G = nx.MultiDiGraph()
    for n in g.nodes:
        anchors = None if n.anchors is None else tuple(map(tuple, n.anchors))
        G.add_node(n.id, sig=(n.label, anchors, tuple(n.properties), json.dumps(n.extras),
                              g.tops.count(n.id)))
    for e in g.edges:
        G.add_edge(e.source, e.target, sig=(e.label, tuple(map(tuple, e.attributes)), json.dumps(e.extras)))
    return G


def same_up_to_ids(g1, g2):
    """Whether g1 and g2 are one graph up to node ids. A node is its label,
    its anchor pieces as written (in their order, list and tuple pieces
    alike, None apart from []), its properties as given, its extras and how
    often it is a top; an edge is its label, attributes and extras."""
    match = nx.algorithms.isomorphism
    return nx.is_isomorphic(_nx(g1), _nx(g2), node_match=match.categorical_node_match("sig", None),
                            edge_match=match.categorical_multiedge_match("sig", None))
