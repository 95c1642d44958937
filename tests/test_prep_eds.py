import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import same_up_to_ids, sentence

from mrparse.companion import CompanionSentence, Token, replace_spans
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode, parse_mrp, serialize_mrp
from mrparse.prep.anchors import anchors_to_spans, covering_run, spans_to_anchors
from mrparse.prep.eds import (REDUCED, EdsError, MultiwordTable, _adjacency, _is_surface_mapped, _range,
                              apply_multiword, build_multiword_table, eds_exchange_properties, eds_reduce,
                              eds_restore)


def graph(text, nodes, edges, tops):
    return MrpGraph(id="e", framework="eds", input=text,
                    tops=tops,
                    nodes=[MrpNode(i, lab, props or [], anchors) for i, lab, anchors, props in nodes],
                    edges=[MrpEdge(s, t, lab) for s, t, lab in edges])


class TestReduceRule1:
    def test_quantifier_folds_into_surface_node(self):
        # proper_q (abstract) shares the anchor of Pierre (surface via carg swap)
        g = graph("Pierre naps",
                  nodes=[(0, "proper_q", [(0, 6)], []),
                         (1, "Pierre", [(0, 6)], [("carg", "named")]),
                         (2, "_nap_v_1", [(7, 11)], [])],
                  edges=[(0, 1, "BV"), (2, 1, "ARG1")],
                  tops=[2])
        out = eds_reduce(g)
        assert len(out.nodes) == 2
        folded = out.node_by_id()[1]
        names = [p for p, _ in folded.properties]
        assert any(p.startswith("reduced:") for p in names)
        assert len(out.edges) == 1  # only the verb edge remains

    def test_identity_when_all_surface(self):
        g = graph("dogs bark",
                  nodes=[(0, "_dog_n_1", [(0, 4)], []), (1, "_bark_v_1", [(5, 9)], [])],
                  edges=[(0, 1, "ARG1")], tops=[1])
        assert eds_reduce(g) == g

    def test_anchor_mismatch_blocks_fold(self):
        g = graph("dogs bark",
                  nodes=[(0, "udef_q", [(0, 9)], []), (1, "_dog_n_1", [(0, 4)], [])],
                  edges=[(0, 1, "BV")], tops=[1])
        assert len(eds_reduce(g).nodes) == 2


class TestReduceRule2:
    def test_compound_becomes_edge(self):
        g = graph("Pierre Vinken naps",
                  nodes=[(0, "compound", [(0, 13)], []),
                         (1, "Pierre", [(0, 6)], [("carg", "named")]),
                         (2, "Vinken", [(7, 13)], [("carg", "named")]),
                         (3, "_nap_v_1", [(14, 18)], [])],
                  edges=[(0, 1, "ARG1"), (0, 2, "ARG2"), (3, 2, "ARG1")],
                  tops=[3])
        out = eds_reduce(g)
        assert len(out.nodes) == 3
        reduced = [e for e in out.edges if e.label.startswith("reduced:")]
        assert len(reduced) == 1
        # ARG1 endpoint is the source, ARG2 endpoint the target
        assert reduced[0].source == 1 and reduced[0].target == 2

    def test_list_pieces_reduce_as_tuple_pieces_do(self):
        def compound(piece):
            return graph("Pierre Vinken naps",
                         nodes=[(0, "compound", [piece(0, 13)], []),
                                (1, "Pierre", [piece(0, 6)], [("carg", "named")]),
                                (2, "Vinken", [piece(7, 13)], [("carg", "named")]),
                                (3, "_nap_v_1", [piece(14, 18)], [])],
                         edges=[(0, 1, "ARG1"), (0, 2, "ARG2"), (3, 2, "ARG1")],
                         tops=[3])
        as_tuples, as_lists = eds_reduce(compound(lambda f, t: (f, t))), eds_reduce(compound(lambda f, t: [f, t]))
        assert len(as_lists.nodes) == 3
        assert [(e.source, e.target, e.label) for e in as_lists.edges] == \
            [(e.source, e.target, e.label) for e in as_tuples.edges]
        assert as_lists.edges[-1].label.startswith(REDUCED)

    def test_rule1_enables_rule2_fixpoint(self):
        # one call applies both rules: q folds into node 2 (rule 1) and
        # link, with its two surface neighbours, becomes a reserved edge
        g = graph("aa bb",
                  nodes=[(0, "link", [(0, 5)], []),
                         (1, "_aa_x", [(0, 2)], []),
                         (2, "_bb_x", [(3, 5)], []),
                         (3, "q", [(3, 5)], [])],
                  edges=[(0, 1, "ARG1"), (0, 2, "ARG2"), (3, 2, "BV")],
                  tops=[1])
        out = eds_reduce(g)
        assert len(out.nodes) == 2
        assert any(e.label.startswith("reduced:") for e in out.edges)

    def test_unanchored_neighbours_leave_node_unreduced(self):
        g = graph("aa bb",
                  nodes=[(0, "compound", [(0, 5)], []),
                         (1, "_aa_x", [], []),
                         (2, "_bb_x", [], [])],
                  edges=[(0, 1, "ARG1"), (0, 2, "ARG2")], tops=[1])
        assert eds_reduce(g) == g

    def test_node_count_never_increases(self):
        g = graph("x y", nodes=[(0, "abstract1", [(0, 3)], []), (1, "abstract2", None, [])],
                  edges=[(0, 1, "L")], tops=[0])
        assert len(eds_reduce(g).nodes) <= len(g.nodes)


class TestRestore:
    def _roundtrip(self, g):
        reduced = eds_reduce(g)
        restored = eds_restore(reduced)
        return reduced, restored

    def test_rule1_roundtrip(self):
        g = graph("Pierre naps",
                  nodes=[(0, "proper_q", [(0, 6)], []),
                         (1, "Pierre", [(0, 6)], [("carg", "named")]),
                         (2, "_nap_v_1", [(7, 11)], [])],
                  edges=[(0, 1, "BV"), (2, 1, "ARG1")],
                  tops=[2])
        reduced, restored = self._roundtrip(g)
        assert len(reduced.nodes) < len(g.nodes)
        assert _canonical(restored) == _canonical(g)

    def test_rule2_roundtrip(self):
        g = graph("Pierre Vinken naps",
                  nodes=[(0, "compound", [(0, 13)], []),
                         (1, "Pierre", [(0, 6)], [("carg", "named")]),
                         (2, "Vinken", [(7, 13)], [("carg", "named")]),
                         (3, "_nap_v_1", [(14, 18)], [])],
                  edges=[(0, 1, "ARG1"), (0, 2, "ARG2"), (3, 2, "ARG1")],
                  tops=[3])
        _, restored = self._roundtrip(g)
        assert _canonical(restored) == _canonical(g)

    def test_untouched_graph_roundtrip(self):
        g = graph("dogs bark",
                  nodes=[(0, "_dog_n_1", [(0, 4)], []), (1, "_bark_v_1", [(5, 9)], [])],
                  edges=[(1, 0, "ARG1")], tops=[1])
        assert eds_restore(eds_reduce(g)) == g

    @pytest.mark.parametrize("props, attrs", [([("carg", "2")], []), ([], [("scope", "wide")])])
    def test_node_with_data_the_encodings_lack_is_kept(self, props, attrs):
        # rule 1 would fold card into _two_a and lose the carg or the attribute
        g = graph("two dogs",
                  nodes=[(0, "card", [(0, 3)], props),
                         (1, "_two_a", [(0, 3)], []),
                         (2, "_dog_n_1", [(4, 8)], [])],
                  edges=[(0, 1, "ARG1"), (1, 2, "ARG1")], tops=[2])
        g.edges[0].attributes = attrs
        assert eds_restore(eds_reduce(g)) == g

    def test_incoming_edge_direction_restored(self):
        # abstract node as the *target* of its single link
        g = graph("dogs bark",
                  nodes=[(0, "_bark_v_1", [(5, 9)], []),
                         (1, "nominalization", [(5, 9)], [])],
                  edges=[(1, 0, "ARG1")], tops=[0])
        _, restored = self._roundtrip(g)
        assert _canonical(restored) == _canonical(g)

    @pytest.mark.parametrize("folds, line", [
        # a node anchored [] does not fold into one without anchors
        (0, '{"id":"e","framework":"eds","input":"dogs","tops":[0],"nodes":[{"id":0,"label":"_dog_n_1"},'
            '{"id":1,"label":"udef_q","anchors":[]}],"edges":[{"source":1,"target":0,"label":"BV"}]}'),
        # pieces in reverse order fold into the same pieces and come back in that order
        (1, '{"id":"e","framework":"eds","input":"aa bb","tops":[0],"nodes":[{"id":0,"label":"_aa+bb_p",'
            '"anchors":[{"from":3,"to":5},{"from":0,"to":2}]},{"id":1,"label":"udef_q",'
            '"anchors":[{"from":3,"to":5},{"from":0,"to":2}]}],"edges":[{"source":1,"target":0,"label":"BV"}]}'),
        # and do not fold into the same pieces in the other order
        (0, '{"id":"e","framework":"eds","input":"aa bb","tops":[0],"nodes":[{"id":0,"label":"_aa+bb_p",'
            '"anchors":[{"from":0,"to":2},{"from":3,"to":5}]},{"id":1,"label":"udef_q",'
            '"anchors":[{"from":3,"to":5},{"from":0,"to":2}]}],"edges":[{"source":1,"target":0,"label":"BV"}]}'),
        # neither encoding carries a node's extras or its link's
        (0, '{"id":"e","framework":"eds","input":"dogs","tops":[0],"nodes":[{"id":0,"label":"_dog_n_1",'
            '"anchors":[{"from":0,"to":4}]},{"id":1,"label":"udef_q","anchors":[{"from":0,"to":4}],"note":1}],'
            '"edges":[{"source":1,"target":0,"label":"BV"}]}'),
        (0, '{"id":"e","framework":"eds","input":"dogs","tops":[0],"nodes":[{"id":0,"label":"_dog_n_1",'
            '"anchors":[{"from":0,"to":4}]},{"id":1,"label":"udef_q","anchors":[{"from":0,"to":4}]}],'
            '"edges":[{"source":1,"target":0,"label":"BV","note":1}]}'),
    ], ids=["empty-anchors", "reversed-pieces", "pieces-in-the-other-order", "node-extras", "edge-extras"])
    def test_roundtrip_gives_the_record_back_byte_for_byte(self, folds, line):
        g = parse_mrp(line)
        reduced = eds_reduce(g)
        assert len(reduced.nodes) == len(g.nodes) - folds
        assert serialize_mrp(eds_restore(reduced)) == line

    @pytest.mark.parametrize("edge, prop, message", [
        ((0, 7, REDUCED + '["compound", "ARG1", "out", "ARG2", "out"]'), None,
         "reduced edge 0 -> 7 names a missing node"),
        ((1, 0, REDUCED + '["compound", "ARG1", "out", "ARG2", "out"]'), None,
         "reduced edge 1 -> 0 joins unanchored nodes"),
        ((0, 1, REDUCED + "not json"), None, "unrecognized reduced edge label"),
        (None, (REDUCED + "0", "not json"), "unrecognized reduced property"),
        ((0, 1, REDUCED + '["compound", "ARG1", "up", "ARG2", 7]'), None, "unrecognized reduced edge label"),
        (None, (REDUCED + "0", '["q", "BV", "sideways"]'), "unrecognized reduced property"),
    ], ids=["missing-node", "unanchored", "bad-edge-label", "bad-property", "bad-edge-side", "bad-property-side"])
    def test_malformed_reduction_names_graph(self, edge, prop, message):
        g = graph("aa bb", nodes=[(0, "_aa_x", [], [prop] if prop else []), (1, "_bb_x", None, [])],
                  edges=[edge] if edge else [], tops=[0])
        with pytest.raises(EdsError, match=f"graph e: {message}"):
            eds_restore(g)


def _canonical(g):
    """Anchor-keyed structural signature, independent of node ids."""
    key = {}
    for n in g.nodes:
        key[n.id] = (n.label, tuple(sorted(n.anchors or [])))
    nodes = sorted((key[n.id], tuple(sorted(p for p in n.properties))) for n in g.nodes)
    edges = sorted((key[e.source], key[e.target], e.label) for e in g.edges)
    tops = sorted(key[t] for t in g.tops)
    return nodes, edges, tops


class TestExchangeProperties:
    def test_swap_and_unswap(self):
        g = graph("Pierre", nodes=[(0, "named", [(0, 6)], [("carg", "Pierre")])],
                  edges=[], tops=[0])
        s = eds_exchange_properties(g)
        assert s.nodes[0].label == "Pierre"
        assert s.nodes[0].properties == [("carg", "named")]
        assert eds_exchange_properties(s) == g

    def test_nodes_without_carg_untouched(self):
        g = graph("x", nodes=[(0, "_x_n_1", [(0, 1)], [("pos", "NN")])], edges=[], tops=[0])
        assert eds_exchange_properties(g) == g

    @pytest.mark.parametrize("value, shown", [("5", "5"), ("true", "True"), ('["x"]', "['x']")])
    def test_a_carg_that_is_not_a_string_is_refused(self, value, shown):
        # it would become a label that eds_reduce and graph_to_tree fail on without naming the graph
        g = parse_mrp('{"id":"e7","framework":"eds","input":"x","tops":[0],"nodes":[{"id":0,"label":"named",'
                      f'"properties":["carg"],"values":[{value}]}}]}}')
        with pytest.raises(EdsError) as refusal:
            eds_exchange_properties(g)
        assert str(refusal.value) == f"graph e7: node 0: carg {shown} is not a string"


class TestMultiword:
    def corpus(self):
        pairs = []
        # 8 sentences where "such as" is one node, 2 where it is two
        for i in range(8):
            s = sentence("dogs such as cats")
            g = graph(s.text(),
                      nodes=[(0, "_dog_n_1", [(0, 4)], []),
                             (1, "_such+as_p", [(5, 12)], []),
                             (2, "_cat_n_1", [(13, 17)], [])],
                      edges=[(1, 0, "ARG1"), (1, 2, "ARG2")], tops=[1])
            pairs.append((g, s))
        for i in range(2):
            s = sentence("dogs such as cats")
            g = graph(s.text(),
                      nodes=[(0, "_such_x", [(5, 9)], []), (1, "_as_p", [(10, 12)], [])],
                      edges=[(0, 1, "L")], tops=[0])
            pairs.append((g, s))
        return pairs

    def test_counts_and_probability(self):
        table = build_multiword_table(self.corpus())
        assert table.entries["such as"] == (0.8, 8)
        assert table.should_merge("such as")

    def test_single_occurrence_blocked_by_count_rule(self):
        s = sentence("ad hoc")
        g = graph(s.text(), nodes=[(0, "_ad+hoc_a", [(0, 6)], [])], edges=[], tops=[0])
        table = build_multiword_table([(g, s)])
        assert table.entries["ad hoc"] == (1.0, 1)
        assert not table.should_merge("ad hoc")

    def test_phrase_never_single_node(self):
        table = MultiwordTable({"red car": (0.0, 0)})
        assert not table.should_merge("red car")

    def test_apply_merges_tokens(self):
        table = build_multiword_table(self.corpus())
        merged = apply_multiword(sentence("dogs such as cats"), table)
        assert merged.forms == ["dogs", "such as", "cats"]
        assert merged.tokens[1].lemma == "such+as"

    def test_name_compound_is_not_a_phrase(self):
        s = sentence("Pierre Vinken naps")
        g = graph(s.text(),
                  nodes=[(0, "compound", [(0, 13)], []),
                         (1, "named", [(0, 6)], [("carg", "Pierre")]),
                         (2, "named", [(7, 13)], [("carg", "Vinken")]),
                         (3, "_nap_v_1", [(14, 18)], [])],
                  edges=[(0, 1, "ARG2"), (0, 2, "ARG1"), (3, 2, "ARG1")], tops=[3])
        merged = apply_multiword(s, build_multiword_table([(g, s), (g, s)]))
        spans, flagged = anchors_to_spans(g, merged)
        assert flagged == []
        back = spans_to_anchors(spans, merged).node_by_id()
        assert back[1].anchors == [(0, 6)] and back[2].anchors == [(7, 13)]

    def test_table_serialization_roundtrip(self):
        table = build_multiword_table(self.corpus())
        assert MultiwordTable.from_lines(table.to_lines()).entries == table.entries


# the multiword corpora's sentences: the largest first offset, token width, gap and token
# count, and so the largest offset that a sentence reaches
MW_START, MW_WIDTH, MW_GAP, MW_TOKENS = 2, 3, 2, 8
MW_END = MW_START + MW_TOKENS * (MW_WIDTH + MW_GAP)
# a node's anchors, 1-2 pieces, each one choice: a run (True, two times in three) from
# one token's start to another's end, or two offsets (False), by numbers 0-MW_END that
# the corpus takes modulo what its sentence has, so that each reaches every token and offset
MULTIWORD_PIECES = st.sampled_from(list(itertools.product((True, True, False), range(MW_END + 1),
                                                          range(MW_END + 1))))
MULTIWORD_ANCHORS = st.lists(st.lists(MULTIWORD_PIECES, min_size=1, max_size=2), min_size=2, max_size=10)


def reference_build_multiword_table(corpus) -> MultiwordTable:
    """`build_multiword_table` before the token-boundary index, kept
    verbatim: covering_run per anchored node, every pair of windows tested
    for containment, and a tuple per window of every phrase length."""
    single = {}
    for g, sent in corpus:
        starts = [t.start for t in sent.tokens]
        ends = [t.end for t in sent.tokens]
        runs = (covering_run(starts, ends, *_range(n.anchors)) for n in g.nodes if n.anchors)
        spans = {(s, e) for s, e, exact in runs if exact}
        for lo, hi in spans:
            if hi > lo and not any(lo <= i <= j <= hi and (i, j) != (lo, hi) for i, j in spans):
                phrase = " ".join(t.form.lower() for t in sent.tokens[lo:hi + 1])
                single[phrase] = single.get(phrase, 0) + 1
    by_words = {tuple(k.split(" ")): k for k in single}
    lengths = {len(w) for w in by_words}
    totals = {k: 0 for k in single}
    for g, sent in corpus:
        forms = [t.form.lower() for t in sent.tokens]
        for n in lengths:
            for i in range(len(forms) - n + 1):
                phrase = by_words.get(tuple(forms[i:i + n]))
                if phrase is not None:
                    totals[phrase] += 1
    entries = {k: (single[k] / totals[k] if totals[k] else 0.0, single[k]) for k in single}
    return MultiwordTable(entries)


def multiword_corpora_by_sentence(forms):
    """1-4 (graph, sentence) pairs of 0-8 tokens and 2-10 nodes. Tokens
    have widths 0-3 (zero-length ones spelled "" or "a") and gaps of 0-2;
    their forms come from `forms`, so that 2-4 token phrases and their
    first words recur. Nodes are anchored on one or two pieces, each from
    the start of a token to the end of a token (in either order) or
    between any two offsets, so that exact windows nest, repeat and
    overlap. Each sentence is one draw, and each token shape and each
    piece one choice within it, a piece picking its tokens or offsets
    modulo what the sentence has. Hypothesis draws the first values of a
    choice most often, so a width of 1 comes first and 0 last, the first
    of `forms` most often, and 3-4 sentences come two times in three."""
    # a token's width, gap, form and spelling when zero-width, as one choice
    token_shapes = st.lists(st.sampled_from(list(itertools.product((*range(1, MW_WIDTH + 1), 0), range(MW_GAP + 1),
                                                                   forms, ("", "a")))), max_size=MW_TOKENS)
    sentences = st.tuples(st.integers(0, MW_START), token_shapes, MULTIWORD_ANCHORS)

    @st.composite
    def corpora(draw):
        corpus = []
        for _ in range(draw(st.sampled_from((1, 2, 3, 3, 4, 4)))):  # 3-4 two times in three: phrases recur
            pos, shapes, anchors = draw(sentences)
            toks = []
            for width, gap, form, empty in shapes:
                form = form if width else empty
                toks.append(Token(form, form.lower(), "X", pos, pos + width))
                pos += width + gap

            def piece(run, a, b):
                if run and toks:
                    return toks[a % len(toks)].start, toks[b % len(toks)].end
                return a % (pos + 1), b % (pos + 1)
            sent = CompanionSentence(toks)
            nodes = [MrpNode(i, "n", anchors=[piece(*p) for p in a]) for i, a in enumerate(anchors)]
            corpus.append((MrpGraph(id="m", framework="eds", input=sent.text(), nodes=nodes), sent))
        return corpus
    return corpora()


@given(multiword_corpora_by_sentence(("a", "A", "b")))
def test_build_multiword_table_counts_as_the_reference(corpus):
    assert build_multiword_table(corpus).entries == reference_build_multiword_table(corpus).entries


# forms that hold whitespace, and two that do not, so that phrases without them recur
WHITESPACE_FORMS = ("a b", "a", "b", "b\tc", " ")


def test_a_window_with_a_form_that_holds_whitespace_is_not_counted():
    # its key "new york city" splits into three words, which no window of the corpus spells
    s = sentence(["New York", "city"])
    g = graph(s.text(), nodes=[(0, "_new+york+city_n", [(0, 13)], [])], edges=[], tops=[0])
    assert reference_build_multiword_table([(g, s), (g, s)]).entries == {"new york city": (0.0, 2)}
    assert build_multiword_table([(g, s), (g, s)]).entries == {}


@given(multiword_corpora_by_sentence(WHITESPACE_FORMS))
def test_every_multiword_entry_counts_no_more_single_nodes_than_occurrences(corpus):
    assert all(count >= 1 and 0 < prob <= 1 for prob, count in build_multiword_table(corpus).entries.values())


def reference_apply_multiword(sent, table):
    """The scan that `apply_multiword` replaced with `find_phrase`: one
    left-to-right pass per phrase, skipping past each run it takes."""
    mergeable = [p.split(" ") for p in table.entries if table.should_merge(p)]
    mergeable.sort(key=lambda w: (-len(w), w))
    forms = [t.form.lower() for t in sent.tokens]
    taken = [False] * len(forms)
    text = sent.text()
    runs = []
    for words in mergeable:
        i = 0
        while i + len(words) <= len(forms):
            if forms[i:i + len(words)] == words and not any(taken[i:i + len(words)]):
                run = sent.tokens[i:i + len(words)]
                runs.append((i, i + len(words) - 1, text[run[0].start:run[-1].end],
                             "+".join(t.lemma for t in run), run[0].xpos, sent.ner_tags[i]))
                for k in range(i, i + len(words)):
                    taken[k] = True
                i += len(words)
            else:
                i += 1
    return replace_spans(sent, sorted(runs))


# a token's form and NER tag as one choice
MULTIWORD_TOKENS = st.lists(st.sampled_from(list(itertools.product(["a", "A", "b", "c"], ["O", "X"]))),
                            min_size=1, max_size=8)
# 1-4 entries, merged or not, for a sentence of n tokens (the index is n - 1). A phrase
# is mostly a run of 2 or 3 of the sentence's words from a start it has, so that runs
# merge, compete and overlap; else 1-3 words that may not occur.
MULTIWORD_ENTRIES = [st.lists(st.tuples(st.tuples(st.integers(0, n - 1), st.sampled_from((2, 3)))
                                        | st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
                                        st.sampled_from([(1.0, 2), (0.4, 9)])), min_size=1, max_size=4)
                     for n in range(1, 9)]


@st.composite
def sentences_and_tables(draw):
    """A sentence of 1-8 tokens spelled "a", "A", "b" or "c" with mixed NER
    tags, and a table whose phrases mostly occur in it."""
    tokens = draw(MULTIWORD_TOKENS)
    words = [form.lower() for form, _ in tokens]
    entries = {}
    for phrase, value in draw(MULTIWORD_ENTRIES[len(words) - 1]):
        if isinstance(phrase, tuple):
            start, length = phrase
            phrase = words[start:start + length]
        entries[" ".join(phrase)] = value
    return sentence([f for f, _ in tokens], tags=[t for _, t in tokens]), MultiwordTable(entries)


@given(sentences_and_tables())
def test_apply_multiword_merges_as_the_reference_scan(sentence_and_table):
    s, table = sentence_and_table
    assert apply_multiword(s, table) == reference_apply_multiword(s, table)


@given(st.dictionaries(st.text(max_size=6), st.tuples(st.floats(0, 1), st.integers(0, 50)), max_size=4))
def test_multiword_lines_roundtrip_property(entries):
    table = MultiwordTable(entries)
    assert MultiwordTable.from_lines(table.to_lines()).entries == entries


@pytest.mark.parametrize("lines, want", [
    (["{}"], "^MultiwordTable: line 1: KeyError: 'prob'"),
    (['{"phrase":"a b","prob":0.5,"count":2}', "", "nope"], "^MultiwordTable: line 3: JSONDecodeError"),
    (['{"phrase":"a b","prob":"x","count":2}'], "^MultiwordTable: line 1: ValueError"),
    (['{"phrase":"a b","prob":null,"count":2}'], "^MultiwordTable: line 1: TypeError"),
])
def test_multiword_malformed_line_names_class_and_line(lines, want):
    with pytest.raises(ValueError, match=want):
        MultiwordTable.from_lines(lines)


# -- property tests ---------------------------------------------------------

# The fixpoint algorithm eds_reduce replaced, kept verbatim as the reference:
# it restarts the scan after every fold or edge reduction. `_pick_direction`
# is the rule-2 direction it used, which eds_reduce now reads off the order
# of (edge label, node id). Its `_norm_anchors` sorts the pieces and reads
# None as [], where eds_reduce compares anchors as written, so it is the
# reference only on `eds_graphs()`, which draws neither [] nor a piece order
# that sorting changes.


def _norm_anchors(anchors):
    """The pieces as sorted tuples, so list and tuple pieces compare equal."""
    return tuple(sorted(tuple(p) for p in anchors or ()))


def fixpoint_reduce(g: MrpGraph) -> MrpGraph:
    g = g.copy()
    while True:
        if _fold_once(g):
            continue
        if _edge_once(g):
            continue
        break
    return g


def _fold_once(g):
    by_id = g.node_by_id()
    adj = _adjacency(g)
    for a in sorted(g.nodes, key=lambda n: n.id):
        if _is_surface_mapped(a, g.input) or a.anchors is None or a.id in g.tops:
            continue
        links = adj[a.id]
        if len(links) != 1:
            continue
        e = links[0]
        b = by_id[e.target if e.source == a.id else e.source]
        if not _is_surface_mapped(b, g.input):
            continue
        if _norm_anchors(a.anchors) != _norm_anchors(b.anchors):
            continue
        direction = "out" if e.source == a.id else "in"
        k = sum(1 for p, _ in b.properties if p.startswith(REDUCED))
        b.properties.append((f"{REDUCED}{k}", json.dumps([a.label, e.label, direction])))
        g.nodes.remove(a)
        g.edges.remove(e)
        return True
    return False


def _edge_once(g):
    by_id = g.node_by_id()
    adj = _adjacency(g)
    for a in sorted(g.nodes, key=lambda n: n.id):
        if _is_surface_mapped(a, g.input) or a.anchors is None or a.id in g.tops:
            continue
        links = adj[a.id]
        if len(links) != 2:
            continue
        ends = []
        for e in links:
            other = by_id[e.target if e.source == a.id else e.source]
            ends.append((other, e))
        (b, eb), (c, ec) = ends
        if b.id == c.id:
            continue
        if not (_is_surface_mapped(b, g.input) and _is_surface_mapped(c, g.input)):
            continue
        if b.anchors is None or c.anchors is None:
            continue
        combined = _range(list(b.anchors) + list(c.anchors))
        if _norm_anchors(a.anchors) != (combined,):
            continue
        src, esrc, tgt, etgt = _pick_direction(b, eb, c, ec)
        payload = json.dumps([a.label,
                              esrc.label, "out" if esrc.source == a.id else "in",
                              etgt.label, "out" if etgt.source == a.id else "in"])
        g.edges.remove(eb)
        g.edges.remove(ec)
        g.edges.append(MrpEdge(src.id, tgt.id, REDUCED + payload))
        g.nodes.remove(a)
        return True
    return False


def _pick_direction(b, eb, c, ec):
    """ARG1 endpoint is the source and ARG2 the target; otherwise the
    lexicographically smaller edge label wins the source slot."""
    lb, lc = eb.label or "", ec.label or ""
    if lb == "ARG2" and lc == "ARG1":
        return c, ec, b, eb
    if lb == "ARG1" and lc == "ARG2":
        return b, eb, c, ec
    if (lb, b.id) <= (lc, c.id):
        return b, eb, c, ec
    return c, ec, b, eb


WORDS = ("aa", "bb", "cc", "dog", "dogs")
QUANTIFIERS = ("udef_q", "proper_q", "def_q")
@given(st.lists(st.tuples(st.none() | st.sampled_from(["named", "card", "_x_n_1"]),
                          st.lists(st.tuples(st.sampled_from(["carg", "pers", "num"]),
                                             st.text(max_size=3)), max_size=3)), max_size=5))
def test_exchange_properties_twice_is_identity(nodes):
    g = MrpGraph(id="x", framework="eds", input="",
                 nodes=[MrpNode(i, label, props) for i, (label, props) in enumerate(nodes)])
    assert eds_exchange_properties(eds_exchange_properties(g)) == g


EDGE_LABELS = ("ARG1", "ARG2", "BV", "L-INDEX", "R-INDEX")


@st.composite
def eds_graphs(draw, lossy=False):
    """EDS-like graphs: surface nodes over tokens, then quantifier-like,
    compound-like and chained type-1 nodes, extra links, one or two tops,
    and shuffled ids with gaps. With lossy=True, type-1 nodes may carry
    properties, edges attributes, and nodes and edges extras; surface nodes
    may be unanchored, anchored `[]` or on two pieces out of order, phrase
    pieces come in either order, and type-1 nodes may be anchored `[]` or on
    their neighbour's pieces reversed."""
    words = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=6))
    spans, pos = [], 0
    for w in words:
        spans.append((pos, pos + len(w)))
        pos += len(w) + 1
    text = " ".join(words)
    nodes, edges = [], []  # [label, anchors, props], (src, tgt, label, attrs)

    def sometimes(values, default):
        """With lossy=True, one time in six a draw from `values`; else `default`."""
        return draw(values) if lossy and draw(st.integers(0, 5)) == 0 else default

    def edge(s, t):
        if draw(st.booleans()):
            s, t = t, s
        attrs = sometimes(st.just([("scope", "wide")]), [])
        edges.append((s, t, draw(st.sampled_from(EDGE_LABELS)), attrs))

    def type1_anchors(anchors):
        return draw(st.sampled_from((anchors, [], (anchors or [])[::-1]))) if lossy else anchors

    for i, w in enumerate(words):
        kind = draw(st.sampled_from(("pred", "named", "pred", "phrase", "none")))
        if kind == "pred":
            own = [spans[i]]
            nodes.append([f"_{w}_n_1", draw(st.sampled_from((own, [], None, own + [spans[0]]))) if lossy else own, []])
        elif kind == "named":  # surface-mapped by matching the anchored text
            nodes.append([draw(st.sampled_from((w, w.upper(), w + "s"))), [spans[i]],
                          [("carg", "named")]])
        elif kind == "phrase" and i + 1 < len(words):
            pieces = [spans[i], spans[i + 1]]
            nodes.append([f"_{w}+{words[i + 1]}_p", draw(st.permutations(pieces)) if lossy else pieces, []])
    if not nodes:
        nodes.append(["_x_n_1", None, []])
    n_surface = len(nodes)
    surface = st.integers(0, n_surface - 1)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("quantifier", "compound", "chain", "loose")))
        a = len(nodes)
        if kind == "quantifier":
            b = draw(surface)
            anchors = nodes[b][1] if draw(st.integers(0, 4)) else [spans[0]]
            nodes.append([draw(st.sampled_from(QUANTIFIERS)), type1_anchors(anchors), []])
            edge(a, b)
        elif kind == "compound":
            b = draw(surface)
            c = draw(st.sampled_from([i for i in range(n_surface) if i != b] or [b]))
            pieces = (nodes[b][1] or []) + (nodes[c][1] or [])
            anchors = [_range(pieces)] if pieces and draw(st.integers(0, 4)) else nodes[b][1]
            nodes.append(["compound", anchors, []])
            edge(a, b)
            edge(a, c)
        elif kind == "chain":  # type-1 linked to any earlier node
            b = draw(st.integers(0, a - 1))
            nodes.append(["nominalization", type1_anchors(nodes[b][1]), []])
            edge(a, b)
        else:
            i = draw(st.integers(0, len(words) - 1))
            nodes.append(["loc_nonsp", draw(st.sampled_from((None, [spans[i]]))), []])
        nodes[a][2] = sometimes(st.just([("carg", "2")]), [])
    for _ in range(draw(st.integers(0, 3))):
        edge(draw(st.integers(0, len(nodes) - 1)), draw(st.integers(0, len(nodes) - 1)))

    ids = draw(st.lists(st.integers(0, 3 * len(nodes)), min_size=len(nodes),
                        max_size=len(nodes), unique=True))
    pool = ids if draw(st.integers(0, 4)) == 0 else ids[:n_surface]  # mostly surface tops
    tops = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
    order = draw(st.permutations(range(len(nodes))))
    return MrpGraph(id="p", framework="eds", input=text, tops=tops,
                    nodes=[MrpNode(ids[i], nodes[i][0], list(nodes[i][2]),
                                   None if nodes[i][1] is None else list(nodes[i][1]),
                                   sometimes(st.just({"note": 1}), {}))
                           for i in order],
                    edges=[MrpEdge(ids[s], ids[t], lab, list(attrs), sometimes(st.just({"note": 1}), {}))
                           for s, t, lab, attrs in edges])


class TestReduceProperties:
    @given(eds_graphs())
    def test_one_pass_matches_fixpoint_reference(self, g):
        assert serialize_mrp(eds_reduce(g)) == serialize_mrp(fixpoint_reduce(g))

    @given(eds_graphs(lossy=True))
    def test_idempotent(self, g):
        once = eds_reduce(g)
        assert serialize_mrp(eds_reduce(once)) == serialize_mrp(once)

    @given(eds_graphs(lossy=True))
    def test_restore_inverts_reduce_up_to_ids(self, g):
        assert same_up_to_ids(eds_restore(eds_reduce(g)), g)


def test_multiword_line_with_a_non_string_phrase_is_rejected():
    with pytest.raises(ValueError, match=r"^MultiwordTable: line 1: TypeError: phrase 3 is not a string$"):
        MultiwordTable.from_lines(['{"phrase":3,"prob":0.9,"count":3}'])
