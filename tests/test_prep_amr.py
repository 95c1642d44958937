import pytest

from mrparse.companion import CompanionSentence, GazetteerTagger, Token
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode
from mrparse.prep import AmrTables, amr_postprocess, amr_preprocess
from mrparse.prep.amr import sentence_entry


def sent(text, tags=None):
    toks = []
    pos = 0
    forms = text.split(" ")
    for f in forms:
        toks.append(Token(f, f.lower(), "XX", pos, pos + len(f)))
        pos += len(f) + 1
    if tags is None:
        tags = GazetteerTagger().tag(forms)
    return CompanionSentence(tokens=toks, ner_tags=tags)


def amr(nodes, edges, tops, text=""):
    return MrpGraph(id="a", framework="amr", input=text, tops=tops,
                    nodes=[MrpNode(i, lab, props or []) for i, lab, props in nodes],
                    edges=[MrpEdge(s, t, lab) for s, t, lab in edges])


def test_sense_suffix_stripped():
    g = amr([(0, "want-01", [])], [], [0])
    out, _, _ = amr_preprocess(g, sent("wants"))
    assert out.nodes[0].label == "want"


def test_wiki_and_polarity_dropped():
    g = amr([(0, "want-01", [("wiki", "-"), ("polarity", "-")])], [], [0])
    out, _, _ = amr_preprocess(g, sent("wants"))
    assert out.nodes[0].properties == []


def test_untouched_graph_unchanged():
    g = amr([(0, "boy", []), (1, "want", [])], [(1, 0, "ARG0")], [1])
    out, s, entry = amr_preprocess(g, sent("the boy wants"))
    assert out == g and entry == {}


def test_name_subgraph_anonymized():
    g = amr([(0, "visit-01", []), (1, "person", []), (2, "name", []), (3, "Pierre", [])],
            [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1")], [0])
    s = sent("Pierre visited")
    out, s2, entry = amr_preprocess(g, s)
    labels = sorted(n.label for n in out.nodes)
    assert labels == ["PERSON_0", "visit"]
    assert s2.forms == ["PERSON_0", "visited"]
    assert entry["PERSON_0"] == {"kind": "named", "type": "person", "phrase": ["Pierre"]}


def test_multiword_name_anonymized():
    g = amr([(0, "person", []), (1, "name", []), (2, "Pierre", []), (3, "Vinken", [])],
            [(0, 1, "name"), (1, 2, "op1"), (1, 3, "op2")], [0])
    s = sent("Pierre Vinken retired")
    out, s2, entry = amr_preprocess(g, s)
    assert s2.forms == ["PERSON_0", "retired"]
    assert entry["PERSON_0"]["phrase"] == ["Pierre", "Vinken"]


def test_unmatched_entity_left_intact():
    # phrase not present in the sentence: sub-graph survives
    g = amr([(0, "person", []), (1, "name", []), (2, "Zorro", [])],
            [(0, 1, "name"), (1, 2, "op1")], [0])
    out, _, entry = amr_preprocess(g, sent("nobody here"))
    assert len(out.nodes) == 3 and entry == {}


def test_postprocess_expands_recorded_subgraph():
    g = amr([(0, "visit-01", []), (1, "person", []), (2, "name", []), (3, "Pierre", [])],
            [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1")], [0])
    tables = AmrTables()
    pre, _, entry = amr_preprocess(g, sent("Pierre visited"), tables, update=True)
    post = amr_postprocess(pre, entry, tables)
    by_label = {n.label for n in post.nodes}
    assert {"person", "name", "Pierre"} <= by_label
    ops = [e for e in post.edges if e.label == "op1"]
    assert len(ops) == 1


def test_postprocess_expands_placeholder_of_custom_template():
    tables = AmrTables()
    tables.templates["MON"] = "MONEY"
    tables.senses["cost"] = {"cost-01": 1}
    g = amr([(0, "cost", []), (1, "MONEY_0", [])], [(0, 1, "ARG1")], [0])
    entry = {"MONEY_0": {"kind": "named", "type": "monetary-quantity", "phrase": ["$5"]}}
    post = amr_postprocess(g, entry, tables)
    by_id = post.node_by_id()
    assert by_id[1].label == "monetary-quantity"
    assert {(by_id[e.source].label, e.label, by_id[e.target].label) for e in post.edges} == {
        ("cost-01", "ARG1", "monetary-quantity"),
        ("monetary-quantity", "name", "name"),
        ("name", "op1", "$5"),
    }


def test_sense_restoration_prefers_frequent():
    tables = AmrTables(senses={"want": {"want-01": 10, "want-02": 1}})
    g = amr([(0, "want", [])], [], [0])
    out = amr_postprocess(g, {}, tables)
    assert out.nodes[0].label == "want-01"


def test_unseen_stem_stays_bare():
    tables = AmrTables(senses={"want": {"want-01": 1}})
    out = amr_postprocess(amr([(0, "want", []), (1, "person", [])], [(0, 1, "ARG0")], [0]), {}, tables)
    assert [n.label for n in out.nodes] == ["want-01", "person"]
    assert AmrTables().best_sense("blorf") == "blorf"


@pytest.mark.parametrize("stem", ["1989", "2.5", "-3"])
def test_number_keeps_no_sense(stem):
    assert AmrTables().best_sense(stem) == stem
    out = amr_postprocess(amr([(0, stem, [])], [], [0]), {}, AmrTables())
    assert out.nodes[0].label == stem


def test_bare_label_stays_bare():
    tables = AmrTables(bare={"boy": 5})
    out = amr_postprocess(amr([(0, "boy", [])], [], [0]), {}, tables)
    assert out.nodes[0].label == "boy"


@pytest.mark.parametrize("senses, bare, want", [
    ({"boy-01": 1}, 50, "boy"),
    ({"boy-01": 2, "boy-02": 1}, 3, "boy"),
    ({"boy-01": 2, "boy-02": 1}, 2, "boy-01"),
    ({"boy-01": 2, "boy-02": 1}, 1, "boy-01"),
])
def test_bare_count_weighs_against_the_best_sense(senses, bare, want):
    """The bare stem wins only when seen strictly more often than its most
    frequent sensed label."""
    assert AmrTables(senses={"boy": senses}, bare={"boy": bare}).best_sense("boy") == want


def test_polarity_restored_above_threshold():
    tables = AmrTables(bare={"possible": 1}, polarity={"possible": [3, 4]})
    out = amr_postprocess(amr([(0, "possible", [])], [], [0]), {}, tables)
    assert ("polarity", "-") in out.nodes[0].properties


def test_missing_entry_leaves_placeholder(caplog):
    g = amr([(0, "PERSON_0", [])], [], [0])
    out = amr_postprocess(g, {}, AmrTables())
    assert out.nodes[0].label == "PERSON_0"


def test_preprocess_postprocess_roundtrip_on_mini_corpus():
    tables = AmrTables()
    corpus = []
    for text, nodes, edges, tops in [
        ("Pierre visited Rome",
         [(0, "visit-01", []), (1, "person", []), (2, "name", []), (3, "Pierre", []),
          (4, "city", []), (5, "name", []), (6, "Rome", [])],
         [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1"),
          (0, 4, "ARG1"), (4, 5, "name"), (5, 6, "op1")], [0]),
        ("the boy wants sleep",
         [(0, "want-01", []), (1, "boy", []), (2, "sleep-01", [])],
         [(0, 1, "ARG0"), (0, 2, "ARG1")], [0]),
    ]:
        g = amr(nodes, edges, tops, text=text)
        s = sent(text)
        corpus.append((g, s))
        amr_preprocess(g, s, tables, update=True)
    for g, s in corpus:
        pre, _, entry = amr_preprocess(g, s, tables)
        post = amr_postprocess(pre, entry, tables)
        assert _sig(post) == _sig(g)


def _sig(g):
    lab = {n.id: n.label for n in g.nodes}
    return (sorted((n.label, tuple(sorted(n.properties))) for n in g.nodes),
            sorted((lab[e.source], lab[e.target], e.label) for e in g.edges),
            sorted(lab[t] for t in g.tops))


def test_sentence_entry_for_test_time():
    tables = AmrTables(entity_types={"PER": {"person": 7}, "LOC": {"city": 3}})
    s = sent("Pierre Vinken visited Rome")
    out, entry = sentence_entry(s, tables)
    assert out.forms == ["PERSON_0", "visited", "LOCATION_0"]
    assert out.text() == "PERSON_0 visited LOCATION_0" and out.ner_tags == ["PER", "O", "LOC"]
    assert entry["PERSON_0"] == {"kind": "named", "type": "person", "phrase": ["Pierre", "Vinken"]}
    assert entry["LOCATION_0"]["type"] == "city"


def test_tables_serialization_roundtrip():
    tables = AmrTables()
    g = amr([(0, "visit-01", [("polarity", "-")]), (1, "person", []), (2, "name", []),
             (3, "Pierre", [])],
            [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1")], [0])
    amr_preprocess(g, sent("Pierre visited"), tables, update=True)
    back = AmrTables.from_lines(tables.to_lines())
    assert back.senses == tables.senses
    assert back.bare == tables.bare
    assert back.polarity == {k: list(v) for k, v in tables.polarity.items()}
    assert back.entity_types == tables.entity_types
    assert back.templates == tables.templates
