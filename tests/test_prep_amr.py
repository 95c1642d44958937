import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import same_up_to_ids, sentence

from mrparse.mrp import MrpEdge, MrpGraph, MrpNode
from mrparse.prep.amr import AmrTables, amr_postprocess, amr_preprocess, sentence_entry


def amr(nodes, edges, tops, text=""):
    return MrpGraph(id="a", framework="amr", input=text, tops=tops,
                    nodes=[MrpNode(i, lab, props or []) for i, lab, props in nodes],
                    edges=[MrpEdge(s, t, lab) for s, t, lab in edges])


def test_sense_suffix_stripped():
    g = amr([(0, "want-01", [])], [], [0])
    out, _, _ = amr_preprocess(g, sentence("wants"), AmrTables())
    assert out.nodes[0].label == "want"


def test_wiki_and_polarity_dropped():
    g = amr([(0, "want-01", [("wiki", "-"), ("polarity", "-")])], [], [0])
    out, _, _ = amr_preprocess(g, sentence("wants"), AmrTables())
    assert out.nodes[0].properties == []


def test_fit_counts_senses_bare_labels_and_polarity():
    g = amr([(0, "want-01", [("polarity", "-")]), (1, "want-01", []), (2, "want-02", [("wiki", "-")]),
             (3, "possible", [("wiki", "-"), ("polarity", "-")]), (4, "boy", []), (5, None, [("polarity", "-")])],
            [], [0])
    tables = AmrTables()
    amr_preprocess(g, sentence("x"), tables, update=True)
    assert tables.senses == {"want": {"want-01": 2, "want-02": 1}}
    assert tables.bare == {"possible": 1, "boy": 1}
    assert tables.polarity == {"want": [1, 3], "possible": [1, 1], "boy": [0, 1]}


def test_untouched_graph_unchanged():
    g = amr([(0, "boy", []), (1, "want", [])], [(1, 0, "ARG0")], [1])
    out, s, entry = amr_preprocess(g, sentence("the boy wants"), AmrTables())
    assert out == g and entry == {}


def test_name_subgraph_anonymized():
    g = amr([(0, "visit-01", []), (1, "person", []), (2, "name", []), (3, "Pierre", [])],
            [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1")], [0])
    s = sentence("Pierre visited", tags="PER O")
    out, s2, entry = amr_preprocess(g, s, AmrTables())
    labels = sorted(n.label for n in out.nodes)
    assert labels == ["PERSON_0", "visit"]
    assert s2.forms == ["PERSON_0", "visited"]
    assert entry["PERSON_0"] == {"kind": "named", "type": "person", "parts": [["op1", "Pierre"]]}


def test_multiword_name_anonymized():
    g = amr([(0, "person", []), (1, "name", []), (2, "Pierre", []), (3, "Vinken", [])],
            [(0, 1, "name"), (1, 2, "op1"), (1, 3, "op2")], [0])
    s = sentence("Pierre Vinken retired", tags="PER PER O")
    out, s2, entry = amr_preprocess(g, s, AmrTables())
    assert s2.forms == ["PERSON_0", "retired"]
    assert entry["PERSON_0"]["parts"] == [["op1", "Pierre"], ["op2", "Vinken"]]


def test_unmatched_entity_left_intact():
    # phrase not present in the sentence: sub-graph survives
    g = amr([(0, "person", []), (1, "name", []), (2, "Zorro", [])],
            [(0, 1, "name"), (1, 2, "op1")], [0])
    out, _, entry = amr_preprocess(g, sentence("nobody here"), AmrTables())
    assert len(out.nodes) == 3 and entry == {}


def test_postprocess_expands_recorded_subgraph():
    g = amr([(0, "visit-01", []), (1, "person", []), (2, "name", []), (3, "Pierre", [])],
            [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1")], [0])
    tables = AmrTables()
    pre, _, entry = amr_preprocess(g, sentence("Pierre visited", tags="PER O"), tables, update=True)
    post = amr_postprocess(pre, entry, tables)
    by_label = {n.label for n in post.nodes}
    assert {"person", "name", "Pierre"} <= by_label
    ops = [e for e in post.edges if e.label == "op1"]
    assert len(ops) == 1


def test_postprocess_expands_placeholder_of_custom_template():
    tables = AmrTables()
    tables.senses["cost"] = {"cost-01": 1}
    g = amr([(0, "cost", []), (1, "ENTITY_0", [])], [(0, 1, "ARG1")], [0])
    entry = {"ENTITY_0": {"kind": "named", "type": "monetary-quantity", "parts": [["op1", "$5"]]}}
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
    for text, tags, nodes, edges, tops in [
        ("Pierre visited Rome", "PER O LOC",
         [(0, "visit-01", []), (1, "person", []), (2, "name", []), (3, "Pierre", []),
          (4, "city", []), (5, "name", []), (6, "Rome", [])],
         [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1"),
          (0, 4, "ARG1"), (4, 5, "name"), (5, 6, "op1")], [0]),
        ("the boy wants sleep", "O O O O",
         [(0, "want-01", []), (1, "boy", []), (2, "sleep-01", [])],
         [(0, 1, "ARG0"), (0, 2, "ARG1")], [0]),
    ]:
        g = amr(nodes, edges, tops, text=text)
        s = sentence(text, tags=tags)
        corpus.append((g, s))
        amr_preprocess(g, s, tables, update=True)
    for g, s in corpus:
        pre, _, entry = amr_preprocess(g, s, tables)
        post = amr_postprocess(pre, entry, tables)
        assert _sig(post) == _sig(g)


def test_entity_with_two_names_roundtrips_unanonymized():
    g = amr([(0, "city", []), (1, "name", []), (2, "Paris", []), (3, "name", []), (4, "France", [])],
            [(0, 1, "name"), (1, 2, "op1"), (0, 3, "name"), (3, 4, "op1")], [0], text="Paris France")
    tables = AmrTables()
    pre, s, entry = amr_preprocess(g, sentence("Paris France", tags="LOC ORG"), tables)
    assert entry == {} and s.forms == ["Paris", "France"]
    assert _sig(amr_postprocess(pre, entry, tables)) == _sig(g)


def pierre_vinken(ops):
    """person -name-> name -ops-> Pierre (, Vinken) over "Pierre (Vinken)
    retired", the names tagged PER."""
    words = ["Pierre", "Vinken"][:len(ops)]
    text = " ".join(words + ["retired"])
    nodes = [MrpNode(0, "person"), MrpNode(1, "name")] + [MrpNode(2 + k, w) for k, w in enumerate(words)]
    edges = [MrpEdge(0, 1, "name")] + [MrpEdge(1, 2 + k, op) for k, op in enumerate(ops)]
    return MrpGraph("a", "amr", text, [0], nodes, edges), sentence(text, tags=["PER"] * len(words) + ["O"])


def _leaf_anchors(g):
    g.nodes[2].anchors = [(0, 6)]


def _name_property(g):
    g.nodes[1].properties = [("lang", "fr")]


def _edge_extras(g):
    g.edges[1].extras = {"note": "x"}


def _leaf_top(g):
    g.tops = [0, 2]


def _bystander_placeholder(g):
    g.nodes.append(MrpNode(9, "PERSON_0"))
    g.edges.append(MrpEdge(9, 0, "ARG0"))
    g.tops = [9]


@pytest.mark.parametrize("ops, decorate, collapsed", [
    (("op1", "op2"), _leaf_anchors, False),
    (("op1", "op2"), _name_property, False),
    (("op1", "op2"), _edge_extras, False),
    (("op01",), None, True),
    (("op1", "op3"), None, True),
    (("op1", "op2"), _bystander_placeholder, False),
    (("op1", "op2"), _leaf_top, False),
], ids=["leaf-anchors", "name-property", "edge-extras", "op01", "op1-op3", "bystander-PERSON_0",
        "leaf-top"])
def test_entity_round_trips_as_written(ops, decorate, collapsed):
    """An entity that its entry cannot rebuild stays in the graph as it is;
    one that it can comes back with its edge labels as written."""
    g, s = pierre_vinken(ops)
    if decorate:
        decorate(g)
    tables = AmrTables()
    pre, _, entry = amr_preprocess(g, s, tables, update=True)
    assert bool(entry) == collapsed
    assert same_up_to_ids(amr_postprocess(pre, entry, tables), g)


def _sig(g):
    lab = {n.id: n.label for n in g.nodes}
    return (sorted((n.label, tuple(sorted(n.properties))) for n in g.nodes),
            sorted((lab[e.source], lab[e.target], e.label) for e in g.edges),
            sorted(lab[t] for t in g.tops))


def test_sentence_entry_for_test_time():
    tables = AmrTables(entity_types={"PER": {"person": 7}, "LOC": {"city": 3}})
    s = sentence("Pierre Vinken visited Rome", tags="PER PER O LOC")
    out, entry = sentence_entry(s, tables)
    assert out.forms == ["PERSON_0", "visited", "LOCATION_0"]
    assert out.text() == "PERSON_0 visited LOCATION_0" and out.ner_tags == ["PER", "O", "LOC"]
    assert entry["PERSON_0"] == {"kind": "named", "type": "person",
                                 "parts": [["op1", "Pierre"], ["op2", "Vinken"]]}
    assert entry["LOCATION_0"]["type"] == "city"


def test_sentence_entry_types_a_tag_the_tables_never_saw_by_its_kind():
    s = sentence("Acme hired Kim on Monday", tags="ORG O PER O DATE")
    _, entry = sentence_entry(s, AmrTables())
    assert {k: (v["kind"], v["type"]) for k, v in entry.items()} == {
        "ORGANIZATION_0": ("named", "thing"), "PERSON_0": ("named", "thing"), "DATE_0": ("date", "date-entity")}


def test_tables_serialization_roundtrip():
    tables = AmrTables()
    g = amr([(0, "visit-01", [("polarity", "-")]), (1, "person", []), (2, "name", []),
             (3, "Pierre", [])],
            [(0, 1, "ARG0"), (1, 2, "name"), (2, 3, "op1")], [0])
    amr_preprocess(g, sentence("Pierre visited", tags="PER O"), tables, update=True)
    back = AmrTables.from_lines(tables.to_lines())
    assert back.senses == tables.senses
    assert back.bare == tables.bare
    assert back.polarity == {k: list(v) for k, v in tables.polarity.items()}
    assert back.entity_types == tables.entity_types


NAMES = st.text(max_size=4)
COUNTS = st.integers(0, 50)


@given(st.builds(AmrTables,
                 senses=st.dictionaries(NAMES, st.dictionaries(NAMES, COUNTS, max_size=2), max_size=2),
                 bare=st.dictionaries(NAMES, COUNTS, max_size=2),
                 polarity=st.dictionaries(NAMES, st.lists(COUNTS, min_size=2, max_size=2), max_size=2),
                 entity_types=st.dictionaries(NAMES, st.dictionaries(NAMES, COUNTS, max_size=2), max_size=2)))
def test_tables_lines_roundtrip_property(tables):
    assert AmrTables.from_lines(tables.to_lines()) == tables


@pytest.mark.parametrize("lines, want", [
    (['{"kind":"sense"}'], "^AmrTables: line 1: KeyError: 'counts'"),
    (["", "{"], "^AmrTables: line 2: JSONDecodeError"),
    (['{"kind":"bare","label":"a","count":1}', '{"kind":"nope"}'], "^AmrTables: line 2: ValueError: unknown kind 'nope'"),
    (['{"kind":"bare","label":"a","count":"x"}'], "^AmrTables: line 1: ValueError"),
    (['{"kind":"entity","tag":"PER","counts":[1]}'], "^AmrTables: line 1: AttributeError"),
    (["[1]"], "^AmrTables: line 1: TypeError"),
    (['{"kind":"template","tag":"PER","template":"PERSON"}'],
     "^AmrTables: line 1: ValueError: unknown kind 'template'$"),
])
def test_tables_malformed_line_names_class_and_line(lines, want):
    with pytest.raises(ValueError, match=want):
        AmrTables.from_lines(lines)


@pytest.mark.parametrize("line, key, value", [
    ('{"kind":"sense","stem":2,"counts":{"a-01":1}}', "stem", 2),
    ('{"kind":"bare","label":null,"count":1}', "label", None),
    ('{"kind":"polarity","stem":1.5,"with":1,"total":2}', "stem", 1.5),
    ('{"kind":"entity","tag":4,"counts":{"person":1}}', "tag", 4),
])
def test_tables_line_with_a_non_string_name_is_rejected(line, key, value):
    want = f"^AmrTables: line 1: TypeError: {key} {re.escape(repr(value))} is not a string$"
    with pytest.raises(ValueError, match=want):
        AmrTables.from_lines([line])
