import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import sentence

from mrparse import companion as comp
from mrparse.companion import CompanionSentence, Token
from mrparse.mrp import MrpGraph
from mrparse.prep.eds import MultiwordTable, apply_multiword

DOC = """#s1
1\tPierre\tPierre\tNNP\tTokenRange=0:6

#s2
1\tDogs\tdog\tNNS\t_
2\tbark\tbark\tVBP\t_
"""


def test_read_single_token_sentence():
    sents = comp.read_companion("1\tPierre\tPierre\tNNP\tTokenRange=0:6\n")
    assert len(sents) == 1
    t = sents[0].tokens[0]
    assert (t.form, t.lemma, t.xpos, t.start, t.end) == ("Pierre", "Pierre", "NNP", 0, 6)


def test_read_empty_document():
    assert comp.read_companion("") == []


def test_read_two_sentences_with_reconstructed_offsets():
    sents = comp.read_companion(DOC)
    assert len(sents) == 2
    assert sents[0].id == "s1" and sents[1].id == "s2"
    s2 = sents[1]
    assert [(t.start, t.end) for t in s2.tokens] == [(0, 4), (5, 9)]
    assert s2.text() == "Dogs bark"


def test_read_column_mismatch_names_line():
    with pytest.raises(comp.CompanionError) as ei:
        comp.read_companion("1\tonly\ttwo\n")
    assert "line 1" in str(ei.value)


def test_id_line_inside_a_block_names_line():
    # two sentences without the blank line between them are not one sentence
    with pytest.raises(comp.CompanionError, match=r"line 3: id line '#b' inside a block"):
        comp.read_companion("#a\n1\tx\tx\tX\t_\n#b\n1\ty\ty\tY\t_\n")


def test_second_id_line_before_any_token_names_line():
    # a block has one id; a second one would silently replace the first
    with pytest.raises(comp.CompanionError, match=r"line 2: id line '#b' inside a block"):
        comp.read_companion("#a\n#b\n1\tx\tx\tX\t_\n")


def test_token_range_is_read_from_among_other_misc_items():
    [s] = comp.read_companion("1\tab\tab\tXX\tSpaceAfter=No|TokenRange=3:5\n2\tc\tc\tXX\tTokenRange=5:6|Gloss=c\n")
    assert [(t.start, t.end) for t in s.tokens] == [(3, 5), (5, 6)]


def test_repeated_token_range_names_line():
    with pytest.raises(comp.CompanionError, match=r"^line 2: TokenRange given twice$"):
        comp.read_companion("#s1\n1\tab\tab\tXX\tTokenRange=0:2|TokenRange=5:7\n")


@pytest.mark.parametrize("token_range", ["0-1", "a:1", "1:2:3", ""])
def test_malformed_token_range_names_line(token_range):
    doc = f"#s1\n1\tab\tab\tXX\tTokenRange=0:2\n2\tcd\tcd\tXX\tTokenRange={token_range}\n"
    with pytest.raises(comp.CompanionError, match="line 3"):
        comp.read_companion(doc)


def test_token_ending_before_its_start_is_rejected():
    with pytest.raises(comp.CompanionError, match=r"sentence s1: token 'ab' ends at 3, before its start 5"):
        comp.read_companion("#s1\n1\tab\tab\tXX\tTokenRange=5:3\n")
    comp.read_companion("#s1\n1\t\t\tXX\tTokenRange=5:5\n")  # zero width is fine


def test_ner_tag_count_that_is_not_the_token_count_is_refused():
    """Only None stands for all "O"; an empty list is a count like any other."""
    tokens = [Token("a", "a", "X", 0, 1), Token("b", "b", "X", 2, 3)]
    with pytest.raises(comp.CompanionError, match=r"^sentence s1: 3 NER tags for 2 tokens$"):
        CompanionSentence(tokens, ["O", "O", "PER"], id="s1")
    with pytest.raises(comp.CompanionError, match=r"^sentence s1: 0 NER tags for 2 tokens$"):
        CompanionSentence(tokens, [], id="s1")
    assert CompanionSentence(tokens, id="s1").ner_tags == ["O", "O"]


def test_overlapping_token_offsets_are_refused():
    with pytest.raises(comp.CompanionError, match=r"^sentence s1: token offsets overlap at 'bc'$"):
        CompanionSentence([Token("ab", "ab", "X", 0, 2), Token("bc", "bc", "X", 1, 3)], id="s1")


def test_companion_file_roundtrip(tmp_path):
    sents = comp.read_companion(DOC)
    path = tmp_path / "c.tsv"
    comp.write_companion(path, sents)
    assert comp.read_companion(path.read_text()) == sents


def test_blank_line_ends_a_block_of_an_id_alone():
    assert comp.read_companion("#a\n\n1\tx\tx\tX\t_\n") == [
        CompanionSentence([], id="a"), CompanionSentence([Token("x", "x", "X", 0, 1)])]


# the empty string, the format's own syntax and spaces that `str.strip` removes; one draw
# in twenty, a tab or a character that `str.splitlines` breaks a line at, so that about
# half the lists of sentences that the round-trip property draws are written and read back
_FIELD = st.integers(0, 19).flatmap(lambda k: st.sampled_from(
    ["a\tb", "a\nb", "\r", "\x1c", "a\u2028"] if k == 0
    else ["", "a", "#a", "1", "_", "a|TokenRange=0:1", "a b", "\u00a0é\u3000"]))


def _one_cell(field):
    """Whether a field stays one column of one line: no tab, no line break."""
    return "\t" not in field and len(f"x{field}x".splitlines()) == 1


def _reads_back(s):
    """Whether read_companion gives back sentence s as write_companion writes it."""
    return ((len(s.tokens) > 0 if s.id is None else _one_cell(s.id) and s.id == s.id.strip())
            and all(_one_cell(f) for t in s.tokens for f in (t.form, t.lemma, t.xpos)))


@st.composite
def companion_sentences(draw):
    tokens, pos = [], 0
    for form, lemma, xpos in draw(st.lists(st.tuples(_FIELD, _FIELD, _FIELD), max_size=3)):
        start = pos + draw(st.integers(0, 2))
        pos = start + draw(st.integers(0, 3))
        tokens.append(Token(form, lemma, xpos, start, pos))
    return CompanionSentence(tokens, id=draw(st.none() | _FIELD))


@given(sents=st.lists(companion_sentences(), max_size=4))
def test_write_then_read_gives_back_every_sentence_with_an_id_or_a_token(tmp_path_factory, sents):
    """Or the writer refuses, naming the first sentence that would not read
    back, and writes no file. A sentence with neither is one of those."""
    path = tmp_path_factory.getbasetemp() / "roundtrip.tsv"
    path.unlink(missing_ok=True)
    refused = [s for s in sents if not _reads_back(s)]
    if refused:
        with pytest.raises(comp.CompanionError, match=f"^sentence {re.escape(repr(refused[0].id))}: "):
            comp.write_companion(path, sents)
        assert not path.exists()
        return
    comp.write_companion(path, sents)
    assert comp.read_companion(path.read_text(encoding="utf-8")) == sents


@pytest.mark.parametrize("sent, field", [
    (CompanionSentence([], id=" s"), "id"),  # it would read back as "s"
    (CompanionSentence([], id="s\nt"), "id"),
    (CompanionSentence([Token("a\tb", "a", "X", 0, 3)], id="s"), "form"),
    (CompanionSentence([Token("a", "a\rb", "X", 0, 1)], id="s"), "lemma"),
    (CompanionSentence([Token("a", "a", "X\u2028", 0, 1)]), "xpos"),
], ids=["id with a leading space", "id with a newline", "form with a tab", "lemma with a return",
        "xpos with a line separator"])
def test_write_companion_refuses_a_field_that_would_not_read_back(tmp_path, sent, field):
    path = tmp_path / "c.tsv"
    with pytest.raises(comp.CompanionError, match=f"^sentence {re.escape(repr(sent.id))}: (token 1 )?{field} "):
        comp.write_companion(path, [CompanionSentence([], id="ok"), sent])
    assert not path.exists()


def test_write_companion_refuses_a_sentence_with_neither_id_nor_tokens(tmp_path):
    """It would read back as nothing, and the sentences after it would read back one position early."""
    path = tmp_path / "c.tsv"
    sents = [CompanionSentence([Token("a", "a", "X", 0, 1)], id="s"), CompanionSentence([]),
             CompanionSentence([Token("b", "b", "X", 0, 1)], id="t")]
    with pytest.raises(comp.CompanionError, match=r"^sentence None: position 1: neither an id nor a token"):
        comp.write_companion(path, sents)
    assert not path.exists()


def test_tokens_of_separate_documents_share_their_strings():
    first = comp.read_companion("#a\n1\tDogs\tdog\tNNS\t_\n2\tbark\tbark\tVBP\t_\n")
    second = comp.read_companion("#b\n1\tbark\tbark\tVBP\t_\n2\tloud\tloud\tRB\t_\n3\tDogs\tdog\tNNS\t_\n")
    assert [(t.form, t.lemma, t.xpos) for t in second[0].tokens] == [
        ("bark", "bark", "VBP"), ("loud", "loud", "RB"), ("Dogs", "dog", "NNS")]
    for a, b in [(first[0].tokens[0], second[0].tokens[2]), (first[0].tokens[1], second[0].tokens[0])]:
        assert a.form is b.form and a.lemma is b.lemma and a.xpos is b.xpos
    bark = second[0].tokens[0]
    assert bark.lemma is bark.form


def reference_read_companion(doc):
    """The two-pass reader that `read_companion` replaced (blocks of
    (lineno, cols) rows, then one token per row), kept as the reference
    for what it reads."""
    sentences, block, block_id = [], [], None
    for lineno, line in enumerate(doc.splitlines() + [""], start=1):
        if not line or line.isspace():
            if block or block_id is not None:
                sentences.append(reference_finish_block(block, block_id))
            block, block_id = [], None
            continue
        if line.startswith("#"):
            if block or block_id is not None:
                raise comp.CompanionError(f"line {lineno}: id line {line!r} inside a block")
            block_id = line[1:].strip()
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise comp.CompanionError(f"line {lineno}: expected 5 columns, got {len(cols)}")
        block.append((lineno, cols))
    return sentences


def reference_finish_block(rows, block_id):
    tokens, pos = [], 0
    for lineno, (_, form, lemma, xpos, misc) in rows:
        start = end = None
        for item in misc.split("|") if "|" in misc else (misc,):
            if item.startswith("TokenRange="):
                if start is not None:
                    raise comp.CompanionError(f"line {lineno}: TokenRange given twice")
                a, _, z = item[len("TokenRange="):].partition(":")
                try:
                    start, end = int(a), int(z)
                except ValueError:
                    raise comp.CompanionError(f"line {lineno}: {item!r} is not TokenRange=start:end") from None
        if start is None:
            start, end = pos, pos + len(form)
        tokens.append(Token(form, lemma, xpos, start, end))
        pos = end + 1
    return CompanionSentence(tokens=tokens, id=block_id)


_WORDS = _FIELD | st.sampled_from(["Dogs", "dogs", "bark", "NNS"])
_MISC = st.sampled_from(["_", "TokenRange=0:2", "TokenRange=3:7", "a|TokenRange=8:9", "TokenRange=1:x",
                         "TokenRange=0:1|TokenRange=2:3", "SpaceAfter=No"])
_TOKEN_LINE = st.tuples(st.sampled_from(["1", "2", ""]), _WORDS, _WORDS, _WORDS, _MISC).map("\t".join)
_COMPANION_LINE = _TOKEN_LINE | st.sampled_from(["", " \t", "#a", "# b ", "1\tx\tx\tX", "1\tx\tx\tX\t_\t_"])


@given(lines=st.lists(_COMPANION_LINE, max_size=8))
def test_read_companion_reads_what_the_reference_reads(lines):
    """The same sentences, or a CompanionError from both; every string
    that the reader returns is interned."""
    doc = "\n".join(lines)
    try:
        expected = reference_read_companion(doc)
    except comp.CompanionError:
        with pytest.raises(comp.CompanionError):
            comp.read_companion(doc)
        return
    got = comp.read_companion(doc)
    assert got == expected
    for t in (t for s in got for t in s.tokens):
        assert all(sys.intern(x) is x for x in (t.form, t.lemma, t.xpos))


def test_ner_sidecar():
    lines = comp.read_ner_sidecar("O PER\nO O O\n")
    assert lines == [["O", "PER"], ["O", "O", "O"]]


class TestAlignCompanion:
    def test_identity_when_consistent(self):
        s = sentence("Dogs bark", "dog bark")
        g = MrpGraph(id="1", framework="dm", input="Dogs bark")
        out = comp.align_companion(g, s)
        assert out.forms == ["Dogs", "bark"]
        assert [(t.start, t.end) for t in out.tokens] == [(0, 4), (5, 9)]

    def test_matching_tokens_are_returned_themselves(self):
        s = sentence("Dogs bark", "dog bark")
        out = comp.align_companion(MrpGraph(id="1", framework="dm", input="Dogs bark"), s)
        assert len(out.tokens) == 2 and all(a is b for a, b in zip(out.tokens, s.tokens))

    def test_a_moved_token_keeps_its_form_object(self):
        [s] = comp.read_companion("1\tDogs\tdog\tNNS\tTokenRange=0:4\n2\tbark\tbark\tVBP\tTokenRange=5:9\n")
        out = comp.align_companion(MrpGraph(id="1", framework="dm", input=" Dogs  bark"), s)
        assert [(t.start, t.end) for t in out.tokens] == [(1, 5), (7, 11)]
        for t, moved in zip(s.tokens, out.tokens):
            assert moved is not t and moved.form is t.form
            assert (moved.lemma, moved.xpos) == (t.lemma, t.xpos)

    def test_drifted_and_moved_tokens_are_new(self):
        s = sentence("we gonna leave", "we go leave")
        g = MrpGraph(id="1", framework="dm", input="we gon na leave")
        out = comp.align_companion(g, s)
        assert out.forms == ["we", "gon", "na", "leave"]
        assert [t is s.tokens[0] for t in out.tokens] == [True, False, False, False]
        assert out.tokens[3] == replace(s.tokens[2], start=10, end=15)  # the same form, moved

    def test_contraction_tokens_kept_offsets_mapped(self):
        # companion splits "don't" while the input spells it solid
        s = sentence("do n't go", "do not go")
        g = MrpGraph(id="1", framework="dm", input="don't go")
        out = comp.align_companion(g, s)
        assert out.forms == ["do", "n't", "go"]
        assert [(t.start, t.end) for t in out.tokens] == [(0, 2), (2, 5), (6, 8)]
        assert [t.lemma for t in out.tokens] == ["do", "not", "go"]

    def test_resplit_from_input(self):
        # companion merged what the input spells as two tokens
        s = sentence("don't go", "do go")
        g = MrpGraph(id="1", framework="dm", input="do n't go")
        out = comp.align_companion(g, s)
        assert out.forms == ["do", "n't", "go"]
        assert "".join(out.forms[:2]) == "don't"
        assert out.tokens[0].lemma == "do"

    def test_solid_compound_consumed_without_gap(self):
        s = sentence("New York won", "New York win")
        g = MrpGraph(id="1", framework="dm", input="NewYork won")
        out = comp.align_companion(g, s)
        assert out.forms == ["New", "York", "won"]
        assert [(t.start, t.end) for t in out.tokens] == [(0, 3), (3, 7), (8, 11)]

    def test_merge_when_companion_diverges(self):
        s = sentence("gonna leave", "go leave")
        g = MrpGraph(id="1", framework="dm", input="gon na leave")
        out = comp.align_companion(g, s)
        assert out.forms == ["gon", "na", "leave"]
        assert out.tokens[0].lemma == "go"

    def test_concatenation_invariant(self):
        cases = [
            ("a b", "a  b"),
            ("ab", "a b"),
            ("x y z", "xyz"),
        ]
        for forms, text in cases:
            g = MrpGraph(id="1", framework="dm", input=text)
            out = comp.align_companion(g, sentence(forms, forms))
            rebuilt = out.text()
            assert rebuilt.rstrip() == text.rstrip()[:len(rebuilt)] or all(
                text[t.start:t.end] == t.form for t in out.tokens)

    def test_disjoint_strings_error(self):
        s = sentence("alpha beta", "alpha beta")
        g = MrpGraph(id="1", framework="dm", input="zzz qqq www")
        with pytest.raises(comp.AlignmentError):
            comp.align_companion(g, s)


def test_alignment_invariant_failure_is_typed(monkeypatch):
    # a repair that drops the text of a drifted stretch must be reported
    # as an AlignmentError, also when asserts are compiled out
    monkeypatch.setattr(comp, "_WORD", re.compile(r"(?!)"))
    g = MrpGraph(id="1", framework="dm", input="we gon na leave")
    with pytest.raises(comp.AlignmentError, match="between"):
        comp.align_companion(g, sentence("we gonna leave", "we go leave"))


@pytest.mark.parametrize("text, forms, expected, lemmas", [
    # a glued word that recurs later must not pull the alignment forward
    ("big dog saw the cat and the cow", "big dog sawthe cat and the cow",
     "big dog saw the cat and the cow", "big dog sawthe sawthe cat and the cow"),
    ("red fox saw a blue fox and a red hen", "redfox saw a blue fox and a red hen",
     "red fox saw a blue fox and a red hen", "redfox redfox saw a blue fox and a red hen"),
    # a later form that is a substring of the glued one, or of a later word
    ("the cat sat at home.", "thecat sat at home .",
     "the cat sat at home .", "thecat thecat sat at home ."),
    ("a cat sat on a mat.", "acat sat on a mat .", "a cat sat on a mat .", "acat acat sat on a mat ."),
], ids=["sawthe", "redfox", "thecat", "acat"])
def test_merged_companion_token_splits_at_input_spaces(text, forms, expected, lemmas):
    out = comp.align_companion(MrpGraph(id="1", framework="dm", input=text), sentence(forms, forms))
    assert out.forms == expected.split()
    assert [t.lemma for t in out.tokens] == lemmas.split()
    assert all(text[t.start:t.end] == t.form for t in out.tokens)


def test_accent_drift_keeps_neighbours():
    s = sentence("the cafe is a cafe", "the cafe is a cafe")
    g = MrpGraph(id="1", framework="dm", input="the café is a cafe")
    out = comp.align_companion(g, s)
    assert out.forms == ["the", "café", "is", "a", "cafe"]
    assert [t.lemma for t in out.tokens] == ["the", "cafe", "is", "a", "cafe"]
    assert [(t.start, t.end) for t in out.tokens][1] == (4, 8)


@pytest.mark.parametrize("text, forms, expected", [
    ("   ", ["a", "b"], []),
    ("", [], []),
    ("a b", ["a", "", "b"], ["a", "b"]),
    ("", ["", "a"], []),
])
def test_alignment_edge_cases(text, forms, expected):
    out = comp.align_companion(MrpGraph(id="1", framework="dm", input=text), sentence(forms, forms))
    assert out.forms == expected
    assert [t.lemma for t in out.tokens] == expected


def test_empty_companion_on_nonempty_input_is_an_error():
    with pytest.raises(comp.AlignmentError, match="rewrite 3/3"):
        comp.align_companion(MrpGraph(id="1", framework="dm", input="a b c"), sentence([]))


# Words that repeat and contain each other, so that a search for a later
# token's form would find it in the wrong place.
RESEGMENT_WORDS = ["a", "at", "cat", "the", "then", "he", "sat", "saw", "an", "and", "fox", "red"]


@st.composite
def resegmented(draw):
    """(input text, companion forms): the companion glues neighbouring
    input words or splits a word inside, at random."""
    words = draw(st.lists(st.sampled_from(RESEGMENT_WORDS), min_size=1, max_size=10))
    gaps = draw(st.lists(st.sampled_from([" ", " ", "  ", "\t"]),
                         min_size=len(words) + 1, max_size=len(words) + 1))
    text = gaps[0] + "".join(w + gap for w, gap in zip(words, gaps[1:]))
    forms = []
    i = 0
    while i < len(words):
        move = draw(st.sampled_from(("keep", "keep", "glue", "split")))
        if move == "glue" and i + 1 < len(words):
            forms.append(words[i] + words[i + 1])
            i += 2
            continue
        if move == "split" and len(words[i]) > 1:
            cut = draw(st.integers(1, len(words[i]) - 1))
            forms += [words[i][:cut], words[i][cut:]]
        else:
            forms.append(words[i])
        i += 1
    return text, forms


@given(resegmented())
def test_resegmented_companion_aligns_exactly(case):
    text, forms = case
    sent = sentence(forms, [f"L{k}" for k in range(len(forms))], [f"T{k}" for k in range(len(forms))])
    out = comp.align_companion(MrpGraph(id="1", framework="dm", input=text), sent)
    assert all(text[t.start:t.end] == t.form for t in out.tokens)
    # the tokens cover each non-space input character once, in order
    assert "".join(out.forms) == "".join(text.split())
    assert all(a.end <= b.start for a, b in zip(out.tokens, out.tokens[1:]))
    # every character carries the lemma and tag of the token that spelled it
    assert [t.lemma for t in out.tokens for _ in t.form] == [f"L{k}" for k, f in enumerate(forms) for _ in f]
    assert [tag for t, tag in zip(out.tokens, out.ner_tags) for _ in t.form] == \
        [f"T{k}" for k, f in enumerate(forms) for _ in f]


def test_apply_multiword_merges_groups():
    s = sentence("such as dogs", "such as dog")
    out = apply_multiword(s, MultiwordTable({"such as": (1.0, 2)}))
    assert out.forms == ["such as", "dogs"]
    assert out.tokens[0].lemma == "such+as"
    assert (out.tokens[0].start, out.tokens[0].end) == (0, 7)


def test_replace_spans_shifts_offsets():
    s = sentence("met Pierre Vinken today", "meet Pierre Vinken today", "O PER PER O")
    out = comp.replace_spans(s, [(1, 2, "PERSON_0", "PERSON_0", "NNP", "PER")])
    assert out.forms == ["met", "PERSON_0", "today"]
    assert out.text() == "met PERSON_0 today"
    assert out.ner_tags == ["O", "PER", "O"]


def replace_span(sent, lo, hi, form, lemma, xpos, tag):
    """Reference: the one-run splice replace_spans replaced, which rebuilt
    the whole token list per run."""
    old = sent.tokens
    start = old[lo].start
    new_tok = Token(form, lemma, xpos, start, start + len(form))
    delta = new_tok.end - old[hi].end
    toks = list(old[:lo]) + [new_tok] + [
        replace(t, start=t.start + delta, end=t.end + delta) for t in old[hi + 1:]]
    tags = sent.ner_tags[:lo] + [tag] + sent.ner_tags[hi + 1:]
    return CompanionSentence(tokens=toks, ner_tags=tags, id=sent.id)


@st.composite
def spliced(draw):
    """(sentence, runs): tokens with gaps and zero-width forms, and sorted,
    non-overlapping runs with new tokens longer or shorter than them."""
    n = draw(st.integers(0, 12))
    toks, pos = [], 0
    for k in range(n):
        pos += draw(st.integers(0, 3))
        form = draw(st.text("abc", max_size=6))
        toks.append(Token(form, f"l{k}", draw(st.sampled_from(["NN", "VB"])), pos, pos + len(form)))
        pos += len(form)
    tags = draw(st.lists(st.sampled_from(["O", "PER", "LOC"]), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(0, n), max_size=n + 1)))
    runs = []
    for lo, end in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            hi = draw(st.integers(lo, end - 1))
            form = draw(st.text("XYZ_0", max_size=12))
            runs.append((lo, hi, form, draw(st.sampled_from([form, "a+b"])), draw(st.sampled_from(["NNP", "IN"])),
                         draw(st.sampled_from(["PER", "DATE"]))))
    return CompanionSentence(tokens=toks, ner_tags=tags, id="s"), runs


@given(spliced())
def test_replace_spans_matches_right_to_left_reference(case):
    sent, runs = case
    want = sent
    for lo, hi, form, lemma, xpos, tag in reversed(runs):
        want = replace_span(want, lo, hi, form, lemma, xpos, tag)
    got = comp.replace_spans(sent, runs)
    assert [(t.form, t.start, t.end, t.lemma, t.xpos) for t in got.tokens] == \
        [(t.form, t.start, t.end, t.lemma, t.xpos) for t in want.tokens]
    assert got.ner_tags == want.ner_tags and got.id == want.id


def reference_find_phrase(forms, words, taken):
    """`find_phrase` before it jumped between occurrences with list.index,
    kept verbatim: a test of the first word at every position."""
    n = len(words)
    for i in range(len(forms) - n + 1):
        if forms[i] == words[0] and forms[i:i + n] == words and taken.isdisjoint(range(i, i + n)):
            return i
    return None


# few words, so that a 2-4 word phrase and its first word recur in a sentence
_PHRASE_WORD = st.sampled_from(["a", "b", "ab", ""])


@given(st.lists(_PHRASE_WORD, max_size=10), st.lists(_PHRASE_WORD, min_size=1, max_size=4),
       st.sets(st.integers(0, 10), max_size=4))
def test_find_phrase_finds_what_the_reference_scan_finds(forms, words, taken):
    assert comp.find_phrase(forms, words, set()) == reference_find_phrase(forms, words, set())
    assert comp.find_phrase(forms, words, taken) == reference_find_phrase(forms, words, taken)
