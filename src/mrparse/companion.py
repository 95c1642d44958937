"""Companion-data ingestion: tokenization, lemmas, POS tags, NER tags, and
the token/input alignment repair.

Companion files are tab-separated blocks (index, form, lemma, xpos, misc)
separated by blank lines. The misc column may carry `TokenRange=start:end`
character offsets; otherwise offsets are reconstructed assuming single
spaces between tokens. NER tags come from a sidecar file (one tag line per
sentence).

`read_companion` interns each token's form, lemma and xpos, so a corpus
holds one string object per distinct value rather than three per token,
and vocabulary building hashes each distinct object once. Strings are
immutable, so the sharing keeps the record rule of `mrp`.
"""

from __future__ import annotations

import bisect
import difflib
import itertools
import re
import sys
from dataclasses import dataclass


class CompanionError(Exception):
    pass


class AlignmentError(CompanionError):
    pass


@dataclass(slots=True)
class Token:
    form: str
    lemma: str
    xpos: str
    start: int
    end: int


@dataclass
class CompanionSentence:
    tokens: list
    ner_tags: list | None = None  # one per token; None for all "O"
    id: str | None = None

    def __post_init__(self):
        if self.ner_tags is None:
            self.ner_tags = ["O"] * len(self.tokens)
        if len(self.ner_tags) != len(self.tokens):
            raise CompanionError(
                f"sentence {self.id}: {len(self.ner_tags)} NER tags for {len(self.tokens)} tokens")
        prev_end = -1
        for t in self.tokens:
            if t.end < t.start:
                raise CompanionError(
                    f"sentence {self.id}: token {t.form!r} ends at {t.end}, before its start {t.start}")
            if t.start < prev_end:
                raise CompanionError(f"sentence {self.id}: token offsets overlap at {t.form!r}")
            prev_end = t.end

    @property
    def forms(self):
        return [t.form for t in self.tokens]

    def text(self):
        """Reconstruct the sentence string implied by the token offsets."""
        out = []
        pos = 0
        for t in self.tokens:
            out.append(" " * (t.start - pos))
            out.append(t.form)
            pos = t.end
        return "".join(out)


def read_companion(doc: str) -> list:
    """One CompanionSentence per blank-line-separated block; an id line alone is a tokenless sentence."""
    intern = sys.intern
    sentences = []
    tokens = []
    block_id = None
    pos = 0
    for lineno, line in enumerate(doc.splitlines() + [""], start=1):  # a blank line ends the last block
        if not line or line.isspace():
            if tokens or block_id is not None:
                sentences.append(CompanionSentence(tokens=tokens, id=block_id))
            tokens, block_id, pos = [], None, 0
            continue
        if line.startswith("#"):
            if tokens or block_id is not None:  # a block has one id line, before its tokens
                raise CompanionError(f"line {lineno}: id line {line!r} inside a block")
            block_id = line[1:].strip()
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise CompanionError(f"line {lineno}: expected 5 columns, got {len(cols)}")
        _, form, lemma, xpos, misc = cols
        start = end = None
        for item in misc.split("|"):
            if item.startswith("TokenRange="):
                if start is not None:
                    raise CompanionError(f"line {lineno}: TokenRange given twice")
                a, _, z = item[11:].partition(":")  # 11 == len("TokenRange=")
                try:
                    start, end = int(a), int(z)
                except ValueError:
                    raise CompanionError(f"line {lineno}: {item!r} is not TokenRange=start:end") from None
        if start is None:
            start, end = pos, pos + len(form)
        form = intern(form)
        tokens.append(Token(form, form if lemma == form else intern(lemma), intern(xpos), start, end))
        pos = end + 1
    return sentences


_BREAK = re.compile("[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")  # a tab, or a str.splitlines break


def write_companion(path, sentences):
    """Write what read_companion reads back as `sentences`. Before opening
    the file, refuse with CompanionError a sentence with neither id nor
    tokens, which reads back as nothing, naming its position; a tab or line
    break in any field; an id that the reader would strip; or a NER tag
    other than "O", naming the token: the format has no NER column, so the
    tags read back as all "O" (they come from a sidecar, which nothing here
    writes)."""
    lines = []
    for k, s in enumerate(sentences):
        if s.id is None and not s.tokens:
            raise CompanionError(f"sentence None: position {k}: neither an id nor a token, so nothing would read back")
        if s.id is not None:
            if _BREAK.search(s.id) or s.id != s.id.strip():
                raise CompanionError(f"sentence {s.id!r}: id has a tab, a line break or whitespace at an end")
            lines.append(f"#{s.id}\n")
        for i, (t, tag) in enumerate(zip(s.tokens, s.ner_tags), start=1):
            for name, value in (("form", t.form), ("lemma", t.lemma), ("xpos", t.xpos)):
                if _BREAK.search(value):
                    raise CompanionError(f"sentence {s.id!r}: token {i} {name} {value!r} has a tab or a line break")
            if tag != "O":
                raise CompanionError(f"sentence {s.id!r}: token {i} NER tag {tag!r} is not 'O', and the format has "
                                     "no NER column")
            lines.append(f"{i}\t{t.form}\t{t.lemma}\t{t.xpos}\tTokenRange={t.start}:{t.end}\n")
        lines.append("\n")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def read_ner_sidecar(doc: str) -> list:
    """One whitespace-separated tag line per sentence."""
    return [line.split() for line in doc.splitlines()]


# One input word; a token that does not match the input verbatim is split
# into these.
_WORD = re.compile(r"\S+")


def align_companion(graph, sent: CompanionSentence) -> CompanionSentence:
    """Re-anchor companion tokens onto graph.input.

    The input's non-space characters are aligned with those of the token
    forms. Each input character belongs to the token whose character it
    matches; an unmatched one belongs to the token of the nearest matched
    character before it (after it, at the start). A token whose input text
    equals its form keeps that form object with fresh offsets, or is
    returned itself when its offsets match too (by the record rule of `mrp`,
    a token is never edited after it is built); any other token's input
    text is split at whitespace and every piece inherits the token's
    lemma/xpos/NER. Raises AlignmentError when more than half of the
    input's non-space characters are unmatched, or, for an input with
    any, more than half of the companion's — that signals a wrong
    sentence pairing, not tokenizer drift. An input with none aligns to
    no tokens.
    """
    s = graph.input
    text = "".join(s.split())
    pieces = ["".join(t.form.split()) for t in sent.tokens]
    spelled = "".join(pieces)
    ends = list(itertools.accumulate(map(len, pieces)))  # token k owns text[ends[k-1]:ends[k]]
    if text != spelled:
        owner = _match_owners(text, spelled, [k for k, piece in enumerate(pieces) for _ in piece])
        changed = owner.count(None)
        if changed * 2 > len(text):
            raise AlignmentError(
                f"graph {graph.id}: companion repair would rewrite {changed}/{len(text)} characters")
        dropped = len(spelled) - (len(text) - changed)  # companion characters that no input one matches
        if text and dropped * 2 > len(spelled):
            raise AlignmentError(
                f"graph {graph.id}: companion repair would drop {dropped}/{len(spelled)} companion characters")
        last = next((k for k in owner if k is not None), None)
        for i, k in enumerate(owner):
            if k is None:
                owner[i] = last
            else:
                last = k
        ends = [bisect.bisect_right(owner, k) for k in range(len(pieces))]  # owner never decreases
    at = [i for i, ch in enumerate(s) if not ch.isspace()]  # s offset of each text character
    out = []
    out_tags = []
    for k, (a, z) in enumerate(zip([0] + ends, ends)):
        if a == z:
            continue
        lo, hi = at[a], at[z - 1] + 1
        t = sent.tokens[k]
        if s[lo:hi] == t.form:
            out.append(t if lo == t.start and hi == t.end else Token(t.form, t.lemma, t.xpos, lo, hi))
            out_tags.append(sent.ner_tags[k])
            continue
        for m in _WORD.finditer(s, lo, hi):
            b, e = m.span()
            same = b == t.start and e == t.end and s[b:e] == t.form
            out.append(t if same else Token(s[b:e], t.lemma, t.xpos, b, e))
            out_tags.append(sent.ner_tags[k])
    for prev, cur in zip(out, out[1:]):
        if s[prev.end:cur.start].strip():
            raise AlignmentError(
                f"graph {graph.id}: input text between {prev.form!r} and {cur.form!r} has no token")
    return CompanionSentence(tokens=out, ner_tags=out_tags, id=sent.id)


def _match_owners(text, spelled, spelled_by):
    """For each character of text, the token index (from spelled_by) of the
    character of spelled it matches, or None. The common prefix and suffix
    match as they stand; difflib aligns only what lies between them."""
    n = min(len(text), len(spelled))
    p = 0
    while p < n and text[p] == spelled[p]:
        p += 1
    q = 0
    while q < n - p and text[-1 - q] == spelled[-1 - q]:
        q += 1
    owner = spelled_by[:p] + [None] * (len(text) - p - q) + spelled_by[len(spelled) - q:]
    blocks = difflib.SequenceMatcher(None, text[p:len(text) - q], spelled[p:len(spelled) - q],
                                     autojunk=False).get_matching_blocks()
    for i, j, size in blocks:
        owner[p + i:p + i + size] = spelled_by[p + j:p + j + size]
    return owner


def find_phrase(forms, words, taken):
    """The index of the leftmost run of the non-empty `words` in `forms`
    that takes no index in the set `taken`, or None (entity anonymization
    and multiword merging). It jumps from one occurrence of the first
    word to the next with list.index, so the scan runs in C and the Python
    work is one slice comparison per occurrence, not one test per
    position; a run cut short by the end of `forms` is no match."""
    n = len(words)
    i = -1
    while True:
        try:
            i = forms.index(words[0], i + 1)
        except ValueError:
            return None
        if forms[i:i + n] == words and taken.isdisjoint(range(i, i + n)):
            return i


def replace_spans(sent: CompanionSentence, spans) -> CompanionSentence:
    """Replace token runs with single tokens, in one left-to-right pass
    (multiword merging and entity anonymization). `spans` holds (lo, hi,
    form, lemma, xpos, tag) runs, hi inclusive, in token order and not
    overlapping. A new token starts where its run starts and takes NER tag
    `tag`; every later token's offsets shift by the length the new tokens
    so far added or removed, so the result stays self-consistent."""
    old = sent.tokens
    tokens, tags = [], []
    shift = i = 0
    for lo, hi, form, lemma, xpos, tag in spans:
        tokens += _shifted(old[i:lo], shift)
        tags += sent.ner_tags[i:lo]
        start = old[lo].start + shift
        tokens.append(Token(form, lemma, xpos, start, start + len(form)))
        tags.append(tag)
        shift = start + len(form) - old[hi].end
        i = hi + 1
    tokens += _shifted(old[i:], shift)
    tags += sent.ner_tags[i:]
    return CompanionSentence(tokens=tokens, ner_tags=tags, id=sent.id)


def _shifted(tokens, shift):
    return [Token(t.form, t.lemma, t.xpos, t.start + shift, t.end + shift) for t in tokens] if shift else tokens
