"""Companion-data ingestion: tokenization, lemmas, POS tags, NER tags, and
the token/input alignment repair.

Companion files are tab-separated blocks (index, form, lemma, xpos, misc)
separated by blank lines. The misc column may carry `TokenRange=start:end`
character offsets; otherwise offsets are reconstructed assuming single
spaces between tokens. NER tags come from a sidecar file (one tag line per
sentence) or from the built-in gazetteer stub.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace


class CompanionError(Exception):
    pass


class AlignmentError(CompanionError):
    pass


@dataclass(frozen=True)
class Token:
    form: str
    lemma: str
    xpos: str
    start: int
    end: int


@dataclass
class CompanionSentence:
    tokens: list
    ner_tags: list = field(default_factory=list)
    id: str | None = None

    def __post_init__(self):
        if not self.ner_tags:
            self.ner_tags = ["O"] * len(self.tokens)
        if len(self.ner_tags) != len(self.tokens):
            raise CompanionError(
                f"sentence {self.id}: {len(self.ner_tags)} NER tags for {len(self.tokens)} tokens")
        prev_end = -1
        for t in self.tokens:
            if t.start < prev_end:
                raise CompanionError(f"sentence {self.id}: token offsets overlap at {t.form!r}")
            prev_end = t.end

    @property
    def forms(self):
        return [t.form for t in self.tokens]

    @property
    def lemmas(self):
        return [t.lemma for t in self.tokens]

    def text(self):
        """Reconstruct the sentence string implied by the token offsets."""
        if not self.tokens:
            return ""
        out = []
        pos = 0
        for t in self.tokens:
            out.append(" " * (t.start - pos))
            out.append(t.form)
            pos = t.end
        return "".join(out)


def read_companion(doc: str) -> list:
    """Parse a companion document into one CompanionSentence per block."""
    sentences = []
    block = []
    block_id = None
    for lineno, line in enumerate(doc.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if block:
                sentences.append(_finish_block(block, block_id))
                block, block_id = [], None
            continue
        if line.startswith("#"):
            block_id = line[1:].strip()
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise CompanionError(f"line {lineno}: expected 5 columns, got {len(cols)}")
        block.append(cols)
    if block:
        sentences.append(_finish_block(block, block_id))
    return sentences


def _finish_block(rows, block_id):
    tokens = []
    pos = 0
    for _, form, lemma, xpos, misc in rows:
        start = end = None
        for item in misc.split("|"):
            if item.startswith("TokenRange="):
                lo, hi = item[len("TokenRange="):].split(":")
                start, end = int(lo), int(hi)
        if start is None:
            start, end = pos, pos + len(form)
        tokens.append(Token(form, lemma, xpos, start, end))
        pos = end + 1
    return CompanionSentence(tokens=tokens, id=block_id)


def write_companion(path, sentences):
    with open(path, "w", encoding="utf-8") as f:
        for s in sentences:
            if s.id is not None:
                f.write(f"#{s.id}\n")
            for i, t in enumerate(s.tokens, start=1):
                f.write(f"{i}\t{t.form}\t{t.lemma}\t{t.xpos}\tTokenRange={t.start}:{t.end}\n")
            f.write("\n")


def read_ner_sidecar(doc: str) -> list:
    """One whitespace-separated tag line per sentence."""
    return [line.split() for line in doc.splitlines()]


# A tiny exact-match lexicon standing in for an external NER tagger.
DEFAULT_GAZETTEER = {
    ("Pierre",): "PER",
    ("Vinken",): "PER",
    ("Pierre", "Vinken"): "PER",
    ("Maria",): "PER",
    ("John",): "PER",
    ("Rome",): "LOC",
    ("Paris",): "LOC",
    ("London",): "LOC",
    ("Elsevier",): "ORG",
    ("Consolidated", "Gold", "Fields"): "ORG",
    ("November",): "DATE",
    ("June",): "DATE",
    ("1989",): "DATE",
    ("29",): "DATE",
}


class GazetteerTagger:
    """Exact-match NER stub: longest phrase match wins, others get 'O'."""

    def __init__(self, lexicon=None):
        self.lexicon = dict(DEFAULT_GAZETTEER if lexicon is None else lexicon)
        self._max_len = max((len(k) for k in self.lexicon), default=1)

    def tag(self, forms):
        tags = ["O"] * len(forms)
        i = 0
        while i < len(forms):
            matched = 0
            for width in range(min(self._max_len, len(forms) - i), 0, -1):
                key = tuple(forms[i:i + width])
                if key in self.lexicon:
                    for k in range(width):
                        tags[i + k] = self.lexicon[key]
                    matched = width
                    break
            i += matched if matched else 1
        return tags


def _skip_ws(s, pos):
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def _nonspace(s):
    return sum(1 for ch in s if not ch.isspace())


def align_companion(graph, sent: CompanionSentence) -> CompanionSentence:
    """Re-anchor companion tokens onto graph.input.

    Tokens matching the input verbatim keep their lemma/xpos and get fresh
    offsets. Mismatching stretches are re-tokenized from the input text
    (whitespace split) and inherit lemma/xpos/NER from the nearest original
    token. Raises AlignmentError when the repair would touch more than half
    of the input's characters — that signals a wrong sentence pairing, not
    tokenizer drift.
    """
    s = graph.input
    toks = sent.tokens
    out = []
    out_tags = []
    changed = 0
    pos = _skip_ws(s, 0)
    j = 0
    while j < len(toks):
        form = toks[j].form
        if s.startswith(form, pos) and form:
            out.append(Token(form, toks[j].lemma, toks[j].xpos, pos, pos + len(form)))
            out_tags.append(sent.ner_tags[j])
            pos = _skip_ws(s, pos + len(form))
            j += 1
            continue
        k, p = _find_sync(s, pos, toks, j)
        region_pieces = _split_region(s, pos, p)
        changed += _disagreement(
            "".join(s[b:e] for b, e in region_pieces),
            "".join(t.form for t in toks[j:k]))
        src = list(range(j, k)) or [j]
        for idx, (b, e) in enumerate(region_pieces):
            si = src[min(len(src) - 1, idx * len(src) // max(len(region_pieces), 1))]
            si = min(si, len(toks) - 1)
            out.append(Token(s[b:e], toks[si].lemma, toks[si].xpos, b, e))
            out_tags.append(sent.ner_tags[si])
        pos = _skip_ws(s, p)
        j = k
    if pos < len(s) and s[pos:].strip():
        for b, e in _split_region(s, pos, len(s)):
            changed += e - b  # nothing in the companion accounts for this text
            last = len(toks) - 1
            out.append(Token(s[b:e], toks[last].lemma if toks else s[b:e], toks[last].xpos if toks else "XX", b, e))
            out_tags.append(sent.ner_tags[last] if toks else "O")
    total = _nonspace(s)
    if total and changed * 2 > total:
        raise AlignmentError(
            f"graph {graph.id}: companion repair would rewrite {changed}/{total} characters")
    for prev, cur in zip(out, out[1:]):
        if s[prev.end:cur.start].strip():
            raise AlignmentError(
                f"graph {graph.id}: input text between {prev.form!r} and {cur.form!r} has no token")
    for t in out:
        if s[t.start:t.end] != t.form:
            raise AlignmentError(f"graph {graph.id}: token {t.form!r} does not match input at {t.start}")
    return CompanionSentence(tokens=out, ner_tags=out_tags, id=sent.id)


def _disagreement(region_text, companion_text):
    """Characters of the input region that no companion character accounts
    for. Pure re-segmentation costs nothing; divergent text costs its
    length."""
    blocks = difflib.SequenceMatcher(None, region_text, companion_text, autojunk=False)
    matched = sum(b.size for b in blocks.get_matching_blocks())
    return len(region_text) - matched


def _find_sync(s, pos, toks, j):
    """Earliest position ≥ pos+1 where a later companion token resumes
    matching; (len(toks), len(s)) when nothing resyncs."""
    best = (len(toks), len(s))
    for k in range(j + 1, len(toks)):
        q = s.find(toks[k].form, pos) if toks[k].form else -1
        if q >= 0 and (q, k) < (best[1], best[0]):
            best = (k, q)
    return best


def _split_region(s, lo, hi):
    pieces = []
    b = None
    for i in range(lo, hi):
        if s[i].isspace():
            if b is not None:
                pieces.append((b, i))
                b = None
        elif b is None:
            b = i
    if b is not None:
        pieces.append((b, hi))
    return pieces


def retokenize(sent: CompanionSentence, groups) -> CompanionSentence:
    """Merge token index groups into single tokens (used by multiword
    combination). `groups` is a list of (start, end_inclusive) spans; spans
    must not overlap. Lemmas join with '+'."""
    merged = []
    tags = []
    text = sent.text()
    covered = {}
    for lo, hi in groups:
        for i in range(lo, hi + 1):
            covered[i] = (lo, hi)
    i = 0
    while i < len(sent.tokens):
        if i in covered and covered[i][0] == i:
            lo, hi = covered[i]
            span = sent.tokens[lo:hi + 1]
            merged.append(Token(
                form=text[span[0].start:span[-1].end],
                lemma="+".join(t.lemma for t in span),
                xpos=span[0].xpos,
                start=span[0].start,
                end=span[-1].end,
            ))
            tags.append(sent.ner_tags[lo])
            i = hi + 1
        else:
            merged.append(sent.tokens[i])
            tags.append(sent.ner_tags[i])
            i += 1
    return CompanionSentence(tokens=merged, ner_tags=tags, id=sent.id)


def replace_span(sent: CompanionSentence, lo, hi, form, lemma=None, xpos="NNP", tag=None):
    """Replace tokens lo..hi (inclusive) with a single placeholder token.
    Offsets downstream are shifted so the result stays self-consistent."""
    old = sent.tokens
    start = old[lo].start
    new_tok = Token(form, lemma if lemma is not None else form, xpos, start, start + len(form))
    delta = new_tok.end - old[hi].end
    toks = list(old[:lo]) + [new_tok] + [
        replace(t, start=t.start + delta, end=t.end + delta) for t in old[hi + 1:]]
    tags = sent.ner_tags[:lo] + [tag if tag is not None else sent.ner_tags[lo]] + sent.ner_tags[hi + 1:]
    return CompanionSentence(tokens=toks, ner_tags=tags, id=sent.id)
