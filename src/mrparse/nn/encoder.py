"""Word-representation assembly and BiLSTM sentence encoding.

Every token is the concatenation of word, POS, lemma, character-LSTM and
NER embeddings; out-of-vocabulary forms and lemmas back off to the unknown
row while the character channel still sees the real string.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .. import autograd as ag
from ..companion import CompanionError
from ..vocab import Vocab
from .core import BiLSTM, CharEncoder, Embedding, Module


@dataclass
class EncoderConfig:
    word_dim: int = 64
    pos_dim: int = 16
    lemma_dim: int = 32
    char_dim: int = 16
    char_hidden: int = 32
    ner_dim: int = 16
    hidden: int = 128
    layers: int = 2

    @property
    def input_width(self):
        return self.word_dim + self.pos_dim + self.lemma_dim + self.char_hidden + self.ner_dim

    @property
    def output_width(self):
        return 2 * self.hidden


def build_token_vocabs(sentences):
    """Word/lemma/xpos/ner/char vocabularies over a training corpus. A distinct
    (form, lemma, xpos) triple's count goes to its form lowercased (word), its
    lemma lowercased, its xpos and each character of its form; NER tags as is."""
    triples = Counter(map(attrgetter("form", "lemma", "xpos"), chain.from_iterable(s.tokens for s in sentences)))
    word, lemma, xpos, char = {}, {}, {}, {}  # plain dicts: `get` is twice as fast as Counter's `+=`
    for (form, lem, tag), n in triples.items():
        word[form.lower()] = word.get(form.lower(), 0) + n
        lemma[lem.lower()] = lemma.get(lem.lower(), 0) + n
        xpos[tag] = xpos.get(tag, 0) + n
        for ch in form:
            char[ch] = char.get(ch, 0) + n
    return {"word": Vocab.build(word), "lemma": Vocab.build(lemma), "xpos": Vocab.build(xpos),
            "ner": Vocab.build(chain.from_iterable(s.ner_tags for s in sentences)), "char": Vocab.build(char)}


class SentenceEncoder(Module):
    def __init__(self, cfg: EncoderConfig, vocabs, rng):
        self.cfg = cfg
        self.vocabs = vocabs
        self.word = Embedding(len(vocabs["word"]), cfg.word_dim, rng)
        self.pos = Embedding(len(vocabs["xpos"]), cfg.pos_dim, rng)
        self.lemma = Embedding(len(vocabs["lemma"]), cfg.lemma_dim, rng)
        self.ner = Embedding(len(vocabs["ner"]), cfg.ner_dim, rng)
        self.char = CharEncoder(len(vocabs["char"]), cfg.char_dim, cfg.char_hidden, rng)
        self.bilstm = BiLSTM(cfg.input_width, cfg.hidden, cfg.layers, rng)

    def embed_sentence(self, sent):
        """Token representations (n, input_width)."""
        v = self.vocabs
        words = self.word([v["word"].index(t.form.lower()) for t in sent.tokens])
        pos = self.pos([v["xpos"].index(t.xpos) for t in sent.tokens])
        lemmas = self.lemma([v["lemma"].index(t.lemma.lower()) for t in sent.tokens])
        ner = self.ner([v["ner"].index(tag) for tag in sent.ner_tags])
        chars = self.char([[v["char"].index(ch) for ch in t.form] for t in sent.tokens])
        return ag.concat([words, pos, lemmas, chars, ner], axis=1)

    def encode(self, sent):
        """(R, r_n): per-token hidden states (n, 2*hidden) and the final
        state used to seed the decoder."""
        if not sent.tokens:
            raise CompanionError(f"sentence {sent.id}: no tokens to encode")
        o = self.embed_sentence(sent)
        r = self.bilstm(o)
        n = r.shape[0]
        return r, r[n - 1:n]
