import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import sentence

from mrparse import autograd as ag
from mrparse.autograd import Tensor
from mrparse.companion import CompanionError, CompanionSentence
from mrparse.nn.core import BiLSTM, LSTMCell
from mrparse.nn.encoder import EncoderConfig, SentenceEncoder, build_token_vocabs
from mrparse.vocab import PAD, UNK, Vocab


def test_state_arrays_names_every_parameter():
    model = BiLSTM(3, 4, 2, np.random.default_rng(0))
    state = model.state_arrays()
    assert sorted(state) == [name for name, _ in model.named_parameters()]
    assert all(state[name] is p.data for name, p in model.named_parameters())


def test_lstm_step_passes_float64_grad_check():
    rng = np.random.default_rng(0)
    cell = LSTMCell(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    mix = Tensor(rng.normal(size=(2, 4)))

    def loss():
        h2, c2 = cell.step(x, h, c)
        return ag.tsum(ag.add(ag.mul(h2, mix), ag.mul(c2, c2)))

    assert cell.w.data.dtype == np.float64
    assert ag.grad_check(loss, [cell.w, cell.b, x, h, c]) <= 1e-6


def test_vocab_build_orders_by_count_then_string():
    v = Vocab.build(["b", "c", "a", "c", "b", "d", "c"])
    assert v.entries == [PAD, UNK, "c", "b", "a", "d"]
    assert [v.index(e) for e in ("c", "b", "a", "d")] == [2, 3, 4, 5]
    assert v.index("unseen") == v.index(UNK)
    assert Vocab.build({"b": 2, "c": 3, "a": 1, "d": 1}).entries == v.entries


def reference_vocabs(sentences):
    """Reference: `build_token_vocabs` as it was before it counted each
    distinct (form, lemma, xpos) triple once, item by item into five lists,
    each counted with `dict.get` and sorted on (-count, string)."""
    def build(items):
        counts = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        return Vocab(sorted(counts, key=lambda e: (-counts[e], e)))

    words, lemmas, xpos, ner, chars = [], [], [], [], []
    for s in sentences:
        for t in s.tokens:
            words.append(t.form.lower())
            lemmas.append(t.lemma.lower())
            xpos.append(t.xpos)
            chars.extend(t.form)
        ner.extend(s.ner_tags)
    return {"word": build(words), "lemma": build(lemmas), "xpos": build(xpos), "ner": build(ner),
            "char": build(chars)}


def assert_same_vocabs(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].entries[:2] == [PAD, UNK] and {PAD, UNK}.isdisjoint(got[name].entries[2:]), name
        assert got[name].entries == want[name].entries, name
        assert got[name]._index == want[name]._index, name


def corpus(rows):
    """Companion sentences from lists of (form, lemma, NER tag, xpos), the
    order of `sentence`'s parameters."""
    return [sentence(*map(list, zip(*row))) if row else sentence([]) for row in rows]


# Spellings that fold together under lower() ("Dog", "DOG"; "İ" and "i̇"),
# that lower() leaves alone ("ß") or changes ("É"), that spell the reserved
# entries, and the empty form. Drawn from so few, counts tie often.
SPELLINGS = ["Dog", "dog", "DOG", "İ", "i̇", "ß", "SS", "É", "é", "<pad>", "<PAD>", "<unk>", "<Unk>", "", "a"]
TOKEN = st.tuples(st.sampled_from(SPELLINGS), st.sampled_from(SPELLINGS),
                  st.sampled_from(["O", "B-PER", "<unk>"]), st.sampled_from(["NN", "VB", "<pad>", ""]))


@given(st.lists(st.lists(TOKEN, max_size=4), max_size=4))
@example([[("Dog", "Dog", "O", "NN"), ("DOG", "dog", "B-PER", "NN"), ("İ", "İ", "O", "NN"), ("ß", "ß", "O", "VB")],
          [("É", "É", "<unk>", "VB"), ("<pad>", "<PAD>", "O", "<pad>"), ("<UNK>", "<unk>", "O", "NN"),
           ("", "", "O", ""), ("dog", "DOG", "O", "VB")]])
def test_token_vocabs_equal_the_item_by_item_reference(rows):
    sents = corpus(rows)
    assert_same_vocabs(build_token_vocabs(sents), reference_vocabs(sents))


@pytest.fixture(scope="module")
def train_vocabs(encode_train):
    """The seed-1 `encode_train` training sentences' vocabularies, counted
    and from the reference."""
    return build_token_vocabs(encode_train.train_sents), reference_vocabs(encode_train.train_sents)


def test_token_vocabs_equal_the_reference_on_the_benchmark_training_sentences(train_vocabs):
    assert_same_vocabs(*train_vocabs)


def test_encoder_from_the_counted_vocabs_equals_the_reference(encode_train, train_vocabs):
    """Parameters, output and gradients, bit for bit, from the same rng."""
    encs = [SentenceEncoder(EncoderConfig(), v, np.random.default_rng(1)) for v in train_vocabs]
    got, want = (e.state_arrays() for e in encs)
    assert sorted(got) == sorted(want)
    assert all(np.array_equal(got[name], want[name]) for name in want)
    sent = encode_train.sents[0]
    (r, _), (r_ref, _) = (e.encode(sent) for e in encs)
    ag.backward(ag.tsum(r))
    ag.backward(ag.tsum(r_ref))
    assert np.array_equal(r.data, r_ref.data)
    for (name, p), q in zip(encs[0].named_parameters(), encs[1].parameters()):
        assert np.array_equal(p.grad, q.grad), name


def test_encode_refuses_an_empty_sentence():
    cfg = EncoderConfig(word_dim=2, pos_dim=2, lemma_dim=2, char_dim=2, char_hidden=2, ner_dim=2, hidden=2, layers=1)
    enc = SentenceEncoder(cfg, build_token_vocabs([sentence("a b")]), np.random.default_rng(0))
    with pytest.raises(CompanionError, match="^sentence s7: no tokens to encode$"):
        enc.encode(CompanionSentence([], id="s7"))
