"""Seeded input generator for the benchmark workloads.

Everything here is plain Python and imports nothing from `mrparse`: the
program only ever sees the text this module writes (MRP lines, companion
blocks and NER sidecar lines). Alongside the text it keeps the facts the
independent checks need (the source graph as a JSON object, the token
offsets it laid out, whether the companion was drifted).

Sizes, framework shares, drift shares and tail shares are drawn by
stratified sampling: the seed changes the content, not the make-up, so that
runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

FRAMEWORKS = ("amr", "eds", "ucca")

# Graph-side words are three consonant-vowel syllables over consonants that
# the function words below do not use. All such words have the same length
# and none contains a function word, so no token's form is a substring of
# another token. align_companion's resync search matches substrings and
# accepts the drifted stretch's own start, so on ordinary text it can split
# a word or skip tokens (README.md, "Faults the generator avoids"); over
# this lexicon it can only land on whole words.
_CONS = "kmprvzgf"
_VOWELS = "aeiou"
_ACCENT = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ú"}
CONNECTORS = {  # words -> EDS label
    ("and",): "_and_c",
    ("but",): "_but_c",
    ("such", "as"): "_such+as_p",
    ("as", "well", "as"): "_as+well+as_c",
}
_CONNECTOR_WEIGHTS = (4, 2, 2, 1)
ENTITY_TYPES = {"person": "PER", "city": "LOC", "country": "GPE", "organization": "ORG"}

# make-up of the graph workload
PREP_TIMED = 360           # sentences per round, an equal share per framework
PREP_TRAIN = 100           # training sentences per framework (AMR tables, multiword table)
TAIL_SHARE = 0.125         # share of large graphs
NORMAL_TOKENS = (8, 40)
TAIL_TOKENS = (60, 120)
DRIFT_SHARE = 0.2          # companion blocks with tokenizer drift
UNTAGGED_ENTITY_SHARE = 0.15

# make-up of the encoder workloads
ENC_TRAIN = 1500           # sentences the vocabularies are built from
ENC_TOKENS = (5, 40)
ENC_LEXICON = 6000
ENC_TIMED = {"encode_infer": 40, "encode_train": 24}
ENC_CHARS_PER_TOKEN = 4.75  # timed sentences hold this many characters per token, ±3%


def stratified(rng, n, lo, hi):
    """n integers covering [lo, hi] evenly, one per stratum, shuffled."""
    out = [lo + int((i + rng.random()) / n * (hi - lo + 1)) for i in range(n)]
    rng.shuffle(out)
    return out


def exact_flags(rng, n, share):
    k = round(n * share)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def zipf_pick(rng, items):
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(items))))
    return lambda: rng.choices(items, cum_weights=cum)[0]


# -- graph side -------------------------------------------------------------


@dataclass
class Lexicon:
    nouns: list
    verbs: list        # (stem, sense number)
    names: list        # capitalised words
    years: list
    name_type: dict
    negated: set       # verb stems that always carry polarity

    def restricted(self, used):
        return Lexicon(
            nouns=[w for w in self.nouns if w in used],
            verbs=[v for v in self.verbs if v[0] in used],
            names=[w for w in self.names if w in used],
            years=[y for y in self.years if y in used],
            name_type=self.name_type, negated=self.negated)


def make_lexicon(rng):
    syll = [c + v for c in _CONS for v in _VOWELS]
    words = rng.sample([a + b + c for a in syll for b in syll for c in syll], 900)
    nouns, verbs, names = words[:400], words[400:550], [w.capitalize() for w in words[550:800]]
    types = list(ENTITY_TYPES)
    return Lexicon(
        nouns=nouns,
        verbs=[(v, rng.randint(1, 3)) for v in verbs],
        names=names,
        years=[str(y) for y in rng.sample(range(1900, 2030), 40)],
        name_type={n: rng.choice(types) for n in names},
        negated={v for v in verbs if rng.random() < 0.15},
    )


@dataclass
class Item:
    """One sentence of the graph workload."""
    framework: str
    mrp: str           # the MRP line handed to the program
    companion: str     # the companion block handed to the program
    ner: str           # the NER sidecar line handed to the program
    graph: dict        # the source graph, as the generator built it
    offsets: list      # (start, end) of each generated token in the input
    lemmas: list       # lemma of the companion token over each generated token
    drifted: bool


class _Sentence:
    """Skeleton shared by the three frameworks: clauses of subject, verb
    and optional object, joined by connectors, ending in a full stop."""

    def __init__(self, rng, lex, n_tokens, pairs, allow_repeats):
        self.tokens = []
        self.clauses = []
        noun, name, verb = zipf_pick(rng, lex.nouns), zipf_pick(rng, lex.names), zipf_pick(rng, lex.verbs)
        connectors = list(CONNECTORS)
        while not self.clauses or len(self.tokens) < n_tokens - 1:
            conn = None
            if self.clauses:
                words = rng.choices(connectors, weights=_CONNECTOR_WEIGHTS)[0]
                conn = (self._add(*words), CONNECTORS[words])
            subj = self._np(rng, lex, noun, name, pairs, allow_repeats)
            v = verb()
            vtok = self._add(v[0])[0]
            obj = self._np(rng, lex, noun, name, pairs, allow_repeats) if rng.random() < 0.7 else None
            self.clauses.append({"conn": conn, "subj": subj, "verb": v, "vtok": vtok, "obj": obj})
        self.stop = self._add(".")[0]

    def _add(self, *words):
        lo = len(self.tokens)
        self.tokens.extend(words)
        return list(range(lo, len(self.tokens)))

    def _np(self, rng, lex, noun, name, pairs, allow_repeats):
        earlier = [c["subj"] for c in self.clauses if c["subj"]["kind"] == "noun"]
        r = rng.random()
        if allow_repeats and earlier and r < 0.1:
            ref = rng.choice(earlier)
            return {"kind": "noun", "words": ref["words"], "toks": self._add(*ref["words"]), "ref": ref}
        if r < 0.55 or not lex.names:
            w = noun()
            return {"kind": "noun", "words": [w], "toks": self._add(w), "ref": None}
        if r < 0.72:
            w = name()
            return {"kind": "name1", "words": [w], "toks": self._add(w), "ref": None}
        if r < 0.92:
            for _ in range(50):
                pair = (name(), name())
                if pair[0] != pair[1] and pair not in pairs:
                    pairs.add(pair)
                    return {"kind": "name2", "words": list(pair), "toks": self._add(*pair), "ref": None}
        y = rng.choice(lex.years)
        return {"kind": "year", "words": [y], "toks": self._add(y), "ref": None}

    def layout(self):
        """Input text and token offsets: single spaces, the stop attached."""
        offsets = []
        pos = 0
        for i, w in enumerate(self.tokens):
            if i and i != self.stop:
                pos += 1
            offsets.append((pos, pos + len(w)))
            pos += len(w)
        text = [" "] * pos
        for (a, b), w in zip(offsets, self.tokens):
            text[a:b] = w
        return "".join(text), offsets


def _anchor(offsets, toks):
    return [{"from": offsets[toks[0]][0], "to": offsets[toks[-1]][1]}]


class _Graph:
    def __init__(self, gid, framework, text):
        self.obj = {"id": gid, "framework": framework, "input": text, "tops": [],
                    "nodes": [], "edges": []}

    def node(self, label=None, anchors=None, props=()):
        n = {"id": len(self.obj["nodes"])}
        if label is not None:
            n["label"] = label
        if props:
            n["properties"] = [p for p, _ in props]
            n["values"] = [v for _, v in props]
        if anchors is not None:
            n["anchors"] = anchors
        self.obj["nodes"].append(n)
        return n["id"]

    def edge(self, s, t, label, attrs=()):
        e = {"source": s, "target": t, "label": label}
        if attrs:
            e["attributes"] = [a for a, _ in attrs]
            e["values"] = [v for _, v in attrs]
        self.obj["edges"].append(e)


def _eds(sk, gid, text, off):
    """Quantifiers share their noun's anchor and name compounds span their
    two names, so eds_reduce folds every one of them; every other node is
    reachable from the top along edge direction."""
    g = _Graph(gid, "eds", text)

    def np_head(np):
        if np["kind"] == "noun":
            h = g.node(f"_{np['words'][0]}_n_1", _anchor(off, np["toks"]))
            g.edge(g.node("udef_q", _anchor(off, np["toks"])), h, "BV")
            return h
        if np["kind"] == "year":
            return g.node("card", _anchor(off, np["toks"]), [("carg", sk.tokens[np["toks"][0]])])
        heads = []
        for t in np["toks"]:
            n = g.node("named", _anchor(off, [t]), [("carg", sk.tokens[t])])
            g.edge(g.node("proper_q", _anchor(off, [t])), n, "BV")
            heads.append(n)
        if len(heads) == 2:
            c = g.node("compound", _anchor(off, np["toks"]))
            g.edge(c, heads[1], "ARG1")
            g.edge(c, heads[0], "ARG2")
        return heads[-1]

    heads = []
    conns = []
    for cl in sk.clauses:
        v = g.node(f"_{cl['verb'][0]}_v_1", _anchor(off, [cl["vtok"]]))
        g.edge(v, np_head(cl["subj"]), "ARG1")
        if cl["obj"]:
            g.edge(v, np_head(cl["obj"]), "ARG2")
        if cl["conn"]:
            toks, label = cl["conn"]
            conns.append(g.node(label, _anchor(off, toks)))
        heads.append(v)
    # right-branching coordination: conn_i joins clause i to the rest
    for i, c in enumerate(conns):
        g.edge(c, heads[i], "L-INDEX")
        g.edge(c, conns[i + 1] if i + 1 < len(conns) else heads[i + 1], "R-INDEX")
    g.obj["tops"] = [conns[0] if conns else heads[0]]
    return g.obj


def _ucca(sk, gid, text, off, rng):
    g = _Graph(gid, "ucca", text)
    root = g.node()
    g.obj["tops"] = [root]

    def leaf(parent, t, cat):
        g.edge(parent, g.node(anchors=_anchor(off, [t])), cat)

    subjects = []
    for cl in sk.clauses:
        if cl["conn"]:
            toks, _ = cl["conn"]
            if len(toks) == 1:
                leaf(root, toks[0], "L")
            else:
                unit = g.node()
                g.edge(root, unit, "L")
                for t in toks:
                    leaf(unit, t, "C")
        scene = g.node()
        g.edge(root, scene, "H")
        for np, cat in ((cl["subj"], "A"), (cl["obj"], "A")):
            if np is None:
                continue
            unit = g.node()
            g.edge(scene, unit, cat)
            for k, t in enumerate(np["toks"]):
                leaf(unit, t, "C" if k == len(np["toks"]) - 1 else "E")
            if np is cl["subj"]:
                subj_unit = unit
        leaf(scene, cl["vtok"], "P")
        if subjects and rng.random() < 0.3:
            g.edge(scene, rng.choice(subjects), "A", [("remote", True)])
        subjects.append(subj_unit)
    leaf(root, sk.stop, "U")
    return g.obj


def _amr(sk, gid, text, lex, rng, tags):
    """No wiki, one sense per stem, polarity all-or-none per stem; a
    repeated noun phrase is one node with two parents."""
    g = _Graph(gid, "amr", text)
    made = {}

    def concept(np):
        if np["ref"] is not None:
            made[id(np)] = made[id(np["ref"])]
            return made[id(np)]
        kind = np["kind"]
        if kind == "noun":
            n = g.node(np["words"][0])
        elif kind == "year":
            n = g.node("date-entity")
            g.edge(n, g.node(np["words"][0]), "year")
            tag = "DATE"
        else:
            etype = "person" if kind == "name2" else lex.name_type[np["words"][0]]
            n = g.node(etype)
            nm = g.node("name")
            g.edge(n, nm, "name")
            for i, w in enumerate(np["words"], start=1):
                g.edge(nm, g.node(w), f"op{i}")
            tag = ENTITY_TYPES[etype]
        if kind != "noun" and rng.random() >= UNTAGGED_ENTITY_SHARE:
            for t in np["toks"]:
                tags[t] = tag
        made[id(np)] = n
        return n

    verbs = []
    for cl in sk.clauses:
        stem, sense = cl["verb"]
        props = [("polarity", "-")] if stem in lex.negated else []
        v = g.node(f"{stem}-{sense:02d}", props=props)
        g.edge(v, concept(cl["subj"]), "ARG0")
        if cl["obj"]:
            g.edge(v, concept(cl["obj"]), "ARG1")
        verbs.append(v)
    if len(verbs) == 1:
        g.obj["tops"] = [verbs[0]]
    else:
        top = g.node("and")
        for i, v in enumerate(verbs, start=1):
            g.edge(top, v, f"op{i}")
        g.obj["tops"] = [top]
    return g.obj


def _companion(forms, tags, drift, rng, gid):
    """Companion block, NER line and the lemma of the companion token over
    each input token, from the companion's own spelling of the tokens.
    Drift 'merge' glues two words into one companion token, whose lemma
    both words then carry."""
    forms = list(forms)
    tags = list(tags)
    lemmas = [f.lower() for f in forms]
    if drift == "merge":
        # Glue words that do not recur later in the sentence: on a recurring
        # word align_companion resyncs to the later copy and skips the
        # companion tokens between. The pair before the stop always qualifies.
        i = rng.choice([i for i in range(len(forms) - 2)
                        if forms[i] not in forms[i + 2:] and forms[i + 1] not in forms[i + 2:]])
        forms[i:i + 2] = [forms[i] + forms[i + 1]]
        tags[i:i + 2] = [tags[i]]
        lemmas[i:i + 2] = [forms[i].lower()] * 2
    lines = [f"#{gid}"]
    pos = 0
    for i, f in enumerate(forms, start=1):
        lines.append(f"{i}\t{f}\t{f.lower()}\tXX\tTokenRange={pos}:{pos + len(f)}")
        pos += len(f) + 1
    return "\n".join(lines) + "\n\n", " ".join(tags), lemmas


def _accented(word, rng):
    spots = [i for i, ch in enumerate(word) if ch in _ACCENT]
    i = rng.choice(spots)
    return word[:i] + _ACCENT[word[i]] + word[i + 1:]


def _graph_items(rng, lex, n, pairs, prefix):
    """n sentences per framework."""
    items = []
    for fw in FRAMEWORKS:
        n_tail = round(n * TAIL_SHARE)
        sizes = (stratified(rng, n - n_tail, *NORMAL_TOKENS)
                 + stratified(rng, n_tail, *TAIL_TOKENS))
        drifts = exact_flags(rng, n, DRIFT_SHARE)
        for k, (size, drifted) in enumerate(zip(sizes, drifts)):
            gid = f"{prefix}-{fw}-{k}"
            sk = _Sentence(rng, lex, size, pairs, allow_repeats=fw == "amr")
            tags = ["O"] * len(sk.tokens)
            drift = rng.choice(("merge", "accent")) if drifted else None
            forms = list(sk.tokens)
            if drift == "accent":
                # the input carries an accent the companion's spelling lacks
                t = rng.choice(sk.clauses)["vtok"]
                sk.tokens[t] = _accented(sk.tokens[t], rng)
            text, off = sk.layout()
            if fw == "eds":
                graph = _eds(sk, gid, text, off)
            elif fw == "ucca":
                graph = _ucca(sk, gid, text, off, rng)
            else:
                graph = _amr(sk, gid, text, lex, rng, tags)
            companion, ner, lemmas = _companion(forms, tags, drift, rng, gid)
            items.append(Item(fw, json.dumps(graph, ensure_ascii=False), companion, ner,
                              graph, off, lemmas, drifted))
    rng.shuffle(items)
    return items


def _amr_labels(items):
    """Every AMR label the items use, and each sense-bearing label's stem."""
    used = set()
    for it in items:
        if it.framework == "amr":
            for n in it.graph["nodes"]:
                used.add(n["label"])
                used.add(n["label"].rsplit("-", 1)[0])
    return used


def prep_inputs(seed):
    """(training items, timed items) for prep_roundtrip. The timed split
    draws only words the training split used, so the AMR tables learned
    from training cover every label of the timed split."""
    rng = random.Random(f"prep-{seed}")
    lex = make_lexicon(rng)
    pairs = set()  # each name compound occurs once in the whole input
    train = _graph_items(rng, lex, PREP_TRAIN, pairs, "train")
    timed_lex = lex.restricted(_amr_labels(train))
    timed = _graph_items(rng, timed_lex, PREP_TIMED // len(FRAMEWORKS), pairs, "s")
    return train, timed


# -- encoder side -----------------------------------------------------------


@dataclass
class EncSentence:
    companion: str
    ner: str


def _enc_lexicon(rng):
    syll = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiouy"] + ["a", "o", "e", "i"]
    seen = set()
    lexicon = []
    while len(lexicon) < ENC_LEXICON:
        w = "".join(rng.choice(syll) for _ in range(rng.choice((1, 1, 2, 2, 2, 3, 3, 4))))
        if w not in seen:
            seen.add(w)
            lexicon.append(w)
    return lexicon


def _enc_sentence(xpos, words, k):
    lines = [f"#e{k}"]
    tags = []
    pos = 0
    for i, w in enumerate(words, start=1):
        tag = "O"
        if xpos[w] == "NNP":
            w = w.capitalize()
            tag = "PER" if len(w) % 2 else "LOC"
        lines.append(f"{i}\t{w}\t{w.lower()}\t{xpos[w.lower()]}\tTokenRange={pos}:{pos + len(w)}")
        pos += len(w) + 1
        tags.append(tag)
    return EncSentence("\n".join(lines) + "\n\n", " ".join(tags))


def _fixed_chars(pick, n):
    """n Zipfian forms holding close to n * ENC_CHARS_PER_TOKEN characters:
    the character LSTM runs once per character, so this keeps the work of
    a timed sentence the same on every seed."""
    target = n * ENC_CHARS_PER_TOKEN
    best = None
    for _ in range(2000):
        words = [pick() for _ in range(n)]
        miss = abs(sum(map(len, words)) - target)
        if best is None or miss < best[0]:
            best = (miss, words)
        if miss <= max(1.0, 0.03 * target):
            break
    return best[1]


def encode_inputs(seed, workload):
    """(training sentences, timed sentences) of companion text with
    Zipfian forms; the timed lengths cover ENC_TOKENS evenly, each with a
    fixed number of characters per token."""
    rng = random.Random(f"encode-{seed}")
    lexicon = _enc_lexicon(rng)
    tagset = ["NN", "NN", "NN", "VB", "VB", "JJ", "RB", "IN", "DT", "NNP"]
    xpos = {w: rng.choice(tagset) for w in lexicon}
    pick = zipf_pick(rng, lexicon)
    train = [_enc_sentence(xpos, [pick() for _ in range(rng.randint(*ENC_TOKENS))], k)
             for k in range(ENC_TRAIN)]
    timed = [_enc_sentence(xpos, _fixed_chars(pick, n), k)
             for k, n in enumerate(stratified(rng, ENC_TIMED[workload], *ENC_TOKENS))]
    return train, timed
