"""Frequency vocabularies: PAD (index 0) and UNK (index 1), then the entries
`Vocab.build` counts, from a list of items or a mapping of item to count, by
count desc, string asc. An item that is not an entry gets UNK's index."""

from collections import Counter

PAD = "<pad>"
UNK = "<unk>"


class Vocab:
    def __init__(self, entries):
        self.entries = [PAD, UNK] + [e for e in entries if e not in (PAD, UNK)]
        self._index = {e: i for i, e in enumerate(self.entries)}

    @classmethod
    def build(cls, items):
        counts = Counter(items)
        return cls(sorted(sorted(counts), key=counts.__getitem__, reverse=True))  # stable: ties stay string asc

    def __len__(self):
        return len(self.entries)

    def index(self, item):
        return self._index.get(item, 1)
