"""Frequency vocabularies: the fixed reserved entries PAD (index 0) and UNK
(index 1), then the built entries by frequency desc, string asc. An item
that is not an entry gets UNK's index."""

PAD = "<pad>"
UNK = "<unk>"


class Vocab:
    def __init__(self, entries):
        self.entries = [PAD, UNK] + [e for e in entries if e not in (PAD, UNK)]
        self._index = {e: i for i, e in enumerate(self.entries)}

    @classmethod
    def build(cls, items):
        counts = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        return cls(sorted(counts, key=lambda e: (-counts[e], e)))

    def __len__(self):
        return len(self.entries)

    def index(self, item):
        return self._index.get(item, 1)
