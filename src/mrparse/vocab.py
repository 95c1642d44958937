"""Frequency vocabularies with reserved entries and deterministic index
assignment (frequency desc, string asc)."""

from __future__ import annotations

PAD = "<pad>"
UNK = "<unk>"


class Vocab:
    def __init__(self, entries, counts=None, reserved=(PAD, UNK)):
        self.reserved = tuple(reserved)
        self.entries = list(self.reserved) + [e for e in entries if e not in self.reserved]
        self.counts = dict(counts or {})
        self._index = {e: i for i, e in enumerate(self.entries)}

    @classmethod
    def build(cls, items, reserved=(PAD, UNK)):
        counts = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        ordered = sorted(counts, key=lambda e: (-counts[e], e))
        return cls(ordered, counts=counts, reserved=reserved)

    def __len__(self):
        return len(self.entries)

    def index(self, item):
        idx = self._index.get(item)
        if idx is None:
            idx = self._index.get(UNK)
            if idx is None:
                raise KeyError(f"{item!r} not in vocabulary and no {UNK} entry")
        return idx

    def to_lines(self):
        """The number of reserved entries, then `entry<TAB>count` per entry."""
        return [str(len(self.reserved))] + [f"{e}\t{self.counts.get(e, 0)}" for e in self.entries]

    @classmethod
    def from_lines(cls, lines):
        """Inverse of to_lines, skipping empty lines. A malformed line raises
        ValueError naming it, counted from 1."""
        numbered = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(lines, 1)]
        numbered = [(lineno, line) for lineno, line in numbered if line]
        if not numbered:
            raise ValueError("Vocab: line 1: no number of reserved entries")
        (lineno, head), *rest = numbered
        entries = []
        counts = {}
        try:
            n_res = int(head)
            for lineno, line in rest:
                e, c = line.rsplit("\t", 1)
                entries.append(e)
                counts[e] = int(c)
        except ValueError as err:
            raise ValueError(f"Vocab: line {lineno}: {err}") from None
        if not 0 <= n_res <= len(entries):
            raise ValueError(f"Vocab: line {numbered[0][0]}: {n_res} reserved of {len(entries)} entries")
        return cls(entries[n_res:], counts=counts, reserved=entries[:n_res])
