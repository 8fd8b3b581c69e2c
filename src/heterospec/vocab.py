"""Closed vocabularies over plain-text corpora.

A corpus is a list of documents (one per line in the file form). Symbols
are single characters in ``char`` mode or whitespace-separated words in
``word`` mode. Every vocabulary reserves an unknown symbol so that
arbitrary text can always be mapped to token ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .errors import ConfigError, utf8_errors

UNK = "<unk>"

TokenId = int
Context = tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    symbols: tuple[str, ...]
    mode: str  # "char" | "word"
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("char", "word"):
            raise ConfigError(f"unknown tokenization mode: {self.mode!r}")
        if len(self.symbols) < 2:
            raise ConfigError("vocabulary needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("vocabulary symbols must be distinct")
        if UNK not in self.symbols:
            raise ConfigError(f"vocabulary needs the unknown symbol {UNK!r}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> tuple[int, ...]:
        """The ids of the symbols of ``text``, unknown ones as ``UNK``'s."""
        index = self._index
        return tuple(map(index.get, split_symbols(text, self.mode),
                         repeat(index[UNK])))


def split_symbols(text: str, mode: str) -> list[str]:
    return list(text) if mode == "char" else text.split()


def build_vocab(corpus: list[str], mode: str = "char") -> Vocabulary:
    """Collect the distinct symbols of a corpus plus the reserved unknown id.

    Symbols are sorted for determinism; the unknown symbol always gets the
    last id.
    """
    if not corpus or all(not split_symbols(doc, mode) for doc in corpus):
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    seen: set[str] = set()
    for doc in corpus:
        seen.update(split_symbols(doc, mode))
    seen.discard(UNK)
    return Vocabulary(tuple(sorted(seen)) + (UNK,), mode)


def encode_corpus(corpus: list[str], vocab: Vocabulary) -> list[tuple[int, ...]]:
    return [vocab.encode(doc) for doc in corpus]


def read_corpus(path) -> list[str]:
    with utf8_errors(path), open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.rstrip("\n")]


def write_corpus(path, docs: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(doc + "\n")
