"""Closed vocabularies over plain-text corpora.

A corpus is a list of documents (one per line in the file form). Symbols
are single characters in ``char`` mode or whitespace-separated words in
``word`` mode. Every vocabulary reserves an unknown symbol so that
arbitrary text can always be mapped to token ids.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import count, repeat

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

    def ids(self, symbols: Iterable[str]) -> Iterator[TokenId]:
        """The id of each symbol, an unknown one as ``UNK``'s."""
        index = self._index
        return map(index.get, symbols, repeat(index[UNK]))

    def encode(self, text: str) -> tuple[int, ...]:
        """The ids of the symbols of ``text``."""
        return tuple(self.ids(split_symbols(text, self.mode)))


def split_symbols(text: str, mode: str) -> list[str]:
    return list(text) if mode == "char" else text.split()


@dataclass(frozen=True)
class SplitCorpus:
    """A corpus split once in ``mode``: ``symbols`` are its distinct
    symbols in first-seen order, and ``docs`` each document as indices
    into them."""

    symbols: list[str]
    docs: list[list[int]]
    mode: str  # "char" | "word"


def split_corpus(corpus: list[str] | SplitCorpus, mode: str) -> SplitCorpus:
    """Split each document once; a ``SplitCorpus`` split in ``mode`` is
    returned as it is, one split in the other mode is refused. An
    occurrence is kept as the shared index of its symbol, not as a string
    of its own."""
    if isinstance(corpus, SplitCorpus):
        if corpus.mode != mode:
            raise ConfigError(f"corpus was split in {corpus.mode!r} mode, "
                              f"not {mode!r}")
        return corpus
    first = defaultdict(count().__next__)  # symbol -> first-seen index
    docs = [list(map(first.__getitem__, split_symbols(doc, mode)))
            for doc in corpus]
    return SplitCorpus(list(first), docs, mode)


def build_vocab(corpus: list[str] | SplitCorpus,
                mode: str = "char") -> Vocabulary:
    """Collect the distinct symbols of a corpus plus the reserved unknown id.

    Symbols are sorted for determinism; the unknown symbol always gets the
    last id.
    """
    seen = set(split_corpus(corpus, mode).symbols)
    if not seen:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
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
