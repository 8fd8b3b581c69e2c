"""Synthetic corpora with planted low-entropy structure.

Each document mixes template blocks (copies of one fixed symbol sequence,
each position corrupted with probability 1 - rho) into uniform filler
tokens. The planned number of template-slot tokens per document is
round(coverage * doc_len), so realized slot coverage is within half a
token of the requested rate. coverage = 0 yields a purely uniform corpus
with no planted structure.

Blocks are inserted at distinct positions between fillers whenever the
filler mass allows, so a block is normally preceded and followed by
filler: template entries and exits stay visible to the models instead of
being welded into one long periodic sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_setting


@dataclass(frozen=True)
class PlantedCorpusSpec:
    num_docs: int = 96
    doc_len: int = 140
    template_len: int = 21
    coverage: float = 0.72  # fraction of each document inside template blocks
    rho: float = 0.97  # per-position copy fidelity inside a block
    vocab_size: int = 27

    def __post_init__(self):
        for key in ("num_docs", "doc_len"):
            value = getattr(self, key)
            check_setting(value >= 1, f"corpus.planted.{key}", ">= 1", value)
        check_setting(self.vocab_size >= 2, "corpus.planted.vocab_size",
                      ">= 2", self.vocab_size)
        check_setting(2 <= self.template_len <= self.vocab_size,
                      "corpus.planted.template_len",
                      f"in [2, vocab_size = {self.vocab_size}]", self.template_len)
        check_setting(0 <= self.coverage <= 1,  # false for NaN
                      "corpus.planted.coverage", "in [0, 1]", self.coverage)
        check_setting(0.5 < self.rho <= 1, "corpus.planted.rho", "in (0.5, 1]", self.rho)


def corpus_symbols(vocab_size: int) -> list[str]:
    width = len(str(vocab_size - 1))
    return [f"w{i:0{width}d}" for i in range(vocab_size)]


def _corrupt(tok: int, spec: PlantedCorpusSpec, rng: np.random.Generator) -> int:
    if spec.rho < 1.0 and rng.random() >= spec.rho:
        alt = int(rng.integers(spec.vocab_size - 1))
        return alt + 1 if alt >= tok else alt
    return tok


def _lay_out(blocks: list[list[int]], fillers: list[int],
             rng: np.random.Generator) -> list[tuple[bool, list[int]]]:
    """Order blocks and fillers within one document. Blocks go into
    distinct slots between fillers when there are enough fillers, keeping
    blocks non-adjacent; otherwise everything is shuffled flat."""
    if len(blocks) <= len(fillers) + 1:
        slots = sorted(int(g) for g in rng.choice(len(fillers) + 1,
                                                  size=len(blocks),
                                                  replace=False))
        order = [int(b) for b in rng.permutation(len(blocks))]
        at_slot = dict(zip(slots, order))
        out: list[tuple[bool, list[int]]] = []
        for gap in range(len(fillers) + 1):
            if gap in at_slot:
                out.append((True, blocks[at_slot[gap]]))
            if gap < len(fillers):
                out.append((False, [fillers[gap]]))
        return out
    segments = [(True, b) for b in blocks]
    segments += [(False, [f]) for f in fillers]
    return [segments[int(si)] for si in rng.permutation(len(segments))]


def gen_corpus(spec: PlantedCorpusSpec,
               rng: np.random.Generator) -> tuple[list[list[str]], list[str]]:
    """Returns (documents, template), all as symbol lists."""
    symbols = corpus_symbols(spec.vocab_size)
    # template_len distinct symbols in random order
    template = rng.permutation(spec.vocab_size)[:spec.template_len].tolist()
    docs: list[list[str]] = []
    for _ in range(spec.num_docs):
        planned = round(spec.coverage * spec.doc_len)
        nblocks, rem = divmod(planned, spec.template_len)
        blocks = [template] * nblocks
        if rem:
            blocks.append(template[:rem])
        fillers = [int(t) for t in rng.integers(spec.vocab_size,
                                                size=spec.doc_len - planned)]
        doc: list[int] = []
        for in_template, toks in _lay_out(blocks, fillers, rng):
            if in_template:
                doc.extend(_corrupt(t, spec, rng) for t in toks)
            else:
                doc.extend(toks)
        docs.append([symbols[t] for t in doc])
    return docs, [symbols[t] for t in template]


def split_docs(docs: list, calibration_count: int,
               eval_count: int) -> tuple[list, list, list]:
    """Split documents into (train, calibration, eval) tails; training gets
    whatever precedes the two held-out slices."""
    held = calibration_count + eval_count
    if len(docs) <= held:
        raise ConfigError(f"corpus has {len(docs)} docs, need more than {held} "
                          "to leave a training split")
    train = docs[:len(docs) - held]
    cal = docs[len(docs) - held:len(docs) - eval_count]
    return train, cal, docs[len(docs) - eval_count:]


def prompts_from(encoded_docs: list[list[int]],
                 prompt_tokens: int) -> list[tuple[int, ...]]:
    """The first ``prompt_tokens`` tokens of each document that has that
    many, in document order; shorter documents are skipped."""
    return [tuple(doc[:prompt_tokens]) for doc in encoded_docs
            if len(doc) >= prompt_tokens]
