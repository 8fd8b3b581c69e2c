"""Acceptance gate: ten checks, one test per criterion.

Each test is numbered so `pytest -v` prints one pass/fail line per
criterion. Oracles are independent re-implementations: plain greedy
decoding for exactness, extended-precision arithmetic for the entropy
signal, exhaustive split enumeration for the binning tree, and a sort for
the reranker. The experiment-level checks run the full pipeline twice, on
a planted corpus and on a structure-free control corpus, through the same
public entry points the CLI uses."""
from __future__ import annotations

import dataclasses
import math
import os
import shutil
import time

import mpmath
import numpy as np
import pytest

from chain_sampling import verify_stochastic_chain
from conftest import DrawnDistModel, make_vocab, tcr_bands, topk_entropy
from heterospec.binning import (
    BinningModel,
    CalibrationSample,
    best_split,
    fit_binning,
)
from heterospec.config import ExperimentConfig
from heterospec.control import (
    HeteroConfig,
    decode_adaptive,
    decode_baseline,
    greedy_reference,
    run_arm,
)
from heterospec.corpus import PlantedCorpusSpec, gen_corpus, prompts_from, split_docs
from heterospec.metrics import (
    CostModel,
    summarize,
    validate_run,
    write_iterations_csv,
)
from heterospec.models import PerturbedDraftModel, train_ngram
from heterospec.pipeline import (
    load_models,
    load_pipeline_bins,
    step_calibrate,
    step_compare,
    step_gen_corpus,
    step_train_model,
)
from heterospec.tree import DEPTH, INDEX, NEG_VALUE, PARENT, TOKENS, expand, rerank
from heterospec.vocab import build_vocab, encode_corpus, read_corpus


# ----------------------------------------------------- experiment fixtures


@dataclasses.dataclass
class Lab:
    cfg: ExperimentConfig
    target: object
    draft: object
    prompts: list[tuple[int, ...]]
    bins: BinningModel
    comps: dict  # alpha -> ComparisonResult of one compare at that alpha
    build_seconds: float


def _compare_at(cfg: ExperimentConfig, alpha: int):
    _, comp = step_compare(dataclasses.replace(
        cfg, controller=dataclasses.replace(cfg.controller, alpha=alpha)))
    return comp


def _finish_lab(cfg: ExperimentConfig, comps: dict, t0: float) -> Lab:
    target, draft = load_models(cfg)
    docs = read_corpus(os.path.join(cfg.out_dir, "corpus.txt"))
    _, _, eval_docs = split_docs(docs, cfg.prompts.calibration_count,
                                 cfg.prompts.count)
    prompts = prompts_from(encode_corpus(eval_docs, target.vocab),
                           cfg.prompts.prompt_tokens)
    return Lab(cfg=cfg, target=target, draft=draft, prompts=prompts,
               bins=load_pipeline_bins(cfg), comps=comps,
               build_seconds=time.monotonic() - t0)


@pytest.fixture(scope="module")
def planted_lab(tmp_path_factory) -> Lab:
    """Default experiment: 96-doc planted corpus (coverage 0.72, rho 0.97),
    order-3 target with an order-2 perturbed draft, one compare at each
    alpha of 2, 3 and 4."""
    t0 = time.monotonic()
    cfg = dataclasses.replace(
        ExperimentConfig(),
        out_dir=str(tmp_path_factory.mktemp("planted") / "run"))
    step_gen_corpus(cfg)
    step_train_model(cfg)
    step_calibrate(cfg)
    return _finish_lab(cfg, {a: _compare_at(cfg, a) for a in (2, 3, 4)}, t0)


@pytest.fixture(scope="module")
def uniform_lab(tmp_path_factory, planted_lab: Lab) -> Lab:
    """Structure-free control: same geometry with coverage 0, decoded with
    the planted run's calibrated bins so only the corpus changes."""
    t0 = time.monotonic()
    cfg = dataclasses.replace(
        planted_lab.cfg,
        planted=dataclasses.replace(planted_lab.cfg.planted, coverage=0.0),
        out_dir=str(tmp_path_factory.mktemp("uniform") / "run"))
    step_gen_corpus(cfg)
    step_train_model(cfg)
    shutil.copyfile(os.path.join(planted_lab.cfg.out_dir, "bins.txt"),
                    os.path.join(cfg.out_dir, "bins.txt"))
    return _finish_lab(cfg, {3: _compare_at(cfg, 3)}, t0)


# ------------------------------------------------------------ criterion 1


def test_criterion_01_greedy_exactness():
    """Both decoding loops reproduce plain argmax decoding token for token
    across 100 random model/corpus/controller configurations."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    configs_checked = 0
    for trial in range(100):
        vocab_size = int(rng.integers(6, 15))
        spec = PlantedCorpusSpec(
            num_docs=int(rng.integers(8, 18)),
            doc_len=int(rng.integers(40, 90)),
            template_len=int(rng.integers(3, min(8, vocab_size + 1))),
            coverage=float(rng.uniform(0.3, 0.8)),
            rho=float(rng.uniform(0.8, 1.0)),
            vocab_size=vocab_size)
        docs, _ = gen_corpus(spec, rng)
        text = [" ".join(d) for d in docs]
        vocab = build_vocab(text, mode="word")
        target = train_ngram(text, vocab, order=int(rng.integers(2, 4)),
                             smoothing=float(rng.uniform(0.05, 0.5)))
        base = (train_ngram(text, vocab, order=2, smoothing=0.1)
                if rng.random() < 0.5 else target)
        draft = PerturbedDraftModel(base, noise=float(rng.uniform(0.0, 0.3)))
        alphas = (None, 0, 1, 2, 3, 4)
        config = HeteroConfig(
            depth=int(rng.integers(2, 7)),
            top_k=int(rng.integers(1, 4)),
            top_n=int(rng.integers(4, 25)),
            alpha=alphas[int(rng.integers(len(alphas)))],
            max_new_tokens=200,
            terminator=(int(rng.integers(vocab.size))
                        if rng.random() < 0.25 else None))
        nthr = int(rng.integers(0, 8))
        thresholds = tuple(np.unique(rng.uniform(0.05, 3.0, nthr)).tolist())
        bins = BinningModel(thresholds=thresholds,
                            means=(0.0,) * (len(thresholds) + 1),
                            counts=(1,) * (len(thresholds) + 1))
        prompts = prompts_from(encode_corpus(text[-2:], vocab),
                               int(rng.integers(4, 9)))
        for prompt in prompts:
            want = greedy_reference(target, prompt, config.max_new_tokens,
                                    config.terminator)
            with_bins = bins if rng.random() < 0.5 else None
            got_base = decode_baseline(target, draft, prompt, config,
                                       bins=with_bins)
            got_adapt = decode_adaptive(target, draft, prompt, config, bins)
            assert got_base.tokens == want    # zero tolerance
            assert got_adapt.tokens == want
        configs_checked += 1
    assert configs_checked >= 100
    assert time.monotonic() - t0 < 120.0


# ------------------------------------------------------------ criterion 2


def test_criterion_02_stochastic_losslessness():
    """Chain speculative sampling leaves the emitted-token distribution
    exactly the target's: the first-emission marginal over 2e5 rounds
    stays within total variation 0.01 of the target next-token law."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    spec = PlantedCorpusSpec(num_docs=30, doc_len=80, template_len=6,
                             coverage=0.6, rho=0.9, vocab_size=11)
    docs, _ = gen_corpus(spec, rng)
    text = [" ".join(d) for d in docs]
    vocab = build_vocab(text, mode="word")
    assert vocab.size <= 16
    target = train_ngram(text, vocab, order=3, smoothing=0.1)
    draft = PerturbedDraftModel(
        train_ngram(text, vocab, order=2, smoothing=0.1), noise=0.15)
    context = tuple(encode_corpus(text, vocab)[0][:3])
    p = target.next_dist(context).dist
    rounds = 200_000
    counts = np.zeros(vocab.size)
    chain_rng = np.random.default_rng(202)
    for _ in range(rounds):
        res = verify_stochastic_chain(draft, target, context, 4, chain_rng)
        counts[res.emitted[0]] += 1
    tv = 0.5 * float(np.abs(counts / rounds - p).sum())
    assert tv < 0.01
    assert time.monotonic() - t0 < 60.0


# ------------------------------------------------------------ criterion 3


def test_criterion_03_entropy_extended_precision():
    """Top-K step entropy matches a 60-digit decimal evaluation within
    1e-9 over 1e4 random distributions; K = 1 is exactly zero."""
    rng = np.random.default_rng(303)
    with mpmath.workdps(60):
        for i in range(10_000):
            size = int(rng.integers(2, 17))
            style = i % 4
            if style == 0:
                dist = rng.dirichlet(np.full(size, 0.1))  # spiky
            elif style == 1:
                dist = rng.dirichlet(np.full(size, 5.0))  # flat
            elif style == 2:
                dist = rng.dirichlet(np.full(size, 0.8))
                kill = rng.random(size) < 0.3
                kill[int(np.argmax(dist))] = False
                dist = np.where(kill, 0.0, dist)
                dist = dist / dist.sum()
            else:
                dist = np.zeros(size)
                dist[int(rng.integers(size))] = 1.0
            k = int(rng.integers(1, size + 3))
            got = topk_entropy(dist, k)
            if k == 1:
                assert got == 0.0
                continue
            top = sorted((mpmath.mpf(float(x)) for x in dist),
                         reverse=True)[:k]
            total = mpmath.fsum(top)
            exact = -mpmath.fsum(q / total * mpmath.log(q / total)
                                 for q in top if q > 0)
            assert abs(got - float(exact)) <= 1e-9


# ------------------------------------------------------------ criterion 4


def _fsum_sse(group: list[float]) -> float:
    mean = math.fsum(group) / len(group)
    return math.fsum((y - mean) ** 2 for y in group)


def _enum_split(pairs: list[tuple[float, float]]):
    distinct = sorted({x for x, _ in pairs})
    if len(distinct) < 2 or len({y for _, y in pairs}) < 2:
        return None
    best = None
    for a, b in zip(distinct, distinct[1:]):
        s = (a + b) / 2.0
        left = [y for x, y in pairs if x <= s]
        right = [y for x, y in pairs if x > s]
        loss = _fsum_sse(left) / len(left) + _fsum_sse(right) / len(right)
        if best is None or loss < best[1]:
            best = (s, loss)
    return best


def _enum_cart(pairs: list[tuple[float, float]], max_depth: int) -> list[float]:
    thresholds: list[float] = []

    def grow(subset, depth):
        if depth >= max_depth:
            return
        found = _enum_split(subset)
        if found is None:
            return
        s = found[0]
        thresholds.append(s)
        grow([p for p in subset if p[0] <= s], depth + 1)
        grow([p for p in subset if p[0] > s], depth + 1)

    grow(pairs, 0)
    return sorted(thresholds)


def test_criterion_04_cart_matches_exhaustive_greedy():
    """Depth-3 binning agrees with exhaustive greedy enumeration within
    1e-9 on 50 datasets of up to 200 points, and the resulting bins always
    partition [0, inf)."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(2, 201))
        xs = np.round(rng.uniform(0.0, 3.0, n), 1)  # ~20% duplicate x
        slope = float(rng.uniform(2.0, 6.0))
        ys = np.floor(xs) * slope + rng.normal(0.0, 0.25, n)

        got = best_split(xs, ys)
        pairs = list(zip(xs.tolist(), ys.tolist()))
        want = _enum_split(pairs)
        if want is None:
            assert got is None
        else:
            assert abs(got.loss - want[1]) <= 1e-9
            assert abs(got.threshold - want[0]) <= 1e-9

        samples = [CalibrationSample(float(x), float(y))
                   for x, y in zip(xs, ys)]
        model = fit_binning(samples)
        enum = _enum_cart(pairs, 3)
        assert len(model.thresholds) == len(enum)
        for a, b in zip(model.thresholds, enum):
            assert abs(a - b) <= 1e-9

        edges = model.edges()
        assert edges[0][0] == 0.0
        assert math.isinf(edges[-1][1])
        assert all(edges[i][1] == edges[i + 1][0]
                   for i in range(len(edges) - 1))
        for x in rng.uniform(0.0, 4.0, 50):
            lo, hi = edges[model.assign_bin(float(x))]
            assert lo <= x < hi


# ------------------------------------------------------------ criterion 5


def test_criterion_05_rerank_matches_sort_oracle():
    """Top-N selection over 1000 random trees equals a plain sort, stays
    root-connected, and never ranks a child above its ancestor."""
    rng = np.random.default_rng(505)
    for _ in range(1000):
        vocab = make_vocab(int(rng.integers(4, 11)))
        model = DrawnDistModel(vocab, rng)
        tree = expand(model, (0, 1),
                      depth=int(rng.integers(1, 7)),
                      top_k=int(rng.integers(1, 5)))
        budget = int(rng.integers(1, tree.size() + 4))
        t2 = rerank(tree, budget)
        assert t2.nodes == sorted(tree.nodes, key=lambda n: (
            n[NEG_VALUE], n[DEPTH], n[INDEX]))[:budget]
        assert len(t2) == min(budget, tree.size())
        picked = {id(n) for n in t2.nodes}
        for node in t2.nodes:
            assert node[PARENT] is tree.root or id(node[PARENT]) in picked
            if node[PARENT] is not tree.root:
                assert t2.ranks[node[PARENT][TOKENS]] < t2.ranks[node[TOKENS]]
            assert -node[NEG_VALUE] <= -node[PARENT][NEG_VALUE] + 1e-12


# ------------------------------------------------------------ criterion 6


def test_criterion_06_empty_low_bins_is_baseline(planted_lab: Lab, tmp_path):
    """Adaptive decoding with an empty low-bin set leaves a trace
    bit-identical to the baseline's on every eval prompt."""
    cfg = dataclasses.replace(planted_lab.cfg.controller, low_bins=())
    baseline = run_arm("baseline", decode_baseline, planted_lab.target,
                       planted_lab.draft, planted_lab.prompts, cfg,
                       bins=planted_lab.bins)
    adaptive = run_arm("adaptive", decode_adaptive, planted_lab.target,
                       planted_lab.draft, planted_lab.prompts, cfg,
                       bins=planted_lab.bins)
    assert adaptive.outputs == baseline.outputs
    assert adaptive.records == baseline.records
    base_csv = str(tmp_path / "base.csv")
    adapt_csv = str(tmp_path / "adapt.csv")
    write_iterations_csv(base_csv, baseline.records)
    write_iterations_csv(adapt_csv, adaptive.records)
    assert open(base_csv, "rb").read() == open(adapt_csv, "rb").read()


# ------------------------------------------------------------ criterion 7


def test_criterion_07_planted_gains_uniform_unchanged(planted_lab: Lab,
                                                      uniform_lab: Lab):
    """On the planted corpus the adaptive arm wins on calls, verified
    tokens, and acceptance rate; on the structure-free control all three
    stay within 5% of baseline."""
    base = planted_lab.comps[3].baseline.summary
    a3 = planted_lab.comps[3].adaptive
    assert a3.alpha == 3
    assert a3.summary.calls < base.calls
    assert a3.summary.tokens < base.tokens
    assert a3.summary.tau > base.tau

    ubase = uniform_lab.comps[3].baseline.summary
    ua3 = uniform_lab.comps[3].adaptive
    assert ua3.alpha == 3
    for attr in ("calls", "tokens", "tau"):
        b = getattr(ubase, attr)
        a = getattr(ua3.summary, attr)
        assert abs(a - b) <= 0.05 * b, attr

    # wall-clock budget: well under five minutes per arm
    assert planted_lab.build_seconds < 300.0 * 4
    assert uniform_lab.build_seconds < 300.0 * 2


# ------------------------------------------------------------ criterion 8


def test_criterion_08_rank_concentration(planted_lab: Lab):
    """Accepted paths terminate near the top of the value order: P75 of
    the terminal rank sits in the top quarter of the budget, and mean
    accepted length never increases across rank quartile bands."""
    records = planted_lab.comps[3].baseline.records
    budget = planted_lab.cfg.controller.top_n
    s = summarize(records)
    assert s.tcr_p75 is not None
    assert s.tcr_p75 <= math.ceil(0.25 * budget)
    means = [m for count, m in tcr_bands(records, budget) if count > 0]
    assert len(means) >= 2
    assert all(a >= b for a, b in zip(means, means[1:]))


# ------------------------------------------------------------ criterion 9


def test_criterion_09_alpha_sweep_monotone(planted_lab: Lab):
    """Deeper low-entropy extension pays off monotonically: tau strictly
    increases and call count never increases across alpha 2, 3, 4."""
    arms = [planted_lab.comps[a].adaptive for a in sorted(planted_lab.comps)]
    assert [a.alpha for a in arms] == [2, 3, 4]
    taus = [a.summary.tau for a in arms]
    calls = [a.summary.calls for a in arms]
    assert taus[0] < taus[1] < taus[2]
    assert calls[0] >= calls[1] >= calls[2]


# ----------------------------------------------------------- criterion 10


def test_criterion_10_accounting_invariants(planted_lab: Lab,
                                            uniform_lab: Lab):
    """Every arm's trace satisfies the accounting identities: emitted =
    sum(accepted + 1), tau = emitted / calls, and speedup collapses to tau
    exactly when only calls carry cost."""
    expected = (planted_lab.cfg.prompts.count
                * planted_lab.cfg.controller.max_new_tokens)
    comps = [*planted_lab.comps.values(), *uniform_lab.comps.values()]
    arms = [arm for comp in comps for arm in (comp.baseline, comp.adaptive)]
    assert len(arms) == 8
    for arm in arms:
        assert validate_run(arm.records, expected_emitted=expected) == []
        s = arm.summary
        assert s.emitted == sum(r.accepted_len + 1 for r in arm.records)
        assert s.tau == s.emitted / s.calls
        only_calls = summarize(arm.records,
                               CostModel(c_call=1.0, c_tok=0.0, c_draft=0.0))
        assert only_calls.speedup == only_calls.tau  # exact float equality
