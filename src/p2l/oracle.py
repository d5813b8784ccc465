"""Desk-scale synthetic ground truth for source selection.

A world is a family of Gaussian-cluster classification domains plus a frozen
random rectified affine map standing in for the reference feature extractor.
Every domain is cut into source-train, target-train and target-val splits
(the target-train split a small fraction of its partition), and a tiny
linear-representation + softmax-head model trained by mini-batch SGD
produces real transfer outcomes:

    improvement = accuracy(fine-tuned from source) - accuracy(from scratch)

Fine-tuning replaces the head and trains it at the full learn rate while the
representation layer moves at FINETUNE_MULTIPLIER times it. Everything is a
pure function of (seed, configs): each training run draws from its own RNG
stream derived from the world seed and the run's names, so results are
independent of scheduling order. The runs onto one target train in lockstep,
stacked on a leading run axis, and each still draws only from its own stream.
Negative transfer is possible and intentionally not clamped away.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .calibrate import (
    SELECTIONS_HEADER,
    MethodOutcome,
    best_source,
    compare_methods,
    selection_row,
    spearman_or_zero,
)
from .core import (
    EPSILON,
    DatasetProfile,
    EmbeddingMatrix,
    EstimatorConfig,
    ImprovementRecord,
    Summarizer,
)
from .errors import BadSpec, UnknownName
from .estimator import merge_profiles, score_sources
from .io import fmt, group_records_by_target, write_improvements_csv, write_lines
from .summarize import profile_from_matrix


def _stream(seed: int, *tags) -> np.random.Generator:
    """Independent generator for one run, stable across platforms and order."""
    keys = [int(seed)]
    for tag in tags:
        digest = hashlib.sha256(repr(tag).encode()).digest()[:8]
        keys.append(int.from_bytes(digest, "little"))
    return np.random.default_rng(np.random.SeedSequence(keys))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


# -- world ------------------------------------------------------------------------


TARGET_FRACTION = 0.1  # share of partition 3 that trains each target
HIDDEN_DIM = 8  # width of the trainer's representation layer
FINETUNE_MULTIPLIER = 0.1  # representation layer's share of the learn rate in a fine-tune
FEATURE_DIM = 16  # feature width of the default world
EMBED_DIM = 32  # width of the reference extractor's embeddings


@dataclass(frozen=True)
class OracleConfig:
    """Trainer hyperparameters; source, fine-tune and scratch runs all train epochs."""

    learn_rate: float = 0.1
    epochs: int = 10
    batch: ClassVar[int] = 32  # mini-batch size

    def __post_init__(self):
        if not (math.isfinite(self.learn_rate) and self.learn_rate > 0.0):
            raise ValueError(f"learn_rate must be finite and > 0, got {self.learn_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    @property
    def effective_source_epochs(self) -> int:
        """A source model's epochs, which are epochs; only the benchmark reads it."""
        return self.epochs


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """One domain: class centroids in feature space plus an item budget."""

    name: str
    n_items: int
    centroids: np.ndarray  # (n_classes, feature_dim)
    spread: float = 1.0

    def __post_init__(self):
        arr = _frozen(np.array(self.centroids, dtype=np.float64, copy=True))
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise BadSpec(f"domain {self.name!r}: centroids must be "
                          f"(n_classes, feature_dim), got {arr.shape}")
        object.__setattr__(self, "centroids", arr)
        if not (math.isfinite(self.spread) and self.spread > 0.0):
            raise BadSpec(f"domain {self.name!r}: spread must be a finite value > 0, "
                          f"got {self.spread!r}")

    @property
    def n_classes(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True, eq=False)
class WorldSpec:
    """Domain layout: the first n_sources domains are the source pool.

    The remaining domains are the evaluation targets; when every domain is a
    source, every domain is also a target. All domains get all four splits
    either way, so self-transfer stays expressible. The feature width is the
    domains' shared centroid width.
    """

    domains: tuple[DomainSpec, ...]
    n_sources: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        n_sources = len(self.domains) if self.n_sources is None else self.n_sources
        if not (1 <= n_sources <= len(self.domains)):
            raise BadSpec("n_sources must lie in [1, number of domains]")
        object.__setattr__(self, "n_sources", n_sources)
        widths = {d.centroids.shape[1] for d in self.domains}
        if len(widths) > 1:
            raise BadSpec(f"domains differ in centroid width: {sorted(widths)}")

    @property
    def feature_dim(self) -> int:
        return self.domains[0].centroids.shape[1]


@dataclass(frozen=True, eq=False)
class ReferenceExtractor:
    """Frozen random affine map into embedding space, negatives clamped to 0."""

    weights: np.ndarray  # (feature_dim, embed_dim)
    offset: np.ndarray   # (embed_dim,)
    extractor_id: str

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.weights + self.offset, 0.0)


@dataclass(frozen=True, eq=False)
class SplitData:
    x: np.ndarray
    y: np.ndarray

    @property
    def items(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class DomainData:
    spec: DomainSpec
    source_train: SplitData
    target_train: SplitData
    target_val: SplitData


@dataclass(frozen=True, eq=False)
class OracleWorld:
    """Fully realized world; identical seeds give bit-identical worlds."""

    seed: int
    spec: WorldSpec
    domains: tuple[DomainData, ...]
    extractor: ReferenceExtractor

    @cached_property
    def _by_name(self) -> dict[str, DomainData]:
        return {d.spec.name: d for d in self.domains}

    def domain(self, name: str) -> DomainData:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownName(f"no domain named {name!r}") from None

    def source_names(self) -> list[str]:
        return [d.spec.name for d in self.domains[:self.spec.n_sources]]

    def target_names(self) -> list[str]:
        if self.spec.n_sources == len(self.domains):
            return [d.spec.name for d in self.domains]
        return [d.spec.name for d in self.domains[self.spec.n_sources:]]


def generate_world(seed: int, spec: WorldSpec) -> OracleWorld:
    """Sample items for every domain and cut them into four partitions.

    Per domain: items are Gaussian clusters around the class centroids,
    shuffled, then cut into four equal partitions. Partition 1 trains the
    source model, the first TARGET_FRACTION of partition 3 is the transfer
    target's training set, and partition 4 is the target validation set.
    Partition 2 is unused but keeps its place, so each seed keeps its world.
    The world depends on seed and spec only.
    """
    if len(spec.domains) < 2:
        raise BadSpec("world needs at least two domains")
    names = [d.name for d in spec.domains]
    if len(set(names)) != len(names):
        raise BadSpec("domain names must be distinct")
    domains = []
    for dom in spec.domains:
        if dom.n_classes < 2:
            raise BadSpec(f"domain {dom.name!r} needs at least two classes")
        quarter = dom.n_items // 4
        target_items = math.floor(TARGET_FRACTION * quarter)
        if target_items < 1:
            raise BadSpec(f"domain {dom.name!r}: {dom.n_items} items leave an "
                          "empty target split")
        rng = _stream(seed, "domain", dom.name)
        labels = np.arange(dom.n_items) % dom.n_classes
        x = dom.centroids[labels] + dom.spread * rng.standard_normal(
            (dom.n_items, spec.feature_dim))
        perm = rng.permutation(dom.n_items)
        x, labels = x[perm], labels[perm]

        def cut(lo, hi):
            y = labels[lo:hi].copy()
            y.flags.writeable = False
            return SplitData(x=_frozen(x[lo:hi]), y=y)

        domains.append(DomainData(
            spec=dom,
            source_train=cut(0, quarter),
            target_train=cut(2 * quarter, 2 * quarter + target_items),
            target_val=cut(3 * quarter, 4 * quarter),
        ))

    ext_rng = _stream(seed, "extractor")
    weights = ext_rng.normal(0.0, 1.0 / math.sqrt(spec.feature_dim),
                             (spec.feature_dim, EMBED_DIM))
    offset = ext_rng.normal(0.0, 0.5, EMBED_DIM)
    extractor = ReferenceExtractor(weights=_frozen(weights), offset=_frozen(offset),
                                   extractor_id=f"oracle-ref-{seed}")
    return OracleWorld(seed=seed, spec=spec, domains=tuple(domains),
                       extractor=extractor)


# Shape of the default world; default_world_spec's docstring says how each acts.
N_GROUPS, MIN_ITEMS, MAX_ITEMS = 2, 240, 9600
GROUP_SCALE, DOMAIN_SCALE, CLASS_SCALE, SPREAD = 2.0, 1.0, 1.0, 1.6


def default_world_spec(seed: int, n_sources: int = 6, n_targets: int = 8) -> WorldSpec:
    """Random world layout: disjoint source and target domains in shared groups.

    Domains in the same group share jittered class anchors, so in-group
    transfer works broadly and source size decides among usable candidates,
    while cross-group transfer tends to hurt. Source sizes are log-spaced and
    dealt round-robin so every group spans tiny to large (shuffled within a
    group per seed); that keeps both failure modes alive: the largest source
    is in the wrong group for some targets, and the nearest source is
    sometimes the tiny one.
    """
    if n_sources < 1 or n_targets < 1:
        raise BadSpec("a world needs at least one source and one target, "
                      f"got {n_sources} and {n_targets}")
    rng = _stream(seed, "worldspec")
    groups = []
    for _ in range(N_GROUPS):
        center = rng.normal(0.0, GROUP_SCALE, FEATURE_DIM)
        n_classes = int(rng.integers(5, 9))
        anchors = center + rng.normal(0.0, CLASS_SCALE, (n_classes, FEATURE_DIM))
        groups.append(anchors)

    n_domains = n_sources + n_targets
    sizes = np.empty(n_domains, dtype=int)
    source_sizes = np.geomspace(MIN_ITEMS, MAX_ITEMS, n_sources).astype(int)
    for g in range(N_GROUPS):
        members = [i for i in range(n_sources) if i % N_GROUPS == g]
        ranks = [g + j * N_GROUPS for j in range(len(members))]
        rng.shuffle(ranks)
        for i, rank in zip(members, ranks):
            sizes[i] = source_sizes[rank]
    target_sizes = np.geomspace(MIN_ITEMS, MAX_ITEMS, n_targets).astype(int)
    target_sizes = target_sizes[rng.permutation(n_targets)]
    sizes[n_sources:] = target_sizes

    domains = []
    for i in range(n_domains):
        anchors = groups[i % N_GROUPS]
        # Per-domain jitter magnitude varies, so group-mates sit at genuinely
        # different distances from a target instead of one indistinct blob.
        jitter = rng.uniform(0.3, DOMAIN_SCALE)
        centroids = anchors + rng.normal(0.0, jitter, anchors.shape)
        domains.append(DomainSpec(name=f"dom{i:02d}", n_items=int(sizes[i]),
                                  centroids=centroids, spread=SPREAD))
    return WorldSpec(domains=tuple(domains), n_sources=n_sources)


def default_world(seed: int, cfg: OracleConfig | None = None,
                  **spec_kwargs) -> OracleWorld:
    return generate_world(seed, default_world_spec(seed, **spec_kwargs))


# -- profiles ------------------------------------------------------------------------


def embed_split(world: OracleWorld, split: SplitData) -> EmbeddingMatrix:
    return EmbeddingMatrix(world.extractor(split.x), world.extractor.extractor_id)


def build_profiles(world: OracleWorld,
                   ) -> tuple[list[DatasetProfile], dict[str, DatasetProfile]]:
    """Source profiles (from source-train splits) and per-name target profiles.

    Target profiles exist for every domain since every domain carries a
    target split.
    """
    sources = []
    for name in world.source_names():
        data = world.domain(name)
        sources.append(profile_from_matrix(
            name, embed_split(world, data.source_train), Summarizer.mean(),
            role="source"))
    targets = {}
    for data in world.domains:
        targets[data.spec.name] = profile_from_matrix(
            data.spec.name, embed_split(world, data.target_train),
            Summarizer.mean(), role="target")
    return sources, targets


# -- tiny trainer ---------------------------------------------------------------------


@dataclass
class ModelParams:
    """Linear representation layer then a softmax classification head, for R
    runs at once: every weight has a leading run axis, and R = 1 is one model."""

    w1: np.ndarray  # (R, in_dim, hidden)
    b1: np.ndarray  # (R, hidden)
    w2: np.ndarray  # (R, hidden, n_classes)
    b2: np.ndarray  # (R, n_classes)

    @classmethod
    def concat(cls, runs: Sequence[ModelParams]) -> ModelParams:
        """A new stack of the given runs' weights, in order."""
        return cls(w1=np.concatenate([p.w1 for p in runs]),
                   b1=np.concatenate([p.b1 for p in runs]),
                   w2=np.concatenate([p.w2 for p in runs]),
                   b2=np.concatenate([p.b2 for p in runs]))


def init_params(rng: np.random.Generator, in_dim: int, hidden_dim: int,
                n_classes: int) -> ModelParams:
    """One run's starting weights (R = 1)."""
    return ModelParams(
        w1=rng.normal(0.0, 1.0 / math.sqrt(in_dim), (1, in_dim, hidden_dim)),
        b1=np.zeros((1, hidden_dim)),
        w2=rng.normal(0.0, 1.0 / math.sqrt(hidden_dim), (1, hidden_dim, n_classes)),
        b2=np.zeros((1, n_classes)),
    )


def loss_and_grads(params: ModelParams, x: np.ndarray, y: np.ndarray,
                   ) -> tuple[float, ModelParams]:
    """Mean softmax cross-entropy of one run (R = 1) and its analytic gradients."""
    shifted, denom, grads = _softmax_grads(params, x[None], y[None])
    log_probs = shifted[0] - np.log(denom[0])
    return -float(log_probs[np.arange(x.shape[0]), y].mean()), grads


def _softmax_grads(params: ModelParams, x: np.ndarray, y: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, ModelParams]:
    """Max-shifted logits, softmax denominators and loss gradients of R runs,
    run r on the batch x[r] (m, in_dim), y[r] (m,); sgd_train needs only the
    gradients, loss_and_grads adds the loss from the rest."""
    m = y.shape[1]
    h = x @ params.w1 + params.b1[:, None]
    logits = h @ params.w2 + params.b2[:, None]
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=2, keepdims=True)
    g = exp / denom
    g.reshape(-1)[np.arange(0, g.size, g.shape[2]) + y.reshape(-1)] -= 1.0  # true class
    g /= m
    dh = g @ params.w2.swapaxes(1, 2)
    grads = ModelParams(w1=x.swapaxes(1, 2) @ dh, b1=dh.sum(axis=1),
                        w2=h.swapaxes(1, 2) @ g, b2=g.sum(axis=1))
    return shifted, denom, grads


def sgd_train(params: ModelParams, x: np.ndarray, y: np.ndarray,
              rngs: Sequence[np.random.Generator], learn_rate: float, epochs: int,
              batch: int, rep_scale: float | Sequence[float] = 1.0) -> ModelParams:
    """Plain mini-batch gradient descent of R runs on one split, in lockstep
    and in place; no momentum, fixed budget.

    Run r draws each epoch's order from its own rngs[r] and moves its
    representation layer at rep_scale[r] times the learn rate (a single
    rep_scale serves every run); every head moves at the full rate. Each
    run's weights come out bit for bit as if it had trained alone.
    """
    n = x.shape[0]
    rep_rates = learn_rate * np.broadcast_to(rep_scale, (len(rngs),))
    w1_rates, b1_rates = rep_rates[:, None, None], rep_rates[:, None]
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch):
            idx = order[:, start:start + batch]
            _, _, g = _softmax_grads(params, x.take(idx, axis=0), y.take(idx))
            params.w1 -= w1_rates * g.w1
            params.b1 -= b1_rates * g.b1
            params.w2 -= learn_rate * g.w2
            params.b2 -= learn_rate * g.b2
    return params


def accuracy(params: ModelParams, x: np.ndarray, y: np.ndarray) -> list[float]:
    """Each run's top-1 accuracy on (x, y), one run at a time: a validation
    split is far larger than a batch, and R copies of its activations would
    set the process's peak memory."""
    accs = []
    for w1, b1, w2, b2 in zip(params.w1, params.b1, params.w2, params.b2):
        logits = (x @ w1 + b1) @ w2 + b2
        accs.append(float((logits.argmax(axis=1) == y).mean()))
    return accs


# -- transfer runs --------------------------------------------------------------------


def _train_pooled_model(world: OracleWorld, source_names: Sequence[str],
                        cfg: OracleConfig, *tags) -> ModelParams:
    """One model over the union of the named source-train splits.

    Labels are offset per domain so the pooled model classifies the combined
    label space. ``tags`` name the RNG stream: ("source", name) for one source.
    """
    xs, ys, offset = [], [], 0
    for name in source_names:
        data = world.domain(name)
        xs.append(data.source_train.x)
        ys.append(data.source_train.y + offset)
        offset += data.spec.n_classes
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    rng = _stream(world.seed, *tags)
    params = init_params(rng, world.spec.feature_dim, HIDDEN_DIM, offset)
    return sgd_train(params, x, y, [rng], cfg.learn_rate, cfg.epochs, cfg.batch)


def _fit_target(world: OracleWorld, target_name: str,
                sources: Sequence[tuple[str, ModelParams] | None],
                cfg: OracleConfig) -> list[float]:
    """One run onto the target per source entry, trained in lockstep on the
    target's training split; each run's validation accuracy.

    None is the scratch run: a fresh initialization on the stream
    ("scratch", target) that moves at the full learn rate. (tag, model)
    fine-tunes a copy of model: a new head drawn from the stream
    ("transfer", tag, target), and a representation layer that moves at
    FINETUNE_MULTIPLIER times the learn rate.
    """
    data = world.domain(target_name)
    n_classes = data.spec.n_classes
    runs, rngs, rep_scale = [], [], []
    for source in sources:
        if source is None:
            rng = _stream(world.seed, "scratch", target_name)
            runs.append(init_params(rng, world.spec.feature_dim, HIDDEN_DIM, n_classes))
            rep_scale.append(1.0)
        else:
            tag, model = source
            rng = _stream(world.seed, "transfer", tag, target_name)
            w2 = rng.normal(0.0, 1.0 / math.sqrt(HIDDEN_DIM), (1, HIDDEN_DIM, n_classes))
            runs.append(ModelParams(w1=model.w1, b1=model.b1, w2=w2,
                                    b2=np.zeros((1, n_classes))))
            rep_scale.append(FINETUNE_MULTIPLIER)
        rngs.append(rng)
    params = sgd_train(ModelParams.concat(runs), data.target_train.x,
                       data.target_train.y, rngs, cfg.learn_rate, cfg.epochs,
                       cfg.batch, rep_scale)
    return accuracy(params, data.target_val.x, data.target_val.y)


def train_transfer(world: OracleWorld, source_name: str | None,
                   target_name: str, cfg: OracleConfig) -> float:
    """Top-1 accuracy on the target validation split, in [0, 1].

    A None source means training from random initialization on the target
    only. Non-convergence is not an error; the accuracy stands as measured.
    """
    world.domain(target_name)
    source = None
    if source_name is not None:
        source = (source_name, _train_pooled_model(world, [source_name], cfg,
                                                   "source", source_name))
    return _fit_target(world, target_name, [source], cfg)[0]


def ground_truth(world: OracleWorld, cfg: OracleConfig) -> list[ImprovementRecord]:
    """Real improvements for every (target, source) pair in the world.

    Source models are trained once and reused across targets. Per target, the
    scratch run and one fine-tune per source train in lockstep; results are
    identical to independent train_transfer calls because every run owns its
    RNG stream.
    """
    sources = world.source_names()
    models = {name: _train_pooled_model(world, [name], cfg, "source", name)
              for name in sources}
    records = []
    for target in world.target_names():
        scratch, *perfs = _fit_target(world, target, [None, *models.items()], cfg)
        records.extend(ImprovementRecord(target, source, perf, scratch)
                       for source, perf in zip(sources, perfs))
    return records


def calibration_tasks(world: OracleWorld,
                      records: Sequence[ImprovementRecord],
                      ) -> tuple[list[tuple[DatasetProfile, list[ImprovementRecord]]],
                                 list[DatasetProfile]]:
    """(target profile, its records) pairs plus the source pool, in world order."""
    sources, targets = build_profiles(world)
    by_target = group_records_by_target(records)
    tasks = [(targets[name], by_target[name]) for name in world.target_names()
             if name in by_target]
    return tasks, sources


# -- studies ------------------------------------------------------------------------


@dataclass
class StudyReport:
    """Per-pair ground truth plus per-method selection quality."""

    seed: int
    estimator: EstimatorConfig
    records: list[ImprovementRecord]
    per_target_rho: dict[str, float]
    mean_rho: float
    outcomes: dict[str, dict[str, MethodOutcome]]  # target -> method -> outcome
    selections: dict[str, dict[str, str | None]]  # method -> target -> source
    mean_accuracy: dict[str, float]
    hit_rate: dict[str, float]
    picks: dict[str, dict[str, int]]              # method -> target -> position
    mean_picks: dict[str, float]


def run_study(world: OracleWorld, cfg: OracleConfig,
              estimator_cfg: EstimatorConfig,
              records: Sequence[ImprovementRecord]) -> StudyReport:
    """Score every target against every source and compare selection methods.

    The records are ground_truth(world, cfg). Emits per-target rank
    correlation between scores and improvements, and each method's (P2L, B1,
    B4, B5) outcome per target, mean accuracy, top-1 hit rate and
    picks-to-best.
    """
    target_names = world.target_names()
    if len(world.source_names()) < 3:
        raise BadSpec("study needs at least three source domains")
    if len(target_names) < 2:
        raise BadSpec("study needs at least two targets")
    records = list(records)
    by_target = group_records_by_target(records)
    source_profiles, target_profiles = build_profiles(world)
    pool = {p.name: p for p in source_profiles}

    per_target_rho: dict[str, float] = {}
    outcomes: dict[str, dict[str, MethodOutcome]] = {}
    for target in target_names:
        recs = by_target[target]
        scored, outcomes[target] = compare_methods(
            target_profiles[target], recs, pool, estimator_cfg)
        escore = {s.source_name: s.score for s in scored}
        per_target_rho[target] = float(spearman_or_zero(
            [[escore[r.source_name] for r in recs]], [r.improvement for r in recs])[0])

    first = outcomes[target_names[0]]
    methods = list(first)
    ranked = [m for m in methods if first[m].picks_to_best is not None]
    picks = {m: {t: outcomes[t][m].picks_to_best for t in target_names} for m in ranked}
    return StudyReport(
        seed=world.seed, estimator=estimator_cfg, records=records,
        per_target_rho=per_target_rho,
        mean_rho=float(np.mean(list(per_target_rho.values()))),
        outcomes=outcomes,
        selections={m: {t: outcomes[t][m].selection for t in target_names}
                    for m in methods},
        mean_accuracy={m: float(np.mean([outcomes[t][m].perf for t in target_names]))
                       for m in methods},
        hit_rate={m: float(np.mean([p == 1 for p in picks[m].values()])) for m in ranked},
        picks=picks,
        mean_picks={m: float(np.mean(list(picks[m].values()))) for m in ranked})


@dataclass(frozen=True)
class MergedOutcome:
    target_name: str
    divergence_from_reference: float
    perf_reference: float
    perf_merged: float
    predicted: str  # which source the estimator itself would pick

    @property
    def winner(self) -> str:
        """Whose fine-tuned accuracy is higher: "reference", "merged" or "tie"."""
        if self.perf_reference == self.perf_merged:
            return "tie"
        return "reference" if self.perf_reference > self.perf_merged else "merged"


@dataclass
class MergedStudyReport:
    seed: int
    reference_name: str
    reference_profile: DatasetProfile
    merged_profile: DatasetProfile
    outcomes: list[MergedOutcome]  # ascending divergence from the reference


def merged_source_study(world: OracleWorld, cfg: OracleConfig,
                        reference_name: str | None = None) -> MergedStudyReport:
    """Does pooling every source beat the single reference source?

    Trains one model on the union of all source domains and one on the
    reference domain alone, fine-tunes both on every target, and reports
    wins ordered by the target's divergence from the reference. Merging
    grows size but also grows divergence, so the reference tends to keep
    near targets while the merged model takes far ones. The reference
    defaults to the largest source.
    """
    source_names = world.source_names()
    if reference_name is None:
        reference = max(source_names,
                        key=lambda n: (world.domain(n).source_train.items, n))
    else:
        reference = reference_name
    if reference not in source_names:
        raise UnknownName(f"reference {reference!r} is not a source domain")
    if len(source_names) < 3:
        raise BadSpec("merged study needs the reference plus at least two others")
    est = EstimatorConfig()

    source_profiles, target_profiles = build_profiles(world)
    ref_profile = next(p for p in source_profiles if p.name == reference)
    merged_profile = merge_profiles(source_profiles, name="merged")

    ref_model = _train_pooled_model(world, [reference], cfg, "source", reference)
    merged_model = _train_pooled_model(world, source_names, cfg, "pooled", "merged")

    # The target family spans every domain's target split, the reference's
    # own included, so divergence from the reference covers near to far.
    outcomes = []
    for target in (d.spec.name for d in world.domains):
        scored = score_sources(target_profiles[target],
                               [ref_profile, merged_profile], est)
        div = next(s.distance_value for s in scored if s.source_name == reference)
        perf_ref, perf_merged = _fit_target(
            world, target, [(reference, ref_model), ("merged", merged_model)], cfg)
        outcomes.append(MergedOutcome(
            target_name=target, divergence_from_reference=div,
            perf_reference=perf_ref, perf_merged=perf_merged,
            predicted=scored[0].source_name))
    outcomes.sort(key=lambda o: (o.divergence_from_reference, o.target_name))
    return MergedStudyReport(seed=world.seed, reference_name=reference,
                             reference_profile=ref_profile,
                             merged_profile=merged_profile, outcomes=outcomes)


# -- report files --------------------------------------------------------------------


def write_study_files(study: StudyReport, outdir) -> None:
    """CSV tables plus a plain-text summary; byte-identical for equal inputs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_improvements_csv(outdir / "ground_truth.csv", study.records)

    by_target = group_records_by_target(study.records)
    lines = ["target,spearman_rho,best_source"]
    for target, rho in study.per_target_rho.items():
        lines.append(f"{target},{fmt(rho)},{best_source(by_target[target])}")
    write_lines(outdir / "per_target.csv", lines)

    lines = [SELECTIONS_HEADER]
    for target, outcomes in study.outcomes.items():
        lines.extend(selection_row(target, o) for o in outcomes.values())
    write_lines(outdir / "selections.csv", lines)

    lines = ["method,mean_accuracy,top1_hit_rate,mean_picks_to_best"]
    text = [
        f"seed: {study.seed}",
        f"estimator: distance={study.estimator.distance.value} "
        f"k={fmt(study.estimator.k)} epsilon={fmt(EPSILON)}",
        f"targets: {len(study.per_target_rho)}",
        f"mean spearman rho (score vs improvement): {fmt(study.mean_rho)}",
    ]
    for method in study.selections:
        acc = fmt(study.mean_accuracy[method])
        ranks = method in study.mean_picks  # else it ranks nothing (no transfer)
        hit = fmt(study.hit_rate[method]) if ranks else ""
        mp = fmt(study.mean_picks[method]) if ranks else ""
        lines.append(f"{method},{acc},{hit},{mp}")
        rank = f", top-1 hit rate {hit}, mean picks-to-best {mp}" if ranks else ""
        text.append(f"{method}: mean accuracy {acc}{rank}")
    write_lines(outdir / "methods.csv", lines)
    write_lines(outdir / "summary.txt", text)


def write_merged_csv(report: MergedStudyReport, path) -> None:
    lines = ["target,divergence_from_reference,perf_reference,perf_merged,"
             "predicted,winner"]
    for o in report.outcomes:
        lines.append(f"{o.target_name},{fmt(o.divergence_from_reference)},"
                     f"{fmt(o.perf_reference)},{fmt(o.perf_merged)},"
                     f"{o.predicted},{o.winner}")
    write_lines(path, lines)
