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
independent of scheduling order. Runs train in lockstep, stacked on a leading
run axis, by one trainer (sgd_train): the source models of one class count
together, each on its own source rows, and then the runs onto one target.
Each run still draws only from its own stream, and its weights are bit for
bit those it gets when trained alone. Negative transfer is possible and
intentionally not clamped away.

The source-model groups, and then the fits onto each target, are independent
tasks mapped by fork.fork_map, so the world and the models reach its workers
through fork, never pickled. Outputs depend on neither the worker count nor
the BLAS thread count.
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
    MethodOutcome,
    best_source,
    compare_methods,
    selection_lines,
    spearman_or_zero,
)
from .core import (
    EPSILON,
    DatasetProfile,
    EmbeddingMatrix,
    EstimatorConfig,
    ImprovementRecord,
    Shelf,
    Summarizer,
)
from .errors import BadSpec, UnknownName
from .estimator import merge_profiles, score_sources
from .fork import fork_map
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
LEARN_RATE = 0.1  # SGD step size of every source, scratch and fine-tune run
FINETUNE_MULTIPLIER = 0.1  # representation layer's share of the learn rate in a fine-tune
FEATURE_DIM = 16  # feature width of the default world
SPREAD = 1.6  # std of a domain's items around their class centroid
EMBED_DIM = 32  # width of the reference extractor's embeddings


@dataclass(frozen=True)
class OracleConfig:
    """Trainer hyperparameters; source, fine-tune and scratch runs all train epochs."""

    epochs: int = 10
    batch: ClassVar[int] = 32  # mini-batch size

    def __post_init__(self):
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

    def __post_init__(self):
        arr = _frozen(np.array(self.centroids, dtype=np.float64, copy=True))
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise BadSpec(f"domain {self.name!r}: centroids must be "
                          f"(n_classes, feature_dim), got {arr.shape}")
        object.__setattr__(self, "centroids", arr)

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

    @cached_property
    def _profiles(self) -> tuple[list[DatasetProfile], dict[str, DatasetProfile]]:
        """build_profiles' profiles, embedded and summarized once per world."""
        def profile(data: DomainData, split: SplitData, role: str) -> DatasetProfile:
            matrix = EmbeddingMatrix.adopt(self.extractor(split.x),
                                           self.extractor.extractor_id)
            return profile_from_matrix(data.spec.name, matrix, Summarizer.mean(), role=role)
        sources = [profile(d, d.source_train, "source")
                   for d in self.domains[:self.spec.n_sources]]
        targets = {d.spec.name: profile(d, d.target_train, "target") for d in self.domains}
        return sources, targets

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
        x = dom.centroids[labels] + SPREAD * rng.standard_normal(
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
GROUP_SCALE, DOMAIN_SCALE, CLASS_SCALE = 2.0, 1.0, 1.0


def _check_world_size(n_sources: int, n_targets: int) -> None:
    if n_sources < 1 or n_targets < 1:
        raise BadSpec("a world needs at least one source and one target, "
                      f"got {n_sources} and {n_targets}")


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
    _check_world_size(n_sources, n_targets)
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
        sizes[g:n_sources:N_GROUPS] = rng.permutation(source_sizes[g::N_GROUPS])
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
                                  centroids=centroids))
    return WorldSpec(domains=tuple(domains), n_sources=n_sources)


def default_world(seed: int, cfg: OracleConfig | None = None,
                  **spec_kwargs) -> OracleWorld:
    return generate_world(seed, default_world_spec(seed, **spec_kwargs))


# -- profiles ------------------------------------------------------------------------


def build_profiles(world: OracleWorld,
                   ) -> tuple[list[DatasetProfile], dict[str, DatasetProfile]]:
    """Source profiles (from source-train splits) and per-name target profiles.

    Target profiles exist for every domain since every domain carries a
    target split. The world builds them once; each call returns a fresh
    list and dict of them.
    """
    sources, targets = world._profiles
    return list(sources), dict(targets)


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

    def flat(self) -> np.ndarray:
        """A copy of each run's weights as one row: w1, b1, w2 and b2 in turn."""
        return np.concatenate([w.reshape(len(w), -1)
                               for w in (self.w1, self.b1, self.w2, self.b2)], axis=1)

    def views(self, flat: np.ndarray) -> ModelParams:
        """Views of runs laid out in the rows of flat as flat() lays out these
        runs; flat may hold any number of rows."""
        fields, at = [], 0
        for w in (self.w1, self.b1, self.w2, self.b2):
            size = math.prod(w.shape[1:])
            fields.append(flat[:, at:at + size].reshape(len(flat), *w.shape[1:]))
            at += size
        return ModelParams(*fields)


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
    grads = params.views(np.empty_like(params.flat()))
    shifted, denom = _softmax_grads(params, x[None], y[None], grads)
    log_probs = shifted[0] - np.log(denom[0])
    return -float(log_probs[np.arange(x.shape[0]), y].mean()), grads


def _softmax_grads(params: ModelParams, x: np.ndarray, y: np.ndarray,
                   grads: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted logits and softmax denominators of R runs, run r on the
    batch x[r] (m, in_dim), y[r] (m,), with the loss gradients written into
    grads; sgd_train needs only the gradients, loss_and_grads adds the loss
    from the rest."""
    m = y.shape[1]
    h = x @ params.w1 + params.b1[:, None]
    logits = h @ params.w2 + params.b2[:, None]
    # A max is exact in any order; over the leading axis of a class-major copy
    # it is a few whole-array maxima instead of one tiny reduction per row.
    peak = np.maximum.reduce(np.ascontiguousarray(logits.transpose(2, 0, 1)))
    shifted = logits - peak[..., None]
    exp = np.exp(shifted)
    denom = exp.sum(axis=2, keepdims=True)
    g = exp / denom
    g.reshape(-1)[np.arange(0, g.size, g.shape[2]) + y.reshape(-1)] -= 1.0  # true class
    g /= m
    dh = g @ params.w2.swapaxes(1, 2)
    np.matmul(x.swapaxes(1, 2), dh, out=grads.w1)
    np.add.reduce(dh, axis=1, out=grads.b1)
    np.matmul(h.swapaxes(1, 2), g, out=grads.w2)
    np.add.reduce(g, axis=1, out=grads.b2)
    return shifted, denom


def sgd_train(params: ModelParams, x: np.ndarray, y: np.ndarray,
              rngs: Sequence[np.random.Generator], learn_rate: float, epochs: int,
              batch: int, rep_scale: float | Sequence[float] = 1.0,
              rows: Sequence[range] | None = None) -> ModelParams:
    """Plain mini-batch gradient descent of R runs, in lockstep and in place;
    no momentum, fixed budget.

    Run r trains on the rows rows[r] of the stacked split x, y (every run on
    all of it when rows is None), draws each epoch's order from its own
    rngs[r] when that epoch starts, and moves its representation layer at
    rep_scale[r] times the learn rate (a single rep_scale serves every run);
    every head moves at the full rate. Each run's weights come out bit for
    bit as if it had trained alone.

    The runs train sorted by row count, largest first, so the runs still
    training at any step are a leading slice of the stacked weights. Each
    run's weights are one row of a matrix, so a step updates a slice of its
    rows with one multiply and one subtract. Each epoch's order goes into a
    buffer of row indices that holds step t's batch of every run at slot
    t mod (the longest epoch's steps), so a step gathers its rows with one
    take. Runs whose batches differ in length at a step (a short last batch
    of an epoch) step apart.
    """
    n_runs = len(rngs)
    if rows is None:
        rows = [range(x.shape[0])] * n_runs
    by_size = np.argsort([-len(r) for r in rows], kind="stable")
    sizes = [len(rows[r]) for r in by_size]
    firsts = np.array([rows[r].start for r in by_size])[:, None]
    rngs = [rngs[r] for r in by_size]
    # Every run's weights, and each weight's learn rate, as one row.
    flat = params.flat()[by_size]
    rates = np.full_like(flat, learn_rate)
    rates[:, :params.w1[0].size + params.b1[0].size] = (
        learn_rate * np.broadcast_to(rep_scale, (n_runs,)))[by_size, None]
    lockstep = {}  # (first run, end run) -> its weights, rates and gradients
    # Cohorts: runs of one row count, which start their epochs at the same steps.
    cuts = [r for r in range(1, n_runs) if sizes[r] != sizes[r - 1]]
    cohorts = [(a, b, sizes[a], -(-sizes[a] // batch))
               for a, b in zip([0, *cuts], [*cuts, n_runs]) if sizes[a]]
    period = cohorts[0][3] if cohorts else 0
    width = period * batch
    order = np.empty((n_runs, width), dtype=np.intp)
    for t in range(epochs * period):
        slot = t % period
        segments = []  # [first run, end run, batch length], runs in lockstep
        for a, b, n, steps in cohorts:
            if t >= epochs * steps:
                break  # this cohort and every smaller one are done
            step = t % steps
            if step == 0:
                at = (slot * batch + np.arange(n)) % width
                order[a:b, at] = firsts[a:b] + np.stack([rng.permutation(n)
                                                         for rng in rngs[a:b]])
            m = min(batch, n - step * batch)
            if segments and segments[-1][2] == m:
                segments[-1][1] = b
            else:
                segments.append([a, b, m])
        lo = slot * batch
        for a, b, m in segments:
            if (a, b) not in lockstep:
                grads = np.empty_like(flat[a:b])
                lockstep[a, b] = (flat[a:b], rates[a:b], grads, params.views(flat[a:b]),
                                  params.views(grads))
            weights, weight_rates, grads, weight_views, grad_views = lockstep[a, b]
            idx = order[a:b, lo:lo + m]
            _softmax_grads(weight_views, x.take(idx, axis=0), y.take(idx), grad_views)
            weights -= weight_rates * grads
    trained = params.views(flat)
    for field in ("w1", "b1", "w2", "b2"):
        getattr(params, field)[by_size] = getattr(trained, field)
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
                       data.target_train.y, rngs, LEARN_RATE, cfg.epochs,
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
        model, = _train_models(world, cfg, [((source_name,), ("source", source_name))])
        source = (source_name, model)
    return _fit_target(world, target_name, [source], cfg)[0]


def _train_models(world: OracleWorld, cfg: OracleConfig,
                  pools: Sequence[tuple[Sequence[str], tuple]]) -> list[ModelParams]:
    """One model per (source names, stream tags) pool, in pool order.

    A pool's model trains on the union of its sources' source-train splits,
    with labels offset per domain so it classifies the combined label space,
    from a fresh initialization on the stream tags: ("source", name) for one
    source. Pools of one class count (head width) train in one lockstep
    sgd_train call, each on its own rows of the group's stacked split; the
    groups are mapped.
    """
    groups: dict[int, list[int]] = {}
    for i, (names, _) in enumerate(pools):
        width = sum(world.domain(name).spec.n_classes for name in names)
        groups.setdefault(width, []).append(i)

    def train(group: list[int]) -> list[ModelParams]:
        xs, ys, rows, rngs, starts, end = [], [], [], [], [], 0
        for i in group:
            names, tags = pools[i]
            first, offset = end, 0
            for name in names:
                data = world.domain(name)
                xs.append(data.source_train.x)
                ys.append(data.source_train.y + offset)
                offset += data.spec.n_classes
                end += data.source_train.items
            rows.append(range(first, end))
            rngs.append(_stream(world.seed, *tags))
            starts.append(init_params(rngs[-1], world.spec.feature_dim, HIDDEN_DIM, offset))
        params = sgd_train(ModelParams.concat(starts), np.concatenate(xs),
                           np.concatenate(ys), rngs, LEARN_RATE, cfg.epochs,
                           cfg.batch, rows=rows)
        trained = params.flat()
        return [params.views(trained[r:r + 1]) for r in range(len(group))]

    trained = fork_map(train, list(groups.values()), lambda group: sum(
        world.domain(name).source_train.items for i in group for name in pools[i][0]))
    models = {}
    for group, group_models in zip(groups.values(), trained):
        models.update(zip(group, group_models))
    return [models[i] for i in range(len(pools))]


def _fit_targets(world: OracleWorld, cfg: OracleConfig, targets: Sequence[str],
                 sources: Sequence[tuple[str, ModelParams] | None]) -> list[list[float]]:
    """_fit_target of each named target on the same source entries, mapped."""
    return fork_map(lambda target: _fit_target(world, target, sources, cfg), targets,
                    lambda target: world.domain(target).target_train.items)


def ground_truth(world: OracleWorld, cfg: OracleConfig) -> list[ImprovementRecord]:
    """Real improvements for every (target, source) pair in the world.

    Source models are trained once and reused across targets. Per target, the
    scratch run and one fine-tune per source train in lockstep; results are
    identical to independent train_transfer calls because every run owns its
    RNG stream.
    """
    sources = world.source_names()
    models = _train_models(world, cfg, [((name,), ("source", name)) for name in sources])
    targets = world.target_names()
    fits = _fit_targets(world, cfg, targets, [None, *zip(sources, models)])
    records = []
    for target, (scratch, *perfs) in zip(targets, fits):
        records.extend(ImprovementRecord(target, source, perf, scratch)
                       for source, perf in zip(sources, perfs))
    return records


def calibration_tasks(world: OracleWorld,
                      records: Sequence[ImprovementRecord],
                      ) -> tuple[list[tuple[DatasetProfile, list[ImprovementRecord]]],
                                 list[DatasetProfile]]:
    """(target profile, its records) for every world target, in world order,
    plus the source pool: the tasks calibration tunes on and run_study scores.
    Refuses records of a target outside the world (UnknownName), then a world
    target without records (BadSpec), before it builds a profile."""
    target_names = world.target_names()
    by_target = group_records_by_target(records)
    foreign = [t for t in by_target if t not in target_names]
    if foreign:
        raise UnknownName(f"records name {foreign[0]!r}, which is not a target of the world")
    missing = [t for t in target_names if t not in by_target]
    if missing:
        raise BadSpec(f"the records hold no run onto target {missing[0]!r}")
    sources, targets = build_profiles(world)
    return [(targets[name], by_target[name]) for name in target_names], sources


# -- studies ------------------------------------------------------------------------


@dataclass
class StudyReport:
    """What a study measures; the method tables derive from the outcomes."""

    seed: int
    estimator: EstimatorConfig
    records: list[ImprovementRecord]
    per_target_rho: dict[str, float]
    outcomes: dict[str, dict[str, MethodOutcome]]  # target -> method -> outcome

    @property
    def mean_rho(self) -> float:
        return float(np.mean(list(self.per_target_rho.values())))

    @property
    def selections(self) -> dict[str, dict[str, str | None]]:
        """method -> target -> source; None for no transfer (B4)."""
        return {m: {t: o[m].selection for t, o in self.outcomes.items()}
                for m in next(iter(self.outcomes.values()))}

    @property
    def mean_accuracy(self) -> dict[str, float]:
        return {m: float(np.mean([o[m].perf for o in self.outcomes.values()]))
                for m in next(iter(self.outcomes.values()))}

    @property
    def picks(self) -> dict[str, dict[str, int]]:
        """method -> target -> position, for the methods that rank (not B4)."""
        first = next(iter(self.outcomes.values()))
        return {m: {t: o[m].picks_to_best for t, o in self.outcomes.items()}
                for m, outcome in first.items() if outcome.picks_to_best is not None}

    @property
    def hit_rate(self) -> dict[str, float]:
        return {m: float(np.mean([p == 1 for p in picks.values()]))
                for m, picks in self.picks.items()}

    @property
    def mean_picks(self) -> dict[str, float]:
        return {m: float(np.mean(list(picks.values()))) for m, picks in self.picks.items()}


def check_study_size(n_sources: int, n_targets: int) -> None:
    """Refuse a study, or the default world it would run on, with too few
    sources to calibrate or too few targets to compare; it trains nothing."""
    _check_world_size(n_sources, n_targets)
    if n_sources < 3:
        raise BadSpec("study needs at least three source domains")
    if n_targets < 2:
        raise BadSpec("study needs at least two targets")


def run_study(world: OracleWorld, cfg: OracleConfig,
              estimator_cfg: EstimatorConfig,
              records: Sequence[ImprovementRecord]) -> StudyReport:
    """Score every target against every source and compare selection methods.

    The records are ground_truth(world, cfg), for every target of the world
    and no other; the tasks are calibration_tasks', which refuses any other
    records before a profile is built. Emits per-target rank correlation
    between scores and improvements, and each method's (P2L, B1, B4, B5)
    outcome per target, from which the report derives its method tables.
    """
    check_study_size(len(world.source_names()), len(world.target_names()))
    records = list(records)
    tasks, sources = calibration_tasks(world, records)
    pool = Shelf.of(sources)

    per_target_rho: dict[str, float] = {}
    outcomes: dict[str, dict[str, MethodOutcome]] = {}
    for target, recs in tasks:
        scored, outcomes[target.name] = compare_methods(target, recs, pool, estimator_cfg)
        escore = {s.source_name: s.score for s in scored}
        per_target_rho[target.name] = float(spearman_or_zero(
            [[escore[r.source_name] for r in recs]], [r.improvement for r in recs])[0])
    return StudyReport(seed=world.seed, estimator=estimator_cfg, records=records,
                       per_target_rho=per_target_rho, outcomes=outcomes)


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
    reference_profile: DatasetProfile
    merged_profile: DatasetProfile
    outcomes: list[MergedOutcome]  # ascending divergence from the reference

    @property
    def reference_name(self) -> str:
        return self.reference_profile.name


def merged_source_study(world: OracleWorld, cfg: OracleConfig) -> MergedStudyReport:
    """Does pooling every source beat the single reference source?

    Trains one model on the union of all source domains and one on the
    reference domain alone, fine-tunes both on every target, and reports
    wins ordered by the target's divergence from the reference. Merging
    grows size but also grows divergence, so the reference tends to keep
    near targets while the merged model takes far ones. The reference is
    the largest source.
    """
    source_names = world.source_names()
    if len(source_names) < 3:
        raise BadSpec("merged study needs the reference plus at least two others")
    reference = max(source_names, key=lambda n: (world.domain(n).source_train.items, n))
    est = EstimatorConfig()

    source_profiles, target_profiles = build_profiles(world)
    ref_profile = next(p for p in source_profiles if p.name == reference)
    merged_profile = merge_profiles(source_profiles, name="merged")

    ref_model, merged_model = _train_models(
        world, cfg, [((reference,), ("source", reference)),
                     (source_names, ("pooled", "merged"))])

    # The target family spans every domain's target split, the reference's
    # own included, so divergence from the reference covers near to far.
    targets = [d.spec.name for d in world.domains]
    fits = _fit_targets(world, cfg, targets,
                        [(reference, ref_model), ("merged", merged_model)])
    outcomes = []
    for target, (perf_ref, perf_merged) in zip(targets, fits):
        scored = score_sources(target_profiles[target],
                               [ref_profile, merged_profile], est)
        div = next(s.distance_value for s in scored if s.source_name == reference)
        outcomes.append(MergedOutcome(
            target_name=target, divergence_from_reference=div,
            perf_reference=perf_ref, perf_merged=perf_merged,
            predicted=scored[0].source_name))
    outcomes.sort(key=lambda o: (o.divergence_from_reference, o.target_name))
    return MergedStudyReport(seed=world.seed, reference_profile=ref_profile,
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

    write_lines(outdir / "selections.csv", selection_lines(study.outcomes))

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
