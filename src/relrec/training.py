"""Joint training of the three staged losses with shared parameters,
plus a finite-difference gradient checker.

Each epoch makes one shuffled pass over the labeled pairs; every step
runs, in order, (a) an association-recall step on a sampled entity
batch, (b) a relational step on a sampled batch of (reverse-augmented)
triples, and (c) a prediction step on the next slice of labeled pairs.
All three stages update the same entity embeddings through one Adam
state; the relation table is shared by stages (b) and (c).  Early
stopping tracks dev F1 with a patience window and the parameters of the
best dev epoch are returned (latest epoch on ties).

The prediction step and scoring without gradients (dev evaluation,
`relrec evaluate` through `predict_probabilities`) share one chunker,
`_grid_chunks`: each distinct entity of the pairs is recalled once, and
the queries go in chunks, each chunk's association grids stacked into
one pair set.  Scoring runs one forward per chunk
(`rationale.stacked_forward`); the prediction step runs that forward,
one `bce_loss` over the chunk and one backward over its stacked pairs
(`rationale.prediction_backward`).  A chunk holds as many queries as
keep its (Q * P, d_p) and (Q * P, d_a) temporaries within about 1 MiB,
the residual grid's block size: 4 queries at quickstart dims
(P = 16 x 16, d = 32), 1 at large dims (P = 32 x 32, d = 128), where
nothing is stacked.

Scoring takes another path when the queries share their associations.
Their association table, every pair of a distinct head-side with a
distinct tail-side association entity, can hold fewer pairs than their
stacked grids: 0.30 of them for the 720 benchmark queries of the
quickstart model at seed 1.  Then each table pair is scored once, down
to its attention logit l and g = pair_repr . out_weight, and each query
takes sigmoid(softmax(l) . g + out_bias) over its grid's cells of the
table (`_table_probabilities`).  The logistic head is linear in the
pooled vector, so this is exact algebra.  A table is taken at most
0.9 times the grids' pairs, the measured crossover of the two paths,
and is capped at 2 MiB: past it the queries go in groups, each with its
own table (`_table_groups`).  Both paths work in blocks of about 1 MiB,
so memory does not grow with the number of pairs.

When each chunk is a single query (large dims) and the process may use
more than one CPU, `joint_train` keeps a second lane, one worker thread,
for the whole call (`_prediction_lane`).  The prediction step runs
chunks 0, 2, 4, ... on the calling thread and chunks 1, 3, 5, ... on the
lane, each chunk's forward and backward on one thread, since the signs
the forward keeps for the backward are per thread (`_in_lanes`).  The
backward returns its entity rows rather than adding them, and the
calling thread applies every chunk's probabilities, loss, gradients and
entity rows in chunk order, so the updates stay synchronous (no
Hogwild-style shared writes) and the bytes are those of one lane.  Dev
evaluation spreads its chunks the same way.  A chunk of several queries
(quickstart dims) runs on one lane: a second thread gave no gain there.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .evaluation import f1_score
from .graph import CoocGraph, DataError, PpmiMatrix
from .params import (
    AdamState,
    ModelDims,
    ModelParams,
    accumulate_grads,
    adam_step,
    init_params,
)
from .rationale import (
    prediction_backward,
    prediction_forward,
    score_table,
    stack_grids,
    stacked_forward,
    table_probabilities,
)
from .recall import recall_loss, top_associations
from .relational import (
    _GRID_BLOCK_BYTES,
    Distinct,
    LabeledPair,
    RelationSchema,
    TripleSet,
    _scratch,
    relational_loss,
)

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """A training loss became non-finite."""


@dataclass
class TrainConfig:
    """Hyperparameters for joint training.

    d is the width of every embedding and projection (the model is
    square: `ModelDims.square`).  n_assoc is the association count of
    both the head and the tail side.  The three batch sizes b1/b2/b3
    feed the recall, relational, and prediction stages respectively.
    Adam takes lr from here and its β1, β2 and ε from `AdamState`, whose
    defaults are those of Kingma & Ba (2015).  Losses are computed in
    float64 by default ("float32" is accepted for the dtype).  Every
    epoch runs all three stages, and the relation posterior always has
    the NA row in its normalizer; neither is a setting.
    """

    d: int = 128
    n_neg: int = 100
    n_assoc: int = 32
    lr: float = 1e-3
    b1: int = 256
    b2: int = 256
    b3: int = 256
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("d", "n_neg", "n_assoc", "b1", "b2", "b3", "max_epochs",
                     "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(
                f"config field lr must be a positive finite number, got {self.lr}"
            )
        if np.dtype(self.dtype) not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("dtype must be float64 or float32")

    def dims(self, n_rel: int) -> ModelDims:
        return ModelDims.square(self.d, n_rel)

    def to_dict(self) -> dict:
        return asdict(self)


def bce_loss(
    probabilities: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Summed binary cross entropy and its gradient with respect to the
    underlying logits (probability - label).  Probabilities are clamped
    to [1e-12, 1 - 1e-12] inside the logarithms only."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels must have the same shape")
    clamped = np.clip(p, 1e-12, 1.0 - 1e-12)
    loss = float(-(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)).sum())
    return loss, p - y


def prediction_loss(
    params: ModelParams,
    pairs: list[LabeledPair],
    n_head: int,
    n_tail: int,
    *,
    structures: list | None = None,
    lane: ThreadPoolExecutor | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Binary cross entropy of the full pipeline over a pair batch, with
    analytic gradients.  Returns (loss, grads, probabilities).

    The queries go in chunks (`_grid_chunks`), each one stacked forward
    and one backward on one thread (`_chunk_step`).  A chunk's entity
    gradient touches only its association rows, which are added into one
    dense batch gradient.  With a `lane` (`_prediction_lane`), chunks 1,
    3, 5, ... run on its thread while this one runs chunks 0, 2, 4, ....
    Either way each chunk's probabilities, loss, gradients and entity
    rows are applied here in chunk order, so the results have the same
    bytes with or without the lane.  `structures`, one frozen grid
    structure per pair, fixes the pair and survivor sets (see
    `grad_check`)."""
    if not pairs:
        raise ValueError("empty pair batch")
    labels = np.array([float(p.label) for p in pairs])
    entity_grad = np.zeros_like(params.entity_emb)
    grads: dict[str, np.ndarray] = {"entity_emb": entity_grad}
    probs = np.empty(len(pairs), dtype=np.float64)
    loss = 0.0
    if structures is None:
        heads, tails = _recall_grids(params, pairs, n_head, n_tail)
        survivors = None
    else:
        heads, tails = (np.stack([s.grid[k][0] for s in structures]) for k in (0, 1))
        survivors = [s.survivors for s in structures]

    def labeled_chunks():
        lo = 0
        for structure in _grid_chunks(params, heads, tails, survivors):
            hi = lo + len(structure.grid[0])
            yield structure, labels[lo:hi]
            lo = hi

    lo = 0
    for chunk_probs, chunk_loss, chunk_grads in _in_lanes(
        lambda chunk: _chunk_step(params, *chunk), labeled_chunks(), lane
    ):
        hi = lo + len(chunk_probs)
        probs[lo:hi] = chunk_probs
        loss += chunk_loss
        chunk_grads.pop("entity_emb").add_to(entity_grad)
        accumulate_grads(grads, chunk_grads)
        lo = hi
    return loss, grads, probs


def _chunk_step(
    params: ModelParams, structure, labels: np.ndarray
) -> tuple[np.ndarray, float, dict]:
    """One chunk of the prediction step: its stacked forward, loss and
    backward, on this thread, whose sign buffer carries the signs from
    the forward to the backward.  Returns the probabilities, the loss
    and the gradients, with the entity gradient as rows (`EntityRows`)."""
    trace = stacked_forward(params, structure, signs=True)
    loss, dlogits = bce_loss(trace.probability, labels)
    return (
        trace.probability,
        loss,
        prediction_backward(params, trace, dlogits, sparse=True),
    )


def _in_lanes(fn, items, lane: ThreadPoolExecutor | None):
    """fn(item) of each item, yielded in order.  With a `lane`, a
    one-thread executor, items 1, 3, 5, ... run on its thread while items
    0, 2, 4, ... run on this one, so at most two are in flight."""
    if lane is None:
        yield from map(fn, items)
        return
    items = iter(items)
    for item in items:
        follower = next(items, None)
        pending = None if follower is None else lane.submit(fn, follower)
        yield fn(item)
        if pending is not None:
            yield pending.result()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _prediction_lane(params: ModelParams, n_pairs: int):
    """A context giving the prediction step's second lane, a one-thread
    executor, or None.  A lane is given when each chunk is a single query
    (`_chunk_queries` of its `n_pairs` pairs is 1), whose long numpy
    calls leave the GIL free for a second thread, and this process may
    use more than one CPU.  At quickstart dims, 4 queries share a chunk,
    and a second thread gave no gain there (see CHANGES.md)."""
    if _usable_cpus() > 1 and _chunk_queries(params, n_pairs) == 1:
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="relrec-lane")
    return contextlib.nullcontext()


@dataclass
class EpochLog:
    epoch: int
    loss_recall: float
    loss_relational: float
    loss_prediction: float
    dev_precision: float
    dev_recall: float
    dev_f1: float
    wall_seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    state: AdamState
    log: list[EpochLog]
    best_epoch: int
    best_dev_f1: float
    epochs_run: int


LOG_COLUMNS = (
    "epoch",
    "L_n",
    "L_r",
    "L_p",
    "dev_precision",
    "dev_recall",
    "dev_F1",
    "wall_seconds",
)


def write_training_log(log: list[EpochLog], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow([row.epoch, *map(repr, astuple(row)[1:])])


def _check_finite(loss: float, stage: str, epoch: int) -> None:
    if not math.isfinite(loss):
        raise TrainingDivergedError(
            f"{stage} loss became non-finite ({loss}) in epoch {epoch}"
        )


def predict_probabilities(
    params: ModelParams,
    pairs: list[LabeledPair],
    n_head: int,
    n_tail: int,
    *,
    threads: int = 1,
    lane: ThreadPoolExecutor | None = None,
) -> np.ndarray:
    """The model's probability for each pair, equal to its
    `prediction_forward(...).probability` to rounding.

    Each distinct entity is recalled once.  The queries go in groups
    (`_table_groups`).  A group whose association table (its distinct
    head-side by its distinct tail-side association entities) has at
    most 0.9 times the pairs of its stacked grids is scored through the
    table: each table pair once, then each query from its cells
    (`_table_probabilities`).  The other queries are scored in the chunks
    of `_grid_chunks`, each chunk one forward over its stacked
    association grids.  With `threads` > 1 the table's blocks and the
    chunks are spread over that many threads; with a `lane` (training's
    dev evaluation) every second one runs on the lane's thread, as in
    `prediction_loss`.  The blocks and chunks are the same either way,
    and so are the results.
    """
    if not pairs:
        return np.empty(0, dtype=np.float64)
    heads, tails = _recall_grids(params, pairs, n_head, n_tail)
    probs = np.empty(len(pairs), dtype=np.float64)
    in_chunks = np.ones(len(pairs), dtype=bool)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    with pool or contextlib.nullcontext():
        mapper = functools.partial(_in_lanes, lane=lane)
        if pool is not None:
            mapper = pool.map
        for group, table in _table_groups(params, heads, tails):
            if table is not None:
                probs[group] = _table_probabilities(
                    params, heads[group], tails[group], *table, mapper
                )
                in_chunks[group] = False
        if in_chunks.any():
            chunks = _grid_chunks(params, heads[in_chunks], tails[in_chunks])
            probs[in_chunks] = np.concatenate(
                list(mapper(lambda s: stacked_forward(params, s).probability, chunks))
            )
    return probs


def _recall_grids(
    params: ModelParams, pairs: list[LabeledPair], n_head: int, n_tail: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (Q, n_head) head and (Q, n_tail) tail association entity ids
    of the pairs, each distinct entity recalled once.  Every list holds
    min(n, V - 1) entities, so all grids have one shape."""
    # The top n of an entity are the first n of its top max(n_head, n_tail).
    n_max = max(n_head, n_tail)
    recalled = {
        e: top_associations(params, e, n_max).entity_ids
        for e in {p.head for p in pairs} | {p.tail for p in pairs}
    }
    return (
        np.stack([recalled[p.head][:n_head] for p in pairs]),
        np.stack([recalled[p.tail][:n_tail] for p in pairs]),
    )


def _grid_chunks(
    params: ModelParams,
    heads: np.ndarray,
    tails: np.ndarray,
    survivors: list | None = None,
):
    """The association grids of (Q, n_head) heads and (Q, n_tail) tails,
    Q queries at a time (`_chunk_queries`), each chunk stacked into one
    structure (`rationale.stack_grids`).  `survivors`, one frozen survivor
    set per query, is stacked with them."""
    chunk = _chunk_queries(params, heads.shape[1] * tails.shape[1])
    for lo in range(0, len(heads), chunk):
        frozen = None
        if survivors is not None:
            frozen = np.concatenate(survivors[lo : lo + chunk])
        yield stack_grids(heads[lo : lo + chunk], tails[lo : lo + chunk], frozen)


# The association table is taken when its pairs are at most this share of
# the stacked grids' pairs: past it the chunk path is faster (the crossover
# measured in CHANGES.md).
_TABLE_CROSSOVER = 0.9

# Bytes of a table's attention logits and values (two per pair), held in
# the thread's table buffer.  A larger table is split: the queries go in
# groups, each with its own table.  2 MiB holds a 362 x 362 table in
# float64.  (At 1 MiB, a call of 720 pairs at 16 associations whose table
# had 77,406 pairs, 0.42 of its grids, fell to the chunks: each group cut
# at the cap reached it within too few queries to pay.)
_TABLE_BYTES = 2 << 20


def _distinct_prefix(ids: np.ndarray) -> tuple[Distinct, np.ndarray]:
    """The distinct ids of the (Q, n) array `ids`, with each entry's index
    into them, and for each q the number of distinct ids in rows 0..q."""
    distinct = Distinct(*np.unique(ids, return_inverse=True))
    first = np.full(len(distinct.ids), ids.size)
    np.minimum.at(first, distinct.inverse.ravel(), np.arange(ids.size))
    counts = np.bincount(first // ids.shape[1], minlength=len(ids))
    return distinct, np.cumsum(counts)


def _table_groups(params: ModelParams, heads: np.ndarray, tails: np.ndarray):
    """Consecutive groups of the queries, as slices, each with its table
    or None.  Each group is the longest run of queries, from where the
    last one ended, whose table of distinct head-side x distinct tail-side
    association entities fits in `_TABLE_BYTES`, and at least one query.
    Its table, the distinct head and tail entities (`Distinct`, their
    inverse over the group's (Q, n) ids), is given when it has at most
    `_TABLE_CROSSOVER` times the pairs of the group's grids, else None.
    A lone query's table is its grid, so it is never taken."""
    max_pairs = _TABLE_BYTES // (2 * params.dtype.itemsize)
    grid_pairs = heads.shape[1] * tails.shape[1]
    lo = 0
    while lo < len(heads):
        # Table sizes of the first 1, 2, ... queries from lo, over a window
        # that doubles until the cap is passed or the queries run out.
        width = 16
        while True:
            hi = min(lo + width, len(heads))
            (head_ids, head_counts), (tail_ids, tail_counts) = (
                _distinct_prefix(side[lo:hi]) for side in (heads, tails)
            )
            sizes = head_counts * tail_counts
            if sizes[-1] > max_pairs or hi == len(heads):
                break
            width *= 2
        n = max(1, int(np.searchsorted(sizes, max_pairs, side="right")))
        group = slice(lo, lo + n)
        table = None
        if sizes[n - 1] <= _TABLE_CROSSOVER * n * grid_pairs:
            if lo + n < hi:  # the group ends inside the window
                head_ids, tail_ids = (
                    _distinct_prefix(side[group])[0] for side in (heads, tails)
                )
            table = head_ids, tail_ids
        yield group, table
        lo += n


def _table_probabilities(
    params: ModelParams,
    heads: np.ndarray,
    tails: np.ndarray,
    table_heads: Distinct,
    table_tails: Distinct,
    mapper=map,
) -> np.ndarray:
    """The probabilities of the queries with (Q, n_head) heads and
    (Q, n_tail) tails, through their association table table_heads x
    table_tails: the table is scored in blocks of rows
    (`rationale.score_table`) into this thread's table buffer; then each
    block of queries takes its grids' cells of the table
    (`rationale.table_probabilities`), so no (Q, P) array of the whole
    call is held.  `mapper` runs the blocks (`map`, or a thread pool's)."""
    n_rows, n_cols = len(table_heads.ids), len(table_tails.ids)
    n_pairs = heads.shape[1] * tails.shape[1]
    table = _scratch("table", (2, n_rows * n_cols), params.dtype)
    # The table is held beside each block's temporaries.  So a block of
    # rows has half the pairs of a chunk of queries, and a block of
    # queries keeps its six (b, P) arrays (cell indices, gathered logits
    # and values, the softmax's three) within a quarter of a grid block:
    # the call's peak then stays near the chunk path's (see CHANGES.md).
    rows = max(1, _chunk_queries(params, n_pairs) * n_pairs // (2 * n_cols))

    def score_rows(lo):
        hi = min(lo + rows, n_rows)
        score_table(
            params,
            table_heads.ids[lo:hi],
            table_tails.ids,
            table[:, lo * n_cols : hi * n_cols],
        )

    for _ in mapper(score_rows, range(0, n_rows, rows)):
        pass
    # Each query's pair i * n_tail + j is the table cell of its head i
    # and tail j: (row of head i) * n_cols + (column of tail j).
    head_rows = table_heads.inverse.reshape(heads.shape)
    tail_cols = table_tails.inverse.reshape(tails.shape)
    step = max(1, _GRID_BLOCK_BYTES // (4 * 6 * 8 * n_pairs))

    def pool_queries(lo):
        cells = head_rows[lo : lo + step, :, None] * n_cols
        cells = (cells + tail_cols[lo : lo + step, None, :]).reshape(-1, n_pairs)
        return table_probabilities(params, table[0][cells], table[1][cells])

    return np.concatenate(list(mapper(pool_queries, range(0, len(heads), step))))


def _chunk_queries(params: ModelParams, n_pairs: int) -> int:
    """Queries per chunk of `n_pairs` pairs each: as many as keep the
    chunk's pair-set temporaries within one residual grid block's bytes,
    and at least one.  The pair projection holds up to three
    (Q * n_pairs, d_p) arrays at once (assumption block, gathered head
    and tail rows), and the attention adds a (Q * n_pairs, d_a) hidden
    layer.  At quickstart dims that is 4 queries, at large dims 1.

    The training step holds more: the (Q * n_pairs, n_rel + 1, d) sign
    grid, 1.3 MiB at 4 quickstart queries, in a per-thread buffer reused
    from chunk to chunk, which its forward fills block by block for the
    backward.  (Measured per pair, a quickstart training step took 1.4x
    longer at 1 query than at 4, and 7% longer at 3; at large dims 2
    queries were slower than 1.  See CHANGES.md.)"""
    dims = params.dims
    per_query = n_pairs * (3 * dims.d_p + dims.d_a) * params.dtype.itemsize
    return max(1, _GRID_BLOCK_BYTES // per_query)


def joint_train(
    graph: CoocGraph,
    ppmi: PpmiMatrix,
    triples: TripleSet,
    train_pairs: list[LabeledPair],
    dev_pairs: list[LabeledPair],
    config: TrainConfig,
    schema: RelationSchema,
) -> TrainResult:
    """Train the shared parameters with the three staged losses.

    Preconditions: at least one entity has PPMI support, the triple set
    is nonempty, and train and dev pairs are nonempty and target a
    single relation.
    """
    rng = np.random.default_rng(config.seed)
    dims = config.dims(schema.n_rel)
    dtype = np.dtype(config.dtype)
    params = init_params(dims, len(graph.vocab), seed=config.seed, dtype=dtype)
    state = AdamState.for_params(params, lr=config.lr)

    support = ppmi.entities_with_support()
    if len(support) == 0:
        raise DataError("no entity has PPMI support")
    augmented = triples.augment_reverse(schema.n_rel)
    if len(augmented) == 0:
        raise DataError("the triple set is empty")
    augmented_ids = np.asarray(augmented.triples, dtype=np.int64).reshape(-1, 3)
    if not train_pairs or not dev_pairs:
        raise DataError("train and dev pairs are required")
    target_relations = {p.relation for p in train_pairs} | {
        p.relation for p in dev_pairs
    }
    if len(target_relations) != 1:
        raise DataError(
            "labeled pairs must target a single relation, got "
            f"{sorted(target_relations)}"
        )

    steps_per_epoch = math.ceil(len(train_pairs) / config.b3)
    dev_labels = np.array([p.label for p in dev_pairs], dtype=np.float64)
    log: list[EpochLog] = []
    # Dev F1 is never below 0, so epoch 1 is always kept and the first
    # copies are taken there.
    best_params: ModelParams | None = None
    best_state: AdamState | None = None
    best_epoch = 0
    best_f1 = -1.0
    stall = 0
    epochs_run = 0

    # The association grids are min(n_assoc, V - 1) entities a side.
    n_pairs = min(config.n_assoc, params.vocab_size - 1) ** 2
    with _prediction_lane(params, n_pairs) as lane:
        for epoch in range(1, config.max_epochs + 1):
            start = time.perf_counter()
            epochs_run = epoch
            order = rng.permutation(len(train_pairs))
            sums = {"recall": 0.0, "relational": 0.0, "prediction": 0.0}
            for step in range(steps_per_epoch):
                batch = rng.choice(
                    support, size=min(config.b1, len(support)), replace=False
                )
                loss, grads = recall_loss(params, ppmi, batch)
                _check_finite(loss, "recall", epoch)
                adam_step(params, grads, state)
                sums["recall"] += loss / len(batch)

                idx = rng.choice(
                    len(augmented), size=min(config.b2, len(augmented)), replace=False
                )
                batch_triples = augmented_ids[idx]
                corruption_seed = int(rng.integers(0, 2**63 - 1))
                loss, grads = relational_loss(
                    params, batch_triples, config.n_neg, seed=corruption_seed
                )
                _check_finite(loss, "relational", epoch)
                adam_step(params, grads, state)
                sums["relational"] += loss / len(batch_triples)

                sl = order[step * config.b3 : (step + 1) * config.b3]
                batch_pairs = [train_pairs[i] for i in sl]
                loss, grads, _ = prediction_loss(
                    params, batch_pairs, config.n_assoc, config.n_assoc, lane=lane
                )
                _check_finite(loss, "prediction", epoch)
                adam_step(params, grads, state)
                sums["prediction"] += loss / len(batch_pairs)

            dev_probs = predict_probabilities(
                params, dev_pairs, config.n_assoc, config.n_assoc, lane=lane
            )
            dev_precision, dev_recall, dev_f1 = f1_score(dev_probs, dev_labels)
            log.append(
                EpochLog(
                    epoch=epoch,
                    loss_recall=sums["recall"] / steps_per_epoch,
                    loss_relational=sums["relational"] / steps_per_epoch,
                    loss_prediction=sums["prediction"] / steps_per_epoch,
                    dev_precision=dev_precision,
                    dev_recall=dev_recall,
                    dev_f1=dev_f1,
                    wall_seconds=time.perf_counter() - start,
                )
            )
            logger.info(
                "epoch %d: L_n=%.4f L_r=%.4f L_p=%.4f dev_f1=%.4f",
                epoch,
                log[-1].loss_recall,
                log[-1].loss_relational,
                log[-1].loss_prediction,
                dev_f1,
            )
            # Patience counts epochs since the last strict improvement.
            stall = 0 if dev_f1 > best_f1 else stall + 1
            if dev_f1 >= best_f1:
                # On ties, prefer the later epoch: the dev metric often
                # saturates while the relation geometry is still
                # sharpening, and the fresher parameters rationalize
                # better at identical dev F1.
                best_f1 = dev_f1
                best_epoch = epoch
                best_params = params.copy()
                best_state = state.copy()
            if stall >= config.patience:
                logger.info(
                    "early stop at epoch %d (best dev F1 %.4f at epoch %d)",
                    epoch,
                    best_f1,
                    best_epoch,
                )
                break

    return TrainResult(
        params=best_params,
        state=best_state,
        log=log,
        best_epoch=best_epoch,
        best_dev_f1=best_f1,
        epochs_run=epochs_run,
    )


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckResult:
    loss_name: str
    errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def format(self) -> str:
        worst = max(self.errors, key=self.errors.get) if self.errors else "-"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.loss_name}: {status} max_rel_err={self.max_error:.3e} "
            f"(worst tensor: {worst}, tolerance {self.tolerance:.0e})"
        )


def finite_difference_grads(
    loss_fn, params: ModelParams, step: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn(params) for every tensor.
    Perturbs entries in place and restores them exactly."""
    grads = {}
    for name, tensor in params.tensors().items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn(params)
            flat[i] = original - step
            down = loss_fn(params)
            flat[i] = original
            flat_grad[i] = (up - down) / (2.0 * step)
        grads[name] = grad
    return grads


def grad_errors(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]
) -> dict[str, float]:
    """Per-tensor maximum scaled difference |a - n| / max(1, |a|, |n|).
    Tensors missing from the analytic dict are treated as all zero."""
    errors = {}
    for name, num in numeric.items():
        ana = analytic.get(name)
        if ana is None:
            ana = np.zeros_like(num)
        scale = np.maximum(1.0, np.maximum(np.abs(ana), np.abs(num)))
        errors[name] = float((np.abs(ana - num) / scale).max()) if num.size else 0.0
    return errors


def _gradcheck_instance(vocab_size: int, d: int, n_rel: int, seed: int):
    """A small random world rich enough to exercise every code path."""
    from .graph import CoocGraph, Vocab, compute_ppmi

    rng = np.random.default_rng(seed)
    dims = ModelDims(d=d, d_p=d, d_a=d, n_rel=n_rel)
    params = init_params(dims, vocab_size, seed=seed)
    for tensor in params.tensors().values():
        tensor[...] = rng.normal(0.0, 0.4, size=tensor.shape)

    vocab = Vocab([f"t{i}" for i in range(vocab_size)])
    counts: dict[tuple[int, int], int] = {}
    for i in range(vocab_size):
        j = (i + 1) % vocab_size
        key = (i, j) if i < j else (j, i)
        counts[key] = int(rng.integers(1, 6))
    for _ in range(vocab_size):
        i, j = rng.choice(vocab_size, size=2, replace=False)
        key = (int(min(i, j)), int(max(i, j)))
        counts[key] = counts.get(key, 0) + int(rng.integers(1, 6))
    graph = CoocGraph.from_counts(vocab, counts)
    ppmi = compute_ppmi(graph)

    triples = []
    for _ in range(3):
        h, t = rng.choice(vocab_size, size=2, replace=False)
        r = int(rng.integers(0, n_rel))
        triples.append((int(h), r, int(t)))
    triple_set = TripleSet(triples=triples).augment_reverse(n_rel)

    pairs = []
    for label in (1, 0, 1):
        h, t = rng.choice(vocab_size, size=2, replace=False)
        pairs.append(LabeledPair(head=int(h), tail=int(t), label=label, relation=0))
    return params, ppmi, triple_set, pairs


def grad_check(
    losses: tuple[str, ...] = ("recall", "relational", "prediction"),
    *,
    vocab_size: int = 12,
    d: int = 4,
    n_rel: int = 3,
    n_assoc: int = 2,
    n_neg: int = 5,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 7,
) -> list[GradCheckResult]:
    """Compare the analytic gradients of the selected losses against
    central finite differences on a small random instance.

    For the prediction loss, association lists and survivor sets are
    captured once at the base parameters and frozen, so the finite
    differences probe exactly the smooth function that the analytic
    backward pass differentiates.  The frozen grids go through the
    batched step that training runs, stacked in chunks of several
    queries.
    """
    params, ppmi, triple_set, pairs = _gradcheck_instance(
        vocab_size, d, n_rel, seed
    )
    results = []
    for loss_name in losses:
        if loss_name == "recall":
            batch = ppmi.entities_with_support()[:8]

            def loss_fn(p, batch=batch):
                return recall_loss(p, ppmi, batch)[0]

            analytic = recall_loss(params, ppmi, batch)[1]
        elif loss_name == "relational":
            batch_triples = triple_set.triples

            def loss_fn(p, batch_triples=batch_triples):
                return relational_loss(p, batch_triples, n_neg, seed=seed)[0]

            analytic = relational_loss(params, batch_triples, n_neg, seed=seed)[1]
        elif loss_name == "prediction":
            structures = [
                prediction_forward(
                    params, pair.head, pair.tail, n_assoc, n_assoc
                ).structure
                for pair in pairs
            ]

            def loss_fn(p, structures=structures):
                return prediction_loss(
                    p, pairs, n_assoc, n_assoc, structures=structures
                )[0]

            analytic = prediction_loss(
                params, pairs, n_assoc, n_assoc, structures=structures
            )[1]
        else:
            raise ValueError(f"unknown loss {loss_name!r}")
        numeric = finite_difference_grads(loss_fn, params, step=step)
        results.append(
            GradCheckResult(
                loss_name=loss_name,
                errors=grad_errors(analytic, numeric),
                tolerance=tolerance,
            )
        )
    return results
