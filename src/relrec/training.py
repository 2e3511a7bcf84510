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
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .evaluation import f1_score
from .graph import CoocGraph, PpmiMatrix
from .params import (
    AdamState,
    ModelDims,
    ModelParams,
    accumulate_grads,
    adam_step,
    init_params,
)
from .rationale import prediction_backward, prediction_forward
from .recall import recall_loss
from .relational import LabeledPair, RelationSchema, TripleSet, relational_loss

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
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Binary cross entropy of the full pipeline over a pair batch, with
    analytic gradients.  Returns (loss, grads, probabilities)."""
    if not pairs:
        raise ValueError("empty pair batch")
    grads: dict[str, np.ndarray] = {}
    probs = np.empty(len(pairs), dtype=np.float64)
    loss = 0.0
    for i, pair in enumerate(pairs):
        trace = prediction_forward(
            params,
            pair.head,
            pair.tail,
            n_head,
            n_tail,
            structure=None if structures is None else structures[i],
        )
        probs[i] = trace.probability
        sample_loss, dlogit = bce_loss(
            np.array([trace.probability]), np.array([float(pair.label)])
        )
        loss += sample_loss
        accumulate_grads(grads, prediction_backward(params, trace, float(dlogit[0])))
    return loss, grads, probs


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
) -> np.ndarray:
    probs = np.empty(len(pairs), dtype=np.float64)
    for i, pair in enumerate(pairs):
        probs[i] = prediction_forward(
            params, pair.head, pair.tail, n_head, n_tail
        ).probability
    return probs


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
        raise ValueError("no entity has PPMI support")
    augmented = triples.augment_reverse(schema.n_rel)
    if len(augmented) == 0:
        raise ValueError("the triple set is empty")
    augmented_ids = np.asarray(augmented.triples, dtype=np.int64).reshape(-1, 3)
    if not train_pairs or not dev_pairs:
        raise ValueError("train and dev pairs are required")
    target_relations = {p.relation for p in train_pairs} | {
        p.relation for p in dev_pairs
    }
    if len(target_relations) != 1:
        raise ValueError(
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
                params, batch_pairs, config.n_assoc, config.n_assoc
            )
            _check_finite(loss, "prediction", epoch)
            adam_step(params, grads, state)
            sums["prediction"] += loss / len(batch_pairs)

        dev_probs = predict_probabilities(
            params, dev_pairs, config.n_assoc, config.n_assoc
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
    backward pass differentiates.
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
