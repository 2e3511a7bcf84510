"""Association recall: a learned conditional distribution over the whole
vocabulary, trained to match each entity's normalized PPMI row.

The model scores every candidate j for a given entity i by the dot
product of j's output-side (context) embedding with i's entity embedding
and normalizes with a full softmax.  The training loss is the cross
entropy between that softmax and the empirical association distribution,
summed over batch entities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PpmiMatrix
from .numerics import stable_softmax
from .params import ModelParams


@dataclass
class AssociationList:
    """Top associations of one entity, strongest first.  The entity
    itself is excluded; ties break toward the smaller entity id, and NaN
    probabilities come last.  The top n are selected by partition, not by
    a full sort of the vocabulary, and are exactly the first n of a stable
    argsort of the negated probabilities."""

    entity: int
    entity_ids: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.entity_ids)

    def __iter__(self):
        return zip(self.entity_ids.tolist(), self.probabilities.tolist())


def association_probability(params: ModelParams, entity: int) -> np.ndarray:
    """p(. | entity): full softmax over the vocabulary."""
    logits = params.context_emb @ params.entity_emb[entity]
    return stable_softmax(logits)


def top_associations(params: ModelParams, entity: int, n: int) -> AssociationList:
    if n < 1:
        raise ValueError("association count must be >= 1")
    probs = association_probability(params, entity)
    keys = -probs
    if n + 1 < len(keys):
        # With the entity left out, the top n all have keys at or below
        # the (n + 1)-th smallest key.  Ties at that value are all kept
        # here and cut by id below.  A NaN threshold (fewer than n + 1
        # non-NaN keys) keeps every entity, since nothing compares above it.
        threshold = np.partition(keys, n)[n]
        candidates = np.flatnonzero(~(keys > threshold))
    else:
        candidates = np.arange(len(keys))
    candidates = candidates[candidates != entity]
    # Descending probability, ties by ascending id, NaN last: the order of
    # a stable argsort of the keys.
    ids = candidates[np.lexsort((candidates, keys[candidates]))[:n]]
    return AssociationList(entity=entity, entity_ids=ids, probabilities=probs[ids])


def recall_loss(
    params: ModelParams, ppmi: PpmiMatrix, batch: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Cross entropy against the empirical association distribution,
    summed over the batch, with analytic gradients.

    For one entity with empirical distribution q over its positive-PPMI
    neighbors, loss = -sum_j q_j * ln softmax(logits)_j and the logit
    gradient is softmax(logits) - q (q is zero off-support).  Every batch
    entity must have a nonempty support row.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.ndim != 1 or len(batch) == 0:
        raise ValueError("batch must be a nonempty 1-d array of entity ids")
    # The log-softmax of each row and its exp in two (B, V) arrays: the
    # logits are shifted by their maximum and then by the log of their
    # exps' sum in place.
    log_probs = params.entity_emb[batch] @ params.context_emb.T  # (B, V) logits
    log_probs -= log_probs.max(axis=1, keepdims=True)
    delta = np.exp(log_probs)
    log_probs -= np.log(delta.sum(axis=1, keepdims=True))
    np.exp(log_probs, out=delta)  # becomes dL/dlogits after target subtraction
    loss = 0.0
    for row, entity in enumerate(batch):
        ids, vals = ppmi.row(int(entity))
        if len(ids) == 0:
            raise ValueError(
                f"entity {int(entity)} has no positive-PPMI neighbors; "
                "filter such entities out of recall batches"
            )
        q = vals / vals.sum()
        loss -= float(q @ log_probs[row, ids])
        delta[row, ids] -= q
    grad_entity = np.zeros_like(params.entity_emb)
    np.add.at(grad_entity, batch, delta @ params.context_emb)
    grad_context = delta.T @ params.entity_emb[batch]
    return loss, {"entity_emb": grad_entity, "context_emb": grad_context}
