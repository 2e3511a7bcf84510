"""Assumption construction, attention aggregation, relation prediction,
and ranked rationale reports.

For a query pair (head, tail) the model recalls the top associations of
each side, scores every cross pair of associations with the thresholded
relation posterior, turns surviving posteriors into an assumption vector
(posterior-weighted mix of forward relation embeddings), embeds each
association pair through a tanh projection, aggregates the pairs with a
learned attention, and applies a logistic head.  Each surviving
(association-head, relation, association-tail) candidate is a rationale
scored by attention weight times posterior probability.

Reports are ranked straight from the forward arrays: the candidates are
the (pair p, relation k) cells of the survivor mask (in CWA, the kb
relations of kb-matched pairs that survived), the score is
attn[p] * posterior[p, k], the target triple itself is excluded, and ties
break by (head id, tail id, relation id).  Report entries are built for
the top_k candidates alone.  `predict_relation` and `extract_rationales`
remain for library callers that want one `AssumptionRecord` per
association pair; they rank those records by the same rule.

The pairs are built from few distinct entities: an n_head x n_tail grid
has only n_head + n_tail.  So the projection of a pair's input
[E[h]; E[t]; a] is split along the three blocks of `pair_weight`:
each distinct head and tail is projected once and gathered per pair,
and the assumption block goes through the rank-n_rel product
posterior @ (R @ W_a).  Likewise, the head + relation part of the L1
residuals head + relation - tail is formed once per distinct head and
kept in the trace as `head_rows`; the (P, n_rel + 1, d) residual grid
itself is never held whole.  The forward streams it through blocks of
about 1 MiB of pairs (gather head rows, subtract tails, abs, sum over d),
and the backward needs the full sign grid for its two matmuls.  The
forward of a training step (`stacked_forward(..., signs=True)`) writes
the signs into the thread's int8 sign buffer as the blocks pass, and the
backward of that trace takes them from there, as float64 one block of
pairs or one relation row at a time.  The backward of any
other trace (a serving forward's, in tests) rebuilds the residuals
block by block.  The element operations and the sum over d are
those of the whole grid, so scores, survivors, posteriors and gradients
are the same bit for bit at any block size, and with signs from the
forward or rebuilt.  The backward pass sums each pair's gradient per
distinct entity once: over an OWA grid (`PredictionStructure.grid`) as
sums along the rows and columns of its n_head x n_tail layout, over an
explicit pair list (CWA, tests) with a 0/1 matmul.  The entity gradient
is non-zero only on those association rows, so `prediction_loss` keeps
one dense batch gradient, and each backward returns its head and tail
rows (`EntityRows`) for the caller to add into it in chunk order.  This
is exact algebra, not an approximation: the scores and survivor sets are
bit-for-bit those of the per-pair form, the rest agrees to rounding.

Signs for the survivor rows alone (the NA row plus about 0.2 of n_rel
per pair at large scale) were tried and not kept: BLAS then sums the
relation gradient over another set of pairs, which moved its last bits,
and the scatter they need made the backward slower.

Many queries go through one forward and one backward: the cross grids
of Q queries, all of one n_head x n_tail shape, are stacked into one pair
set (`stack_grids`) and scored by `stacked_forward`.  The forward has
two halves.  The per-pair half (`_pair_forward`): scores, posteriors,
pair representations and attention logits, run once over the stack,
each distinct entity of the stack projected once.  The per-query half
(`_pool`): the attention softmax and the pooling, over a (Q, P)
reshape, then the logit.  `prediction_backward` takes such a trace and
the Q queries' logit gradients and returns the sum of their gradients:
the tanh slopes, the pair projection, the posterior, the sign grid and
the relation matmuls run once over the stack, the attention softmax
backward per query over (Q, P), and the per-entity sums per query over
a (Q, n_head, n_tail, k) reshape, whose head and tail rows go into the
entity gradient query by query.  `prediction_forward`
and a backward of its trace are the Q = 1 case of the same steps.  The
attention logits, the pooling and their backward take one BLAS product
per query, as a lone query does, so a stacked query's probability and
gradients agree with its own to rounding.  How many queries share a chunk is set
by `training._chunk_queries`.

Scoring without gradients can instead run the per-pair half once over
an association table, every pair of a set of head-side with a set of
tail-side association entities that many queries share (`score_table`),
and keep two numbers per pair: the attention logit l and
g = pair_repr . out_weight.  The logistic head is linear in the pooled
vector, so a query's logit is softmax(l) . g + out_bias over its grid's
cells of the table (`table_probabilities`, the per-query half); it
agrees with the query's own to rounding.  When a table pays is set by
`training._table_groups`.

`prediction_forward` keeps every intermediate needed by
`prediction_backward`, which implements the full analytic gradient of
the pipeline.  Association membership and survivor sets are discrete
selections; they are treated as constants within a gradient step, and a
frozen `PredictionStructure` can be passed back in to evaluate the loss
as the smooth function the gradient differentiates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .graph import Vocab
from .numerics import sigmoid, stable_softmax
from .params import ModelParams
from .recall import AssociationList, top_associations
from .relational import (
    Distinct,
    RelationPosterior,
    RelationSchema,
    TripleSet,
    _posterior_grid,
    _residual_signs,
    _scratch,
)

OWA_MODE = "OWA"
CWA_MODE = "CWA"


@dataclass
class PredictionStructure:
    """Discrete choices of one forward pass: which association pairs were
    formed, and which relations survived the NA threshold for each pair."""

    pair_heads: np.ndarray  # (P,) entity ids
    pair_tails: np.ndarray  # (P,)
    survivors: np.ndarray | None = None  # (P, n_rel) bool; None: not chosen yet
    # For Q stacked full n_head x n_tail grids of association lists in
    # `_cross_grid` order, their (Q, n_head) head and (Q, n_tail) tail
    # ids (`stack_grids`); None for an explicit pair list.
    grid: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class PredictionTrace:
    structure: PredictionStructure
    scores: np.ndarray  # (P, n_rel) forward-relation translation scores
    na_scores: np.ndarray  # (P,)
    head_rows: np.ndarray  # (U_h, n_rel + 1, d) head + relation, distinct heads
    posterior: np.ndarray  # (P, n_rel), exactly zero off-survivors
    na_mass: np.ndarray  # (P,)
    heads: Distinct  # (U_h,) distinct pair heads, (P,) each pair's index
    tails: Distinct  # (U_t,) distinct pair tails, (P,) each pair's index
    pair_reprs: np.ndarray  # (P, d_p)
    attn_hidden: np.ndarray  # (P, d_a) tanh of attention hidden layer
    attn_logits: np.ndarray  # (P,)
    # Per query: (P,), (d_p,) and floats for one query; (Q, P), (Q, d_p)
    # and (Q,) arrays for a stack of Q (`stacked_forward`).
    attn: np.ndarray
    pooled: np.ndarray
    logit: float | np.ndarray
    probability: float | np.ndarray


@dataclass
class AssumptionRecord:
    """One association pair with its surviving-relation posterior, its
    attention weight, and its best-relation rationale score."""

    assoc_head: int
    assoc_tail: int
    top_relation: int | None
    posterior: RelationPosterior
    pair_repr: np.ndarray
    attn: float
    score: float


@dataclass
class RationaleEntry:
    head: str
    relation: str
    tail: str
    score: float
    attn: float
    posterior: float
    head_id: int = field(repr=False, default=-1)
    relation_id: int = field(repr=False, default=-1)
    tail_id: int = field(repr=False, default=-1)


@dataclass
class RationaleReport:
    head: str
    tail: str
    relation: str
    mode: str
    probability: float
    rationales: list[RationaleEntry]
    fallback: bool = False

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "head": self.head,
                "tail": self.tail,
                "relation": self.relation,
                "mode": self.mode,
                "probability": self.probability,
                "fallback": self.fallback,
                "rationales": [
                    {
                        "h": r.head,
                        "r": r.relation,
                        "t": r.tail,
                        "score": r.score,
                        "attn": r.attn,
                        "posterior": r.posterior,
                    }
                    for r in self.rationales
                ],
            }
        )

    def format_table(self) -> str:
        lines = [
            f"pair: {self.head} -[{self.relation}]-> {self.tail}",
            f"mode: {self.mode}"
            + ("  (fallback: no kb-matching pair)" if self.fallback else ""),
            f"probability: {self.probability:.6f}",
        ]
        if not self.rationales:
            lines.append("(no rationales)")
            return "\n".join(lines)
        rows = [("rank", "head", "relation", "tail", "score", "attn", "posterior")]
        for rank, r in enumerate(self.rationales, start=1):
            rows.append(
                (
                    str(rank),
                    r.head,
                    r.relation,
                    r.tail,
                    f"{r.score:.6f}",
                    f"{r.attn:.6f}",
                    f"{r.posterior:.6f}",
                )
            )
        widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def assumption_vector(posterior_probs: np.ndarray, params: ModelParams) -> np.ndarray:
    """Posterior-weighted mix of forward relation embeddings, for one
    posterior or one per row.  An empty survivor set yields the zero
    vector."""
    n_rel = params.dims.n_rel
    return np.asarray(posterior_probs) @ params.relation_emb[:n_rel]


def _pair_projection(
    params: ModelParams,
    heads: Distinct,
    tails: Distinct,
    assum_block: np.ndarray,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """tanh([E[h]; E[t]; a] @ W + b) per pair, each distinct entity
    projected once; `assum_block` holds each pair's a @ W_a.  The head
    rows are gathered per pair.  Over the stacked grids `grid`
    (`stack_grids`) a query's n_tail tail rows are then added to each of
    its heads' blocks by broadcast; over a pair list they are gathered per
    pair too."""
    d, weight = params.dims.d, params.pair_weight
    pre = (params.entity_emb[heads.ids] @ weight[:d])[heads.inverse]
    tail_proj = params.entity_emb[tails.ids] @ weight[d : 2 * d]
    if grid is None:
        pre += tail_proj[tails.inverse]
    else:
        n_queries, n_head = grid[0].shape
        cells = (n_queries, n_head, grid[1].shape[1])
        tail_cols = tails.inverse.reshape(cells)[:, 0, :]
        by_cell = pre.reshape(cells + (-1,))
        by_cell += tail_proj[tail_cols][:, None]
    pre += assum_block
    pre += params.pair_bias
    return np.tanh(pre, out=pre)


def pair_representation(
    params: ModelParams, assoc_head: int, assoc_tail: int, assum_vec: np.ndarray
) -> np.ndarray:
    """tanh of the projected concatenation [head emb; tail emb; assumption]
    for one pair: one row of `_pair_projection`."""
    assum_block = np.asarray(assum_vec) @ params.pair_weight[2 * params.dims.d :]
    return _pair_projection(
        params, Distinct([assoc_head], [0]), Distinct([assoc_tail], [0]), assum_block
    )[0]


def _attention(
    params: ModelParams, pair_reprs: np.ndarray, n_queries: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Attention hidden layer tanh(W e + b) and logits v . hidden, for
    `n_queries` stacked pair sets of P pairs each: the logits are
    (n_queries, P), one matrix-vector product per query, as for a lone
    query: BLAS sums a row's product in an order that depends on the
    row's place in the matrix."""
    hidden = pair_reprs @ params.attn_weight.T
    hidden += params.attn_bias
    np.tanh(hidden, out=hidden)
    return hidden, hidden.reshape(n_queries, -1, hidden.shape[1]) @ params.attn_vector


def attention_weights(params: ModelParams, pair_reprs: np.ndarray) -> np.ndarray:
    """Softmax over per-pair attention logits v . tanh(W e + b)."""
    return stable_softmax(_attention(params, pair_reprs)[1])[0]


def _tanh_slope(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 - h**2, the derivative of tanh at tanh value h, in `out` or in
    one new array."""
    slope = np.multiply(h, h, out=out)
    return np.subtract(1.0, slope, out=slope)


def stack_grids(
    head_ids: np.ndarray, tail_ids: np.ndarray, survivors: np.ndarray | None = None
) -> PredictionStructure:
    """The full association grids of Q queries, given as (Q, n_head) head
    and (Q, n_tail) tail entity ids, stacked query by query into one pair
    set.  Each grid is head-major: its pair i * n_tail + j joins head
    association i with tail association j."""
    n_head, n_tail = head_ids.shape[1], tail_ids.shape[1]
    return PredictionStructure(
        np.repeat(head_ids, n_tail, axis=1).ravel(),
        np.tile(tail_ids, (1, n_head)).ravel(),
        survivors,
        grid=(head_ids, tail_ids),
    )


def _cross_grid(
    head_assoc: AssociationList, tail_assoc: AssociationList
) -> PredictionStructure:
    """The full n_head x n_tail association grid of one query."""
    return stack_grids(head_assoc.entity_ids[None], tail_assoc.entity_ids[None])


def _pair_list_sums(heads: Distinct, tails: Distinct, *values: np.ndarray) -> tuple:
    """Per-entity sums of (P, k) arrays over an explicit pair list, laid
    out as those of `_grid_sums` for one group: the (1, U_h) distinct
    heads, each array's (1, U_h, k) head sums, taken through one
    (U_h, P) 0/1 matmul, then the same for the tails."""
    out = []
    for side in (heads, tails):
        onehot = np.zeros((len(side.ids), len(side.inverse)), dtype=values[0].dtype)
        onehot[side.inverse, np.arange(len(side.inverse))] = 1.0
        out += [side.ids[None], *((onehot @ v)[None] for v in values)]
    return tuple(out)


def _grid_sums(grid: tuple[np.ndarray, np.ndarray], *values: np.ndarray) -> tuple:
    """Per-entity sums of (Q * n_head * n_tail, k) arrays over the stacked
    grids `grid` (`stack_grids`), query by query: the (Q, n_head) head
    ids, each array's (Q, n_head, k) head sums, then the same for the
    tails.  Association lists repeat no entity, so each query's sums are
    along the axes of its n_head x n_tail layout.  Its entities are put
    in ascending id order, that of `Distinct` and `_pair_list_sums`, so
    the pair-weight products sum a query's rows in one order whichever
    way its pairs are given."""
    head_ids, tail_ids = grid
    n_queries, n_head = head_ids.shape
    n_tail = tail_ids.shape[1]
    # Each query's rows in id order, as indices into its (Q * n, k) rows.
    by_head = np.argsort(head_ids, axis=1)
    by_head += np.arange(0, n_queries * n_head, n_head)[:, None]
    by_tail = np.argsort(tail_ids, axis=1)
    by_tail += np.arange(0, n_queries * n_tail, n_tail)[:, None]
    heads, tails = [head_ids.ravel()[by_head]], [tail_ids.ravel()[by_tail]]
    for v in values:
        cells = v.reshape(n_queries, n_head, n_tail, -1)
        k = cells.shape[3]
        heads.append(cells.sum(axis=2).reshape(-1, k)[by_head])
        tails.append(cells.sum(axis=1).reshape(-1, k)[by_tail])
    return (*heads, *tails)


def _pair_forward(
    params: ModelParams,
    structure: PredictionStructure,
    n_queries: int = 1,
    signs: bool = False,
) -> tuple:
    """The per-pair half of the forward, over the pairs of `structure`:
    scores, posteriors, pair representations, and the attention hidden
    layer and logits, the logits one matrix-vector product for each of
    `n_queries` equal groups of pairs (`_attention`).  Returns the
    per-pair fields of `PredictionTrace`, in its field order.  `signs`
    asks `_posterior_grid` to write the residual signs for the
    backward."""
    pair_heads = structure.pair_heads
    pair_tails = structure.pair_tails
    if len(pair_heads) == 0:
        raise ValueError("prediction needs at least one association pair")

    heads = Distinct(*np.unique(pair_heads, return_inverse=True))
    tails = Distinct(*np.unique(pair_tails, return_inverse=True))
    scores, na_scores, head_rows, survivors, posterior, na_mass = _posterior_grid(
        params, heads, pair_tails, structure.survivors, signs
    )
    if structure.survivors is None:
        structure = replace(structure, survivors=survivors)
    d, n_rel = params.dims.d, params.dims.n_rel
    # The assumption block a @ W_a is posterior @ (R @ W_a), of rank n_rel.
    w_assum = params.pair_weight[2 * d :]
    pair_reprs = _pair_projection(
        params,
        heads,
        tails,
        posterior @ (params.relation_emb[:n_rel] @ w_assum),
        structure.grid,
    )
    attn_hidden, attn_logits = _attention(params, pair_reprs, n_queries)
    return (
        structure, scores, na_scores, head_rows, posterior, na_mass, heads,
        tails, pair_reprs, attn_hidden, attn_logits.ravel(),
    )


def _pool(attn_logits: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-query half of the forward: the softmax of each query's
    attention logits, (Q, P), and the attention-weighted sum of its
    (Q, P, k) per-pair values, (Q, 1, k).  (Q, 1, P) @ (Q, P, k) is one
    BLAS call per query, the same as for a lone query's vectors."""
    attn = stable_softmax(attn_logits)
    return attn, np.matmul(attn[:, None, :], values)


def _forward(
    params: ModelParams,
    structure: PredictionStructure,
    n_queries: int,
    signs: bool = False,
) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The forward steps of `n_queries` queries whose pair sets are
    stacked in `structure`, query by query, P pairs each (see the module
    docstring).  Returns the per-pair fields of `PredictionTrace`, in its
    field order, then the (n_queries, P) attention, the (n_queries, 1,
    d_p) pooled vectors and the (n_queries, 1) logits."""
    per_pair = _pair_forward(params, structure, n_queries, signs)
    pair_reprs, attn_logits = per_pair[8], per_pair[10]
    attn, pooled = _pool(
        attn_logits.reshape(n_queries, -1),
        pair_reprs.reshape(n_queries, -1, pair_reprs.shape[1]),
    )
    logits = pooled @ params.out_weight + params.out_bias
    return per_pair, attn, pooled, logits


def score_table(
    params: ModelParams, head_ids: np.ndarray, tail_ids: np.ndarray, out: np.ndarray
) -> None:
    """The per-pair half of the forward over every pair of the table
    head_ids x tail_ids, head-major, reduced to the two numbers a query
    needs of a pair: its attention logit into out[0] and
    g = pair_repr . out_weight into out[1], each (len(head_ids) *
    len(tail_ids),).  The logistic head is linear in the pooled vector,
    so a query's logit is softmax(l) . g + out_bias over its pairs
    (`table_probabilities`)."""
    per_pair = _pair_forward(params, stack_grids(head_ids[None], tail_ids[None]))
    out[0] = per_pair[10]
    np.matmul(per_pair[8], params.out_weight, out=out[1])


def table_probabilities(
    params: ModelParams, attn_logits: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """The per-query half over pairs taken from a `score_table` table:
    for Q queries with (Q, P) attention logits l and values g, the
    probabilities sigmoid(softmax(l) . g + out_bias), in float64."""
    _, pooled = _pool(attn_logits, values[:, :, None])
    logits = pooled[:, 0, 0] + params.out_bias
    return sigmoid(logits.astype(np.float64, copy=False))


def prediction_forward(
    params: ModelParams,
    head: int,
    tail: int,
    n_head: int,
    n_tail: int,
    *,
    structure: PredictionStructure | None = None,
) -> PredictionTrace:
    """Full pipeline forward pass for one query pair.

    By default the pair set is the full cross product of the top n_head
    and top n_tail associations.  Passing a `structure` from an earlier
    trace reuses its pair set and survivor sets, which makes the loss a
    smooth function of the parameters; a structure whose `survivors` is
    None fixes only the pair set, for example an explicit pair list, and
    this pass selects the survivors.
    """
    if structure is None:
        structure = _cross_grid(
            top_associations(params, head, n_head),
            top_associations(params, tail, n_tail),
        )
    per_pair, attn, pooled, logits = _forward(params, structure, 1)
    logit = float(logits[0, 0])
    return PredictionTrace(
        *per_pair,
        attn=attn[0],
        pooled=pooled[0, 0],
        logit=logit,
        probability=float(sigmoid(logit)),
    )


def stacked_forward(
    params: ModelParams, structure: PredictionStructure, *, signs: bool = False
) -> PredictionTrace:
    """The forward of the Q queries stacked in `structure` (`stack_grids`)
    as one trace: its per-pair fields run over the stack, and its attn,
    pooled, logit and probability are (Q, P), (Q, d_p), (Q,) and (Q,).
    Each probability agrees with `prediction_forward(...).probability`
    to rounding.  With `signs` (a training step), the residual signs are
    written for the `prediction_backward` of this trace that follows."""
    n_queries = len(structure.grid[0])
    per_pair, attn, pooled, logits = _forward(params, structure, n_queries, signs)
    logits = logits[:, 0]
    return PredictionTrace(
        *per_pair,
        attn=attn,
        pooled=pooled[:, 0],
        logit=logits,
        probability=sigmoid(logits.astype(np.float64, copy=False)),
    )


class EntityRows(NamedTuple):
    """The entity gradient of a backward on its association rows alone.
    Per group (a query of a grid stack, or a whole pair list): its
    distinct head ids (G, n_h) and their gradient rows (G, n_h, d), then
    the same for its tails."""

    heads: np.ndarray
    head_grad: np.ndarray
    tails: np.ndarray
    tail_grad: np.ndarray

    def add_to(self, entity_grad: np.ndarray) -> None:
        """Add the rows into a (V, d) gradient, group by group, each
        group's head rows, then its tail rows."""
        for group in range(len(self.heads)):
            entity_grad[self.heads[group]] += self.head_grad[group]
            entity_grad[self.tails[group]] += self.tail_grad[group]


def _as_view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first math.prod(shape) entries of a flat `buffer` as `shape`."""
    return buffer[: math.prod(shape)].reshape(shape)


def prediction_backward(
    params: ModelParams,
    trace: PredictionTrace,
    dlogit: float | np.ndarray,
    *,
    sparse: bool = False,
) -> dict[str, np.ndarray]:
    """Analytic gradient of the pipeline output logit scaled by `dlogit`,
    holding association membership and survivor sets constant.  Given a
    `stacked_forward` trace of Q queries and their (Q,) `dlogit`, it is
    the sum of the Q queries' gradients; a lone query is the case Q = 1.

    Gradients flow through the logistic head, the attention softmax, the
    tanh pair representations, the assumption vectors, the thresholded
    posterior softmax (whose active set is the NA row plus the frozen
    survivors), and the L1 translation scores, into the entity and
    relation embeddings of the participating association pairs.

    The entity gradient touches only the association rows.  With
    `sparse`, the "entity_emb" entry is those rows (`EntityRows`), for
    the caller to add into one batch gradient; otherwise it is a dense
    (V, d) array.  The backward adds into no array of its caller's, and
    its scratch is the thread's, so backwards of different traces may run
    on different threads.

    The (Q * P, k) temporaries take turns in one scratch array, and the
    int8 residual signs reach the two sign products through it as
    float64: in blocks of pairs for each pair's sum over its rows, and
    one relation row at a time for each row's sum over all pairs.  Each
    product is the one BLAS call per pair or per row of the float64
    sign grid, so the gradients keep its bytes.
    """
    dims = params.dims
    d, n_rel = dims.d, dims.n_rel
    attn = np.atleast_2d(trace.attn)  # (Q, P)
    n_queries = len(attn)
    dlogits = np.asarray(dlogit, dtype=params.dtype).reshape(n_queries)
    e_repr = trace.pair_reprs  # (Q * P, d_p)
    n_pairs, d_p = e_repr.shape
    # Scratch for the (Q * P, k) temporaries, and for at least one pair's
    # signs: the thread's residual block buffer, which a backward leaves
    # idle (if `_residual_signs` rebuilds the signs in it, the temporaries
    # are spent by then).  A fresh array per call was trimmed from the
    # heap and page-faulted in again on every call.
    work_size = max(n_pairs * max(d, d_p, dims.d_a), (n_rel + 1) * d)
    work = _scratch("block", (work_size,), params.dtype)

    grads: dict[str, np.ndarray] = {
        "relation_emb": np.zeros_like(params.relation_emb),
    }
    grads["out_weight"] = dlogits @ trace.pooled.reshape(n_queries, d_p)
    grads["out_bias"] = np.asarray(dlogits.sum())

    # Per query: (Q, P) reshapes, one BLAS product per query as for a
    # lone one.
    d_pooled = dlogits[:, None] * params.out_weight  # (Q, d_p)
    d_repr = (attn[:, :, None] * d_pooled[:, None, :]).reshape(-1, d_p)
    d_attn = np.matmul(
        e_repr.reshape(n_queries, -1, d_p), d_pooled[:, :, None]
    )[:, :, 0]  # (Q, P)
    inner = np.matmul(attn[:, None, :], d_attn[:, :, None])[:, 0]  # (Q, 1)
    d_attn_logits = (attn * (d_attn - inner)).ravel()  # (Q * P,)
    grads["attn_vector"] = trace.attn_hidden.T @ d_attn_logits
    # d_attn_logits * v * (1 - h**2), the tanh slope formed in place.
    d_hidden = _tanh_slope(trace.attn_hidden)
    d_hidden *= np.multiply(
        d_attn_logits[:, None],
        params.attn_vector[None, :],
        out=_as_view(work, d_hidden.shape),
    )
    grads["attn_weight"] = d_hidden.T @ e_repr
    grads["attn_bias"] = d_hidden.sum(axis=0)
    d_repr += np.matmul(d_hidden, params.attn_weight, out=_as_view(work, d_repr.shape))
    del d_hidden

    # Pair projection pre = E[h] @ W_h + E[t] @ W_t + posterior @ R @ W_a + b.
    d_pre = d_repr
    d_pre *= _tanh_slope(e_repr, out=_as_view(work, e_repr.shape))  # (Q * P, d_p)
    w_head, w_tail, w_assum = (
        params.pair_weight[:d],
        params.pair_weight[d : 2 * d],
        params.pair_weight[2 * d :],
    )
    rel_fwd = params.relation_emb[:n_rel]
    d_pre_by_rel = trace.posterior.T @ d_pre  # (n_rel, d_p)
    grads["relation_emb"][:n_rel] += d_pre_by_rel @ w_assum.T
    grads["pair_bias"] = d_pre.sum(axis=0)
    d_post = d_pre @ (w_assum.T @ rel_fwd.T)  # (Q * P, n_rel)

    # Softmax over the active set {NA} + survivors; NA receives no direct
    # gradient from the assumption vector but shifts the normalizer.
    inner = (d_post * trace.posterior).sum(axis=1)  # (Q * P,)
    d_scores = trace.posterior * (d_post - inner[:, None])  # zero off-survivors
    d_na = -trace.na_mass * inner
    d_all_scores = np.concatenate([d_scores, d_na[:, None]], axis=1)

    # L1 translation scores: residual u = head + rel - tail, score = -|u|.
    signs = _residual_signs(
        params, trace.head_rows, trace.heads.inverse, trace.structure.pair_tails
    )  # (Q * P, n_rel + 1, d) int8
    n_rows = signs.shape[1]
    pair_sign_sum = np.empty((n_pairs, d), dtype=params.dtype)
    step = max(1, len(work) // (n_rows * d))
    for lo in range(0, n_pairs, step):
        hi = min(lo + step, n_pairs)
        block = _as_view(work, (hi - lo, n_rows, d))
        np.copyto(block, signs[lo:hi])
        np.matmul(d_all_scores[lo:hi, None, :], block, out=pair_sign_sum[lo:hi, None])
    rel_rows_grad = np.empty((n_rows, d), dtype=params.dtype)
    row_signs = _as_view(work, (n_pairs, d))
    for k in range(n_rows):
        np.copyto(row_signs, signs[:, k])
        np.matmul(d_all_scores[:, k], row_signs, out=rel_rows_grad[k])
    np.negative(rel_rows_grad, out=rel_rows_grad)
    del work, block, row_signs
    grads["relation_emb"][:n_rel] += rel_rows_grad[:n_rel]
    grads["relation_emb"][dims.na_index] += rel_rows_grad[n_rel]

    # Each distinct association entity gets its pairs' gradient once per
    # group: the queries of a grid stack, or the whole of a pair list.
    if trace.structure.grid is not None:
        per_entity = _grid_sums(trace.structure.grid, d_pre, pair_sign_sum)
    else:
        per_entity = _pair_list_sums(trace.heads, trace.tails, d_pre, pair_sign_sum)
    heads, d_pre_head, sign_head, tails, d_pre_tail, sign_tail = per_entity
    entity_emb = params.entity_emb
    pair_weight = grads["pair_weight"] = np.empty_like(params.pair_weight)
    np.matmul(
        entity_emb[heads.ravel()].T, d_pre_head.reshape(-1, d_p), out=pair_weight[:d]
    )
    np.matmul(
        entity_emb[tails.ravel()].T,
        d_pre_tail.reshape(-1, d_p),
        out=pair_weight[d : 2 * d],
    )
    np.matmul(rel_fwd.T, d_pre_by_rel, out=pair_weight[2 * d :])
    rows = EntityRows(
        heads,
        d_pre_head @ w_head.T - sign_head,
        tails,
        d_pre_tail @ w_tail.T + sign_tail,
    )
    if sparse:
        grads["entity_emb"] = rows
    else:
        grads["entity_emb"] = np.zeros_like(entity_emb)
        rows.add_to(grads["entity_emb"])
    return grads


def _records_from_trace(trace: PredictionTrace) -> list[AssumptionRecord]:
    records = []
    for p in range(len(trace.structure.pair_heads)):
        survivors = np.flatnonzero(trace.structure.survivors[p])
        posterior = RelationPosterior(
            probs=trace.posterior[p].copy(),
            na_score=float(trace.na_scores[p]),
            na_mass=float(trace.na_mass[p]),
            survivors=survivors,
        )
        top = posterior.top()
        attn = float(trace.attn[p])
        records.append(
            AssumptionRecord(
                assoc_head=int(trace.structure.pair_heads[p]),
                assoc_tail=int(trace.structure.pair_tails[p]),
                top_relation=None if top is None else top[0],
                posterior=posterior,
                pair_repr=trace.pair_reprs[p],
                attn=attn,
                score=0.0 if top is None else attn * top[1],
            )
        )
    return records


def predict_relation(
    params: ModelParams,
    head: int,
    tail: int,
    n_head: int,
    n_tail: int,
) -> tuple[float, list[AssumptionRecord]]:
    """Probability that the trained target relation holds between head
    and tail, plus the scored assumption records behind it."""
    trace = prediction_forward(params, head, tail, n_head, n_tail)
    return trace.probability, _records_from_trace(trace)


def _ranked_report(
    heads: np.ndarray,
    tails: np.ndarray,
    relations: np.ndarray,
    attn: np.ndarray,
    posterior: np.ndarray,
    target: tuple[int, int, int],
    top_k: int,
    *,
    vocab: Vocab,
    schema: RelationSchema,
    probability: float,
    mode: str,
    fallback: bool = False,
) -> RationaleReport:
    """Report the top_k candidates (heads[i], relations[i], tails[i]),
    scored by attn[i] * posterior[i] in float64.  The target triple is
    dropped; ties break by (head id, tail id, relation id).  Entries are
    built for the top_k alone."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    head_id, relation_id, tail_id = target
    attn = np.asarray(attn, dtype=np.float64)
    posterior = np.asarray(posterior, dtype=np.float64)
    score = attn * posterior
    is_target = (heads == head_id) & (relations == relation_id) & (tails == tail_id)
    order = np.lexsort((relations, tails, heads, -score))
    order = order[~is_target[order]][:top_k]
    entries = [
        RationaleEntry(
            head=vocab.term_of(h),
            relation=schema.name_of(k),
            tail=vocab.term_of(t),
            score=s,
            attn=a,
            posterior=q,
            head_id=h,
            relation_id=k,
            tail_id=t,
        )
        for h, t, k, s, a, q in zip(
            *(x[order].tolist() for x in (heads, tails, relations, score, attn, posterior))
        )
    ]
    return RationaleReport(
        head=vocab.term_of(head_id),
        tail=vocab.term_of(tail_id),
        relation=schema.name_of(relation_id),
        mode=mode,
        probability=probability,
        rationales=entries,
        fallback=fallback,
    )


def extract_rationales(
    records: list[AssumptionRecord],
    target: tuple[int, int, int],
    top_k: int,
    *,
    vocab: Vocab,
    schema: RelationSchema,
    probability: float,
    mode: str = OWA_MODE,
    fallback: bool = False,
) -> RationaleReport:
    """Rank every surviving (association head, relation, association
    tail) candidate of the records by attention weight times posterior
    probability and keep the top_k, as `rationalize_pair` ranks a
    forward trace.  The exact target triple is removed if it appears.
    Ties break deterministically by (head id, tail id, relation id).
    """
    candidates = [(r, int(k)) for r in records for k in r.posterior.survivors]
    return _ranked_report(
        np.array([r.assoc_head for r, _ in candidates], dtype=np.int64),
        np.array([r.assoc_tail for r, _ in candidates], dtype=np.int64),
        np.array([k for _, k in candidates], dtype=np.int64),
        np.array([r.attn for r, _ in candidates], dtype=np.float64),
        np.array([r.posterior.probs[k] for r, k in candidates], dtype=np.float64),
        tuple(target), top_k, vocab=vocab, schema=schema,
        probability=probability, mode=mode, fallback=fallback,
    )


@dataclass
class CwaPair:
    assoc_head: int
    assoc_tail: int
    retrieval: float  # product of the two association probabilities


def cwa_rationales(
    params: ModelParams,
    kb: TripleSet,
    head: int,
    tail: int,
    n_head: int,
    n_tail: int,
    *,
    associations: tuple[AssociationList, AssociationList] | None = None,
) -> list[CwaPair]:
    """Closed-world assumption pair filter: rank all association cross
    pairs by the product of their retrieval probabilities (in float64,
    ties by head id, then tail id) and keep only pairs that appear as
    (head, tail) of some stored kb triple, looked up in the kb's sorted
    pair keys.  An empty result signals that no kb triple matched.
    `associations` passes in the (head, tail) association lists when the
    caller has already recalled them.
    """
    if associations is None:
        associations = (
            top_associations(params, head, n_head),
            top_associations(params, tail, n_tail),
        )
    head_assoc, tail_assoc = associations
    i, j = np.nonzero(
        kb.has_pairs(head_assoc.entity_ids[:, None], tail_assoc.entity_ids[None, :])
    )
    if not len(i):
        return []
    heads, tails = head_assoc.entity_ids[i], tail_assoc.entity_ids[j]
    retrieval = head_assoc.probabilities.astype(np.float64)[i] * (
        tail_assoc.probabilities.astype(np.float64)[j]
    )
    order = np.lexsort((tails, heads, -retrieval))
    return [
        CwaPair(assoc_head=h, assoc_tail=t, retrieval=r)
        for h, t, r in zip(*(x[order].tolist() for x in (heads, tails, retrieval)))
    ]


def rationalize_pair(
    params: ModelParams,
    vocab: Vocab,
    schema: RelationSchema,
    head: int,
    tail: int,
    relation: int,
    *,
    n_head: int,
    n_tail: int,
    top_k: int,
    mode: str = OWA_MODE,
    kb: TripleSet | None = None,
) -> RationaleReport:
    """Predict and explain one pair in OWA or CWA mode.

    OWA ranks every surviving candidate triple.  CWA restricts the
    assumption pairs to those contained in the kb and reports only kb
    triples whose relation survived the NA threshold for its pair
    (relation taken from the kb); if no association pair matches the kb,
    prediction falls back to the unrestricted pair set and the report is
    flagged with an empty rationale list.  Each side's associations are
    recalled once and shared by the pair filter and the prediction.
    Candidates are ranked from the trace arrays, by attention times
    posterior with ties broken by (head id, tail id, relation id); the
    target triple is never its own rationale.  top_k must be >= 1.
    """
    mode = mode.upper()
    if mode == OWA_MODE:
        trace = prediction_forward(params, head, tail, n_head, n_tail)
        p, k = np.nonzero(trace.structure.survivors)
        fallback = False
    else:
        if mode != CWA_MODE:
            raise ValueError(f"unknown mode {mode!r}; expected OWA or CWA")
        if kb is None:
            raise ValueError("CWA mode needs a kb triple set")
        head_assoc = top_associations(params, head, n_head)
        tail_assoc = top_associations(params, tail, n_tail)
        kept = cwa_rationales(
            params, kb, head, tail, n_head, n_tail,
            associations=(head_assoc, tail_assoc),
        )
        if kept:
            structure = PredictionStructure(
                np.array([c.assoc_head for c in kept], dtype=np.int64),
                np.array([c.assoc_tail for c in kept], dtype=np.int64),
            )
        else:
            structure = _cross_grid(head_assoc, tail_assoc)
        trace = prediction_forward(
            params, head, tail, n_head, n_tail, structure=structure
        )
        # Reverse rows never appear in reports; vetoed relations have no
        # posterior to rank.  A fallback report ranks nothing.
        survivors = trace.structure.survivors
        candidates = [
            (i, rel)
            for i, pair in enumerate(kept)
            for rel in kb.relations_between(pair.assoc_head, pair.assoc_tail)
            if rel < schema.n_rel and survivors[i, rel]
        ]
        p, k = np.array(candidates, dtype=np.int64).reshape(-1, 2).T
        fallback = not kept
    structure = trace.structure
    return _ranked_report(
        structure.pair_heads[p], structure.pair_tails[p], k,
        trace.attn[p], trace.posterior[p, k], (head, relation, tail), top_k,
        vocab=vocab, schema=schema, probability=trace.probability, mode=mode,
        fallback=fallback,
    )
