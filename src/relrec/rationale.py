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
and the backward rebuilds it the same way to write the full sign grid
its two matmuls take.  A grid of one block (every quickstart-sized
query) is left in the thread's block buffer, so a backward that follows
its forward takes it from there.  The element operations and the sum
over d are those of the whole grid, so scores, survivors, posteriors and
gradients are the same bit for bit at any block size.  The backward pass
sums each pair's gradient per distinct entity with a 0/1 matmul and
writes every entity row once.  This is exact algebra, not an
approximation: the scores and survivor sets are bit-for-bit those of the
per-pair form, the rest agrees to rounding.

Signs for the survivor rows alone (the NA row plus about 0.2 of n_rel
per pair at large scale) were tried and not kept: BLAS then sums the
relation gradient over another set of pairs, which moved its last bits,
and the scatter they need made the backward slower.

`prediction_forward` keeps every intermediate needed by
`prediction_backward`, which implements the full analytic gradient of
the pipeline.  Association membership and survivor sets are discrete
selections; they are treated as constants within a gradient step, and a
frozen `PredictionStructure` can be passed back in to evaluate the loss
as the smooth function the gradient differentiates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

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
    attn: np.ndarray  # (P,)
    pooled: np.ndarray  # (d_p,)
    logit: float
    probability: float


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
    params: ModelParams, heads: Distinct, tails: Distinct, assum_block: np.ndarray
) -> np.ndarray:
    """tanh([E[h]; E[t]; a] @ W + b) per pair, each distinct entity
    projected once; `assum_block` holds each pair's a @ W_a."""
    d, weight = params.dims.d, params.pair_weight
    pre = (params.entity_emb[heads.ids] @ weight[:d])[heads.inverse]
    pre += (params.entity_emb[tails.ids] @ weight[d : 2 * d])[tails.inverse]
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
    params: ModelParams, pair_reprs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attention hidden layer tanh(W e + b), logits v . hidden and their
    softmax over the pairs."""
    hidden = pair_reprs @ params.attn_weight.T
    hidden += params.attn_bias
    np.tanh(hidden, out=hidden)
    logits = hidden @ params.attn_vector
    return hidden, logits, stable_softmax(logits)


def attention_weights(params: ModelParams, pair_reprs: np.ndarray) -> np.ndarray:
    """Softmax over per-pair attention logits v . tanh(W e + b)."""
    return _attention(params, pair_reprs)[2]


def _cross_pairs(
    head_assoc: AssociationList, tail_assoc: AssociationList
) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails) of the full n_head x n_tail association grid."""
    heads, tails = head_assoc.entity_ids, tail_assoc.entity_ids
    return np.repeat(heads, len(tails)), np.tile(tails, len(heads))


def _row_sums(inverse: np.ndarray, n_rows: int, *values: np.ndarray) -> list:
    """Sum the rows of each (P, k) array by group, `inverse` mapping each
    of the P rows to its group, through one (n_rows, P) 0/1 matmul."""
    onehot = np.zeros((n_rows, len(inverse)), dtype=values[0].dtype)
    onehot[inverse, np.arange(len(inverse))] = 1.0
    return [onehot @ v for v in values]


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
        structure = PredictionStructure(
            *_cross_pairs(
                top_associations(params, head, n_head),
                top_associations(params, tail, n_tail),
            )
        )
    pair_heads = structure.pair_heads
    pair_tails = structure.pair_tails
    if len(pair_heads) == 0:
        raise ValueError("prediction needs at least one association pair")

    heads = Distinct(*np.unique(pair_heads, return_inverse=True))
    tails = Distinct(*np.unique(pair_tails, return_inverse=True))
    scores, na_scores, head_rows, survivors, posterior, na_mass = _posterior_grid(
        params, heads, pair_tails, structure.survivors
    )
    if structure.survivors is None:
        structure = replace(structure, survivors=survivors)
    d, n_rel = params.dims.d, params.dims.n_rel
    # The assumption block a @ W_a is posterior @ (R @ W_a), of rank n_rel.
    w_assum = params.pair_weight[2 * d :]
    pair_reprs = _pair_projection(
        params, heads, tails, posterior @ (params.relation_emb[:n_rel] @ w_assum)
    )
    attn_hidden, attn_logits, attn = _attention(params, pair_reprs)
    pooled = attn @ pair_reprs
    logit = float(params.out_weight @ pooled + params.out_bias)
    probability = float(sigmoid(logit))
    return PredictionTrace(
        structure=structure,
        scores=scores,
        na_scores=na_scores,
        head_rows=head_rows,
        posterior=posterior,
        na_mass=na_mass,
        heads=heads,
        tails=tails,
        pair_reprs=pair_reprs,
        attn_hidden=attn_hidden,
        attn_logits=attn_logits,
        attn=attn,
        pooled=pooled,
        logit=logit,
        probability=probability,
    )


def prediction_backward(
    params: ModelParams, trace: PredictionTrace, dlogit: float
) -> dict[str, np.ndarray]:
    """Analytic gradient of the pipeline output logit scaled by `dlogit`,
    holding association membership and survivor sets constant.

    Gradients flow through the logistic head, the attention softmax, the
    tanh pair representations, the assumption vectors, the thresholded
    posterior softmax (whose active set is the NA row plus the frozen
    survivors), and the L1 translation scores, into the entity and
    relation embeddings of the participating association pairs.
    """
    dims = params.dims
    d, n_rel = dims.d, dims.n_rel
    attn = trace.attn
    e_repr = trace.pair_reprs

    grads: dict[str, np.ndarray] = {
        "entity_emb": np.zeros_like(params.entity_emb),
        "relation_emb": np.zeros_like(params.relation_emb),
    }
    grads["out_weight"] = dlogit * trace.pooled
    grads["out_bias"] = np.asarray(dlogit, dtype=params.dtype)

    d_pooled = dlogit * params.out_weight  # (d_p,)
    d_repr = attn[:, None] * d_pooled[None, :]  # (P, d_p)
    d_attn = e_repr @ d_pooled  # (P,)
    d_attn_logits = attn * (d_attn - attn @ d_attn)
    grads["attn_vector"] = trace.attn_hidden.T @ d_attn_logits
    d_hidden = (
        d_attn_logits[:, None]
        * params.attn_vector[None, :]
        * (1.0 - trace.attn_hidden**2)
    )
    grads["attn_weight"] = d_hidden.T @ e_repr
    grads["attn_bias"] = d_hidden.sum(axis=0)
    d_repr += d_hidden @ params.attn_weight

    # Pair projection pre = E[h] @ W_h + E[t] @ W_t + posterior @ R @ W_a + b.
    d_pre = d_repr * (1.0 - e_repr**2)  # (P, d_p)
    w_head, w_tail, w_assum = (
        params.pair_weight[:d],
        params.pair_weight[d : 2 * d],
        params.pair_weight[2 * d :],
    )
    rel_fwd = params.relation_emb[:n_rel]
    d_pre_by_rel = trace.posterior.T @ d_pre  # (n_rel, d_p)
    grads["relation_emb"][:n_rel] += d_pre_by_rel @ w_assum.T
    grads["pair_bias"] = d_pre.sum(axis=0)
    d_post = d_pre @ (w_assum.T @ rel_fwd.T)  # (P, n_rel)

    # Softmax over the active set {NA} + survivors; NA receives no direct
    # gradient from the assumption vector but shifts the normalizer.
    inner = (d_post * trace.posterior).sum(axis=1)  # (P,)
    d_scores = trace.posterior * (d_post - inner[:, None])  # zero off-survivors
    d_na = -trace.na_mass * inner
    d_all_scores = np.concatenate([d_scores, d_na[:, None]], axis=1)

    # L1 translation scores: residual u = head + rel - tail, score = -|u|.
    signs = _residual_signs(
        params, trace.head_rows, trace.heads.inverse, trace.structure.pair_tails
    )  # (P, n_rel + 1, d)
    pair_sign_sum = np.matmul(d_all_scores[:, None, :], signs)[:, 0, :]  # (P, d)
    rel_rows_grad = -np.matmul(
        d_all_scores.T[:, None, :], signs.transpose(1, 0, 2)
    )[:, 0, :]  # (n_rel + 1, d)
    grads["relation_emb"][:n_rel] += rel_rows_grad[:n_rel]
    grads["relation_emb"][dims.na_index] += rel_rows_grad[n_rel]

    # Each distinct association entity gets its pairs' gradient once.
    heads, tails = trace.heads.ids, trace.tails.ids
    d_pre_head, sign_head = _row_sums(
        trace.heads.inverse, len(heads), d_pre, pair_sign_sum
    )
    d_pre_tail, sign_tail = _row_sums(
        trace.tails.inverse, len(tails), d_pre, pair_sign_sum
    )
    entity_emb = params.entity_emb
    grads["pair_weight"] = np.concatenate(
        [
            entity_emb[heads].T @ d_pre_head,
            entity_emb[tails].T @ d_pre_tail,
            rel_fwd.T @ d_pre_by_rel,
        ]
    )
    grads["entity_emb"][heads] += d_pre_head @ w_head.T - sign_head
    grads["entity_emb"][tails] += d_pre_tail @ w_tail.T + sign_tail
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
            pair_heads = np.array([c.assoc_head for c in kept], dtype=np.int64)
            pair_tails = np.array([c.assoc_tail for c in kept], dtype=np.int64)
        else:
            pair_heads, pair_tails = _cross_pairs(head_assoc, tail_assoc)
        trace = prediction_forward(
            params,
            head,
            tail,
            n_head,
            n_tail,
            structure=PredictionStructure(pair_heads, pair_tails),
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
