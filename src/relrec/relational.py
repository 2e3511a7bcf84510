"""Relational interaction recognition.

Triples (head, relation, tail) are scored by a translation rule: the
negative L1 distance between head + relation and tail.  A thresholded
softmax turns the forward-relation scores of an entity pair into a
posterior in which every relation scoring at or below the no-relation
(NA) row gets probability exactly zero.  Training uses a sampled softmax
over the gold triple and uniformly corrupted candidates.

`relational_loss` works on the whole batch as arrays, and its loss and
float64 gradients are the same bit for bit as a per-triple loop:

- One draw of shape (B, 2, n_neg) gives every corruption: per triple,
  n_neg tail corruptions, then n_neg head corruptions, which is the order
  of one `corrupt_triples` call per side and triple.  PCG64 keeps its
  spare 32-bit half in the generator state, so splitting a draw into
  calls, or merging calls into one draw, consumes the same stream.
- Each gradient tensor is summed by one np.bincount over the rows of the
  tail side (fixed entity, then candidates), then of the head side, in
  the order of the np.add.at calls of the loop.  np.bincount adds its
  weights sequentially in input order, as np.add.at does, so every sum
  is taken in the same order.  The sums are taken in float64, so with
  float32 parameters the last bit may differ from float32 accumulation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import GraphFormatError, Vocab, _open_text
from .params import ModelParams

logger = logging.getLogger(__name__)

NA_NAME = "NA"
REVERSE_SUFFIX = "_inv"


@dataclass(frozen=True)
class RelationSchema:
    """Ordered forward relation names.  Row k of the relation table is
    names[k]; row k + n_rel is its reverse; the last row is NA."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("schema needs at least one relation")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate relation names")
        if NA_NAME in self.names:
            raise ValueError(f"{NA_NAME!r} is reserved for the no-relation row")

    @property
    def n_rel(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown relation {name!r}; known relations: "
                + ", ".join(self.names)
            ) from None

    def name_of(self, idx: int) -> str:
        if 0 <= idx < self.n_rel:
            return self.names[idx]
        if self.n_rel <= idx < 2 * self.n_rel:
            return self.names[idx - self.n_rel] + REVERSE_SUFFIX
        if idx == 2 * self.n_rel:
            return NA_NAME
        raise IndexError(f"relation index {idx} out of range")


@dataclass
class LabeledPair:
    """A supervision example for one target relation: does `relation`
    hold between head and tail (label 1) or not (label 0)?"""

    head: int
    tail: int
    label: int
    relation: int


@dataclass
class TripleSet:
    """Deduplicated (head, relation, tail) id triples with per-relation
    argument pools derived from the stored triples."""

    triples: list[tuple[int, int, int]]
    augmented: bool = False
    _index: set[tuple[int, int, int]] = field(init=False, repr=False)
    _pair_relations: dict[tuple[int, int], list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        deduped: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int, int]] = set()
        for triple in self.triples:
            t = (int(triple[0]), int(triple[1]), int(triple[2]))
            if t not in seen:
                seen.add(t)
                deduped.append(t)
        self.triples = deduped
        self._index = seen
        self._pair_relations = {}
        for h, r, t in deduped:
            self._pair_relations.setdefault((h, t), []).append(r)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: tuple[int, int, int]) -> bool:
        return tuple(triple) in self._index

    def relations_between(self, head: int, tail: int) -> list[int]:
        return sorted(self._pair_relations.get((head, tail), ()))

    def has_pair(self, head: int, tail: int) -> bool:
        return (head, tail) in self._pair_relations

    def head_pool(self, relation: int) -> np.ndarray:
        heads = sorted({h for h, r, _ in self.triples if r == relation})
        return np.asarray(heads, dtype=np.int64)

    def tail_pool(self, relation: int) -> np.ndarray:
        tails = sorted({t for _, r, t in self.triples if r == relation})
        return np.asarray(tails, dtype=np.int64)

    def augment_reverse(self, n_rel: int) -> "TripleSet":
        """Add (tail, relation + n_rel, head) for every forward triple."""
        if self.augmented:
            return self
        forward = list(self.triples)
        reverse = [(t, r + n_rel, h) for h, r, t in forward]
        return TripleSet(triples=forward + reverse, augmented=True)


def load_triples_tsv(path: str, vocab: Vocab, schema: RelationSchema) -> TripleSet:
    """Load `head<TAB>relation<TAB>tail` rows.  Unknown terms or relations
    are collected and reported together in one error."""
    triples: list[tuple[int, int, int]] = []
    offenders: list[str] = []
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise GraphFormatError(
                    f"{path}: line {lineno}: expected 3 tab-separated "
                    f"fields, got {len(fields)}"
                )
            head, relation, tail = fields
            bad = False
            if head not in vocab:
                offenders.append(f"line {lineno}: unknown term {head!r}")
                bad = True
            if tail not in vocab:
                offenders.append(f"line {lineno}: unknown term {tail!r}")
                bad = True
            if relation not in schema.names:
                offenders.append(f"line {lineno}: unknown relation {relation!r}")
                bad = True
            if not bad:
                triples.append(
                    (vocab.id_of(head), schema.index_of(relation), vocab.id_of(tail))
                )
    if offenders:
        raise GraphFormatError(
            f"{path}: {len(offenders)} unresolved name(s):\n  "
            + "\n  ".join(offenders)
        )
    return TripleSet(triples=triples)


def triple_score(params: ModelParams, head: int, relation: int, tail: int) -> float:
    """Translation plausibility: -||entity[head] + rel[relation] - entity[tail]||_1."""
    diff = (
        params.entity_emb[head]
        + params.relation_emb[relation]
        - params.entity_emb[tail]
    )
    return float(-np.abs(diff).sum())


@dataclass
class RelationPosterior:
    """Thresholded relation distribution for one entity pair.

    probs[k] is nonzero only for survivors (forward relations whose score
    strictly exceeds the NA score).  When the NA row is included in the
    normalizer, the survivor probabilities plus the NA mass sum to one.
    """

    probs: np.ndarray
    na_score: float
    na_mass: float
    survivors: np.ndarray

    def top(self) -> tuple[int, float] | None:
        if len(self.survivors) == 0:
            return None
        k = int(np.argmax(self.probs))
        return k, float(self.probs[k])


class Distinct(NamedTuple):
    """The distinct entity ids on one side of a set of pairs, and each
    pair's index into them: the pairs' ids are `ids[inverse]`."""

    ids: np.ndarray
    inverse: np.ndarray


def _thresholded_softmax(
    scores: np.ndarray,
    na_scores: np.ndarray,
    survivors: np.ndarray | None,
    include_na: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(survivors, posterior, na_mass) of (P, n_rel) forward scores and
    (P,) NA scores.  Survivors, unless given, are the relations scoring
    strictly above their NA score; the posterior is exactly zero off
    them."""
    if survivors is None:
        survivors = scores > na_scores[:, None]
    masked = np.where(survivors, scores, -np.inf)
    m = masked.max(axis=1, initial=-np.inf)
    if include_na:
        m = np.maximum(na_scores, m)
        exp_na = np.exp(na_scores - m)
    else:
        m[np.isneginf(m)] = 0.0  # rows without survivors
        exp_na = np.zeros_like(m)
    exp_fwd = np.exp(masked - m[:, None])
    z = exp_na + exp_fwd.sum(axis=1)
    if not include_na:
        z[z == 0] = 1.0  # rows without survivors
    return survivors, exp_fwd / z[:, None], exp_na / z


def _posterior_grid(
    params: ModelParams,
    heads: Distinct,
    pair_tails: np.ndarray,
    frozen_survivors: np.ndarray | None,
    include_na: bool,
):
    """L1 translation scores of all pairs over the forward rows and the NA
    row, and their thresholded softmax."""
    dims = params.dims
    rows = np.concatenate([np.arange(dims.n_rel), [dims.na_index]])
    # head + relation once per distinct head, then minus each pair's tail.
    residuals = (
        params.entity_emb[heads.ids][:, None, :]
        + params.relation_emb[rows][None, :, :]
    )[heads.inverse]
    residuals -= params.entity_emb[pair_tails][:, None, :]  # (P, n_rel + 1, d)
    all_scores = -np.abs(residuals).sum(axis=2)
    scores = all_scores[:, : dims.n_rel]
    na_scores = all_scores[:, dims.n_rel]
    survivors, posterior, na_mass = _thresholded_softmax(
        scores, na_scores, frozen_survivors, include_na
    )
    return scores, na_scores, residuals, survivors, posterior, na_mass


def posterior_from_scores(
    scores: np.ndarray, na_score: float, include_na: bool = True
) -> tuple[np.ndarray, float, np.ndarray]:
    """Thresholded softmax over forward-relation scores, one row of
    `_thresholded_softmax`: exactly the relations with scores[k] >
    na_score survive.  Returns (probs, na_mass, survivor_indices)."""
    survivors, probs, na_mass = _thresholded_softmax(
        np.asarray(scores, dtype=np.float64)[None], np.array([float(na_score)]),
        None, include_na,
    )
    return probs[0], float(na_mass[0]), np.flatnonzero(survivors[0])


def relation_posterior(
    params: ModelParams,
    head: int,
    tail: int,
    include_na: bool = True,
) -> RelationPosterior:
    """Posterior over forward relations for one entity pair, with the NA
    row acting as a learned threshold (and, by default, absorbing the
    complementary probability mass): one row of `_posterior_grid`."""
    _, na_scores, _, survivors, probs, na_mass = _posterior_grid(
        params, Distinct([head], [0]), [tail], None, include_na
    )
    return RelationPosterior(
        probs[0], float(na_scores[0]), float(na_mass[0]), np.flatnonzero(survivors[0])
    )


# Columns of a gradient tensor summed per np.bincount call.  The index and
# value buffers each hold 2·B·C rows of this many columns, which is 16/d
# of one side's (B, C, d) candidate tensor: half of it at d = 32, an
# eighth at d = 128.  At 16 columns and d = 32 each buffer was slightly
# larger than that tensor, and on the benchmark's quickstart workload
# the call page-faulted 40% more and peak RSS rose by up to 2.4 MB.
_SCATTER_COLUMNS = 8


def _draw_corruptions(
    gold: np.ndarray, n_neg: int, vocab_size: int, rng: np.random.Generator
) -> np.ndarray:
    """n_neg uniform draws per gold entity over all other entities, shape
    gold.shape + (n_neg,), taken from the stream in C order."""
    if vocab_size < 2:
        raise ValueError("need at least 2 entities to corrupt a triple")
    gold = np.asarray(gold, dtype=np.int64)
    draws = rng.integers(0, vocab_size - 1, size=gold.shape + (n_neg,))
    return draws + (draws >= gold[..., None])  # skip over the gold entity


def corrupt_triples(
    triple: tuple[int, int, int],
    n_neg: int,
    side: str,
    vocab_size: int,
    rng: np.random.Generator | int,
) -> list[tuple[int, int, int]]:
    """n_neg corrupted copies of `triple` with the chosen side replaced by
    a uniform draw over all other entities.  Duplicates are allowed; the
    original entity on that side never reappears."""
    if side not in ("head", "tail"):
        raise ValueError("side must be 'head' or 'tail'")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    head, relation, tail = triple
    gold = head if side == "head" else tail
    draws = _draw_corruptions(gold, n_neg, vocab_size, rng)
    if side == "head":
        return [(int(e), relation, tail) for e in draws]
    return [(head, relation, int(e)) for e in draws]


def _scatter_rows(
    n_rows: int, parts: list[tuple[np.ndarray, np.ndarray, bool]], dtype
) -> np.ndarray:
    """Sum value rows into an (n_rows, d) array of `dtype`.

    Each part is (row ids, values with one d-row per id, negate).  Rows
    are added in input order, part after part, as one np.add.at call per
    part would add them, in float64, and rounded to `dtype` once.
    """
    rows = np.concatenate([ids.reshape(-1) for ids, _, _ in parts])
    d = parts[0][1].shape[-1]
    out = np.empty((n_rows, d), dtype=dtype)
    width = index = values = None
    for start in range(0, d, _SCATTER_COLUMNS):
        stop = min(start + _SCATTER_COLUMNS, d)
        if stop - start != width:
            width = stop - start
            index = (rows[:, None] * width + np.arange(width)).reshape(-1)
            values = np.empty((len(rows), width))
        offset = 0
        for _, part, negate in parts:
            block = part.reshape(-1, d)[:, start:stop]
            target = values[offset : offset + len(block)]
            if negate:
                np.negative(block, out=target)
            else:
                target[...] = block
            offset += len(block)
        sums = np.bincount(index, weights=values.reshape(-1), minlength=n_rows * width)
        out[:, start:stop] = sums.reshape(n_rows, width)
    return out


def _side_terms(
    ent: np.ndarray, cand: np.ndarray, base: np.ndarray, tail_side: bool
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sampled-softmax loss of one corruption side, the softmax-weighted
    residual signs (B, C, d) and their sum over candidates (B, d)."""
    residual = ent[cand]  # (B, C, d), reused for the residual and its abs
    if tail_side:
        # residual = head + relation - candidate_tail
        np.subtract(base[:, None, :], residual, out=residual)
    else:
        # residual = candidate_head + relation - tail
        residual += base[:, None, :]
    weighted_sign = np.sign(residual)
    scores = -np.abs(residual, out=residual).sum(axis=2)  # (B, C)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp_shifted = np.exp(shifted)
    log_z = np.log(exp_shifted.sum(axis=1))
    loss = float((log_z - shifted[:, 0]).sum())
    weight = exp_shifted / np.exp(log_z)[:, None]  # softmax
    weight[:, 0] -= 1.0
    weighted_sign *= weight[:, :, None]
    return loss, weighted_sign, weighted_sign.sum(axis=1)


def relational_loss(
    params: ModelParams,
    triples: list[tuple[int, int, int]] | np.ndarray,
    n_neg: int,
    seed: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """Sampled-softmax negative log likelihood of each gold triple against
    uniformly corrupted candidates, corrupting the tail side and the head
    side separately, summed over the batch.

    `triples` is a sequence of (head, relation, tail) ids or a (B, 3)
    integer array.  The gold triple is always candidate 0 and is part of
    the softmax denominator.  Gradients follow the L1 translation score:
    with residual u = head + relation - tail, d score = (-sign(u),
    -sign(u), +sign(u)) for (head, relation, tail).  See the module
    docstring for how the batch is sampled and scattered.
    """
    if len(triples) == 0:
        raise ValueError("empty triple batch")
    if n_neg < 1:
        raise ValueError("need at least one corruption per triple")
    ids = np.asarray(triples, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != 3:
        raise ValueError("triples must be (head, relation, tail) rows")
    heads, rels, tails = ids[:, 0], ids[:, 1], ids[:, 2]
    rng = np.random.default_rng(seed)
    ent = params.entity_emb
    rel = params.relation_emb

    draws = _draw_corruptions(
        np.stack([tails, heads], axis=1), n_neg, params.vocab_size, rng
    )  # (B, 2, n_neg)
    cand_tails = np.concatenate([tails[:, None], draws[:, 0]], axis=1)
    cand_heads = np.concatenate([heads[:, None], draws[:, 1]], axis=1)

    rel_rows = rel[rels]
    loss_t, sign_t, summed_t = _side_terms(
        ent, cand_tails, ent[heads] + rel_rows, tail_side=True
    )
    loss_h, sign_h, summed_h = _side_terms(
        ent, cand_heads, rel_rows - ent[tails], tail_side=False
    )
    loss = loss_t + loss_h
    # With residual u, d score/d(head) = d score/d(relation) = -sign(u)
    # and d score/d(tail) = +sign(u).
    grad_entity = _scatter_rows(
        ent.shape[0],
        [
            (heads, summed_t, True),
            (cand_tails, sign_t, False),
            (tails, summed_h, False),
            (cand_heads, sign_h, True),
        ],
        ent.dtype,
    )
    grad_relation = _scatter_rows(
        rel.shape[0], [(rels, summed_t, True), (rels, summed_h, True)], rel.dtype
    )
    return loss, {"entity_emb": grad_entity, "relation_emb": grad_relation}
