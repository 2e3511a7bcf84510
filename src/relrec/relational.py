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
- No (B, n_neg + 1, d) tensor is held whole.  Each side streams blocks of
  a few triple rows through per-thread buffers twice: once to score the
  candidates, normalize them and sum the weighted residual signs over
  candidates, and once more, recomputing the residuals, to scatter the
  weighted signs.  A row's sums over d and over candidates and its
  softmax depend on that row alone, and each is the same numpy reduction
  of the same row as over the whole tensor, so it keeps its order.
- The head side's residual is tail - relation - candidate, the negation
  of candidate + relation - tail; IEEE rounding is symmetric, so the
  negation is exact and both sides share one code path.
- Each gradient is summed by np.add.at into one float64 array, in the
  order of the loop's np.add.at calls: the tail side's fixed entities,
  then its candidates, then the same for the head side.  np.add.at adds
  sequentially in input order, so every sum is taken in the same order
  however the rows are split into calls.  The sums are taken in float64,
  so with float32 parameters the last bit may differ from float32
  accumulation.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import DataError, GraphFormatError, Vocab, _tsv_rows
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
            raise DataError("schema needs at least one relation")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate relation names")
        if NA_NAME in self.names:
            raise DataError(f"{NA_NAME!r} is reserved for the no-relation row")

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

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        """Sorted keys (head << 31) + tail of the stored (head, tail) pairs,
        then a sentinel above every key.  Entity ids must lie in
        [0, 2**31), so keys stay below 2**62.  Built on first use."""
        pairs = np.array(list(self._pair_relations), dtype=np.int64).reshape(-1, 2)
        if np.any(pairs >> 31):
            raise ValueError("pair keys need entity ids in [0, 2**31)")
        keys = np.sort((pairs[:, 0] << 31) + pairs[:, 1])
        return np.append(keys, np.iinfo(np.int64).max)

    def has_pairs(self, heads, tails) -> np.ndarray:
        """`has_pair` over broadcast arrays of head and tail ids."""
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        query = (heads << 31) + tails
        keys = self._pair_keys
        found = keys[np.searchsorted(keys, query)] == query
        return found & ((heads >> 31) == 0) & ((tails >> 31) == 0)

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
    for lineno, (head, relation, tail) in _tsv_rows(path, 3):
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
    strictly exceeds the NA score).  The NA row is part of the normalizer,
    so the survivor probabilities plus the NA mass sum to one.
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
    scores: np.ndarray, na_scores: np.ndarray, survivors: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(survivors, posterior, na_mass) of (P, n_rel) forward scores and
    (P,) NA scores: a softmax over the NA row and the survivors.
    Survivors, unless given, are the relations scoring strictly above
    their NA score; the posterior is exactly zero off them, and NA keeps
    the rest of the mass."""
    if survivors is None:
        survivors = scores > na_scores[:, None]
    masked = np.where(survivors, scores, -np.inf)
    m = np.maximum(na_scores, masked.max(axis=1, initial=-np.inf))
    exp_na = np.exp(na_scores - m)
    exp_fwd = np.exp(masked - m[:, None])
    z = exp_na + exp_fwd.sum(axis=1)
    return survivors, exp_fwd / z[:, None], exp_na / z


# Pairs per block of the residual grid head + relation - tail: as many as
# fit in 1 MiB, half of a 2 MiB L2 cache.  A large query's whole grid
# (1024 pairs, 5 rows of d = 128) is 5 MiB in float64.
_GRID_BLOCK_BYTES = 1 << 20

# Per-thread buffers for the residual block, the backward's sign grid and
# scoring's association table ("table", apart from the signs, so neither
# reallocates the other and a pending backward keeps its signs; see
# `training._table_probabilities`).  Allocated afresh per call, they were
# page-faulted in again and again: about 140 minor faults per
# quickstart-sized forward and backward, which cost more than the
# arithmetic done in them.  The sign grid is int8, an eighth of a float64
# grid (640 KiB for a large query's 1024 pairs).  Beside the buffers,
# `kept_signs` holds the signs a training step's forward leaves for its
# backward (see `_posterior_grid`, `_residual_signs`).
_workspace = threading.local()


def _scratch(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A `shape` view of this thread's buffer `name`, grown when too small.
    Its contents are undefined, and the next call for `name` in this
    thread overwrites them."""
    size = math.prod(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(size, dtype)
        setattr(_workspace, name, buf)
    return buf[:size].reshape(shape)


def _write_signs(block: np.ndarray, out: np.ndarray) -> None:
    """sign(block) into the int8 array `out`, as (block > 0) - (block < 0):
    two comparisons run about three times faster than np.sign into
    float64, and give its values at every finite residual."""
    less = _scratch("less", block.shape, np.bool_)
    np.greater(block, 0, out=out.view(np.bool_))
    np.less(block, 0, out=less)
    np.subtract(out, less.view(np.int8), out=out)


def _residual_blocks(
    head_rows: np.ndarray,
    head_inverse: np.ndarray,
    entity_emb: np.ndarray,
    pair_tails: np.ndarray,
):
    """Residuals head + relation - tail of consecutive pair blocks.

    `head_rows` (U_h, R, d) holds head + relation per distinct head,
    `head_inverse` (P,) each pair's row in it and `pair_tails` (P,) each
    pair's tail id, whose embeddings are gathered one block at a time.
    Yields (lo, hi, block) with the residuals of
    pairs lo:hi in `block`, this thread's block buffer, which the next
    block overwrites.
    """
    n_pairs = len(head_inverse)
    step = max(1, _GRID_BLOCK_BYTES // head_rows[0].nbytes)
    scratch = _scratch(
        "block", (min(step, n_pairs),) + head_rows.shape[1:], head_rows.dtype
    )
    for lo in range(0, n_pairs, step):
        hi = min(lo + step, n_pairs)
        block = scratch[: hi - lo]
        np.take(head_rows, head_inverse[lo:hi], axis=0, out=block, mode="clip")
        block -= entity_emb[pair_tails[lo:hi]][:, None, :]
        yield lo, hi, block


def _posterior_grid(
    params: ModelParams,
    heads: Distinct,
    pair_tails: np.ndarray,
    frozen_survivors: np.ndarray | None,
    signs: bool = False,
):
    """L1 translation scores of all pairs over the forward rows and the NA
    row, and their thresholded softmax.  Also returns head_rows, the
    (U_h, n_rel + 1, d) head + relation rows of the distinct heads; the
    (P, n_rel + 1, d) residuals are only ever held one block at a time.
    With `signs`, the residual signs are written into this thread's int8
    sign buffer as the blocks pass, for the next `_residual_signs` of
    head_rows (a training step's backward), which then need not rebuild
    the residuals."""
    dims = params.dims
    rows = np.concatenate([np.arange(dims.n_rel), [dims.na_index]])
    # head + relation once per distinct head, then minus each pair's tail.
    head_rows = (
        params.entity_emb[heads.ids][:, None, :]
        + params.relation_emb[rows][None, :, :]
    )
    n_pairs = len(pair_tails)
    all_scores = np.empty((n_pairs, len(rows)), dtype=head_rows.dtype)
    if signs:
        sign_grid = _scratch("signs", (n_pairs,) + head_rows.shape[1:], np.int8)
    for lo, hi, block in _residual_blocks(
        head_rows, heads.inverse, params.entity_emb, pair_tails
    ):
        if signs:
            _write_signs(block, sign_grid[lo:hi])
        np.abs(block, out=block)
        block.sum(axis=2, out=all_scores[lo:hi])
    _workspace.kept_signs = (head_rows, sign_grid) if signs else None
    np.negative(all_scores, out=all_scores)
    scores = all_scores[:, : dims.n_rel]
    na_scores = all_scores[:, dims.n_rel]
    survivors, posterior, na_mass = _thresholded_softmax(
        scores, na_scores, frozen_survivors
    )
    return scores, na_scores, head_rows, survivors, posterior, na_mass


def _residual_signs(
    params: ModelParams,
    head_rows: np.ndarray,
    head_inverse: np.ndarray,
    pair_tails: np.ndarray,
) -> np.ndarray:
    """sign(head + relation - tail) of all pairs, (P, n_rel + 1, d) int8,
    in this thread's sign buffer: valid until the next call.  Signs a
    forward of the same head_rows has just written (see `_posterior_grid`)
    are taken as they are, once; otherwise they are written block by
    block from the rebuilt residuals."""
    kept, _workspace.kept_signs = getattr(_workspace, "kept_signs", None), None
    if kept is not None and kept[0] is head_rows:
        return kept[1]
    signs = _scratch("signs", (len(pair_tails),) + head_rows.shape[1:], np.int8)
    for lo, hi, block in _residual_blocks(
        head_rows, head_inverse, params.entity_emb, pair_tails
    ):
        _write_signs(block, signs[lo:hi])
    return signs


def posterior_from_scores(
    scores: np.ndarray, na_score: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Thresholded softmax over forward-relation scores, one row of
    `_thresholded_softmax`: exactly the relations with scores[k] >
    na_score survive.  Returns (probs, na_mass, survivor_indices)."""
    survivors, probs, na_mass = _thresholded_softmax(
        np.asarray(scores, dtype=np.float64)[None], np.array([float(na_score)]), None
    )
    return probs[0], float(na_mass[0]), np.flatnonzero(survivors[0])


def relation_posterior(params: ModelParams, head: int, tail: int) -> RelationPosterior:
    """Posterior over forward relations for one entity pair, with the NA
    row acting as a learned threshold and absorbing the complementary
    probability mass: one row of `_posterior_grid`."""
    _, na_scores, _, survivors, probs, na_mass = _posterior_grid(
        params, Distinct([head], [0]), [tail], None
    )
    return RelationPosterior(
        probs[0], float(na_scores[0]), float(na_mass[0]), np.flatnonzero(survivors[0])
    )


# Bytes of each per-thread buffer of the relational stage: the residuals
# base - entity of a block of triple rows, their weighted signs, and the
# scatter's values and flat indices, C x d entries per triple row.  At
# large dims (C = 101, d = 128) a block holds 5 triple rows; one side's
# whole (B, C, d) tensor at B = 256 is 26 MB in float64.
_TRIPLE_BLOCK_BYTES = 1 << 19


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


def _add_rows(acc: np.ndarray, offsets: np.ndarray, values: np.ndarray) -> None:
    """Add each d-row of `values` to the flat float64 array `acc` from the
    matching entry of `offsets` on, rows in row-major order.  np.add.at
    adds sequentially in input order, as np.bincount would from zero, so
    every sum keeps its order however the rows are split into calls."""
    index = _scratch("triple_index", values.shape, np.int64)
    np.add(offsets[..., None], np.arange(values.shape[-1]), out=index)
    np.add.at(acc, index.reshape(-1), values.astype(np.float64, copy=False).reshape(-1))


def _residual_rows(ent: np.ndarray, cand: np.ndarray, base: np.ndarray):
    """Residuals base - ent[cand] of consecutive blocks of triple rows.

    `cand` holds (B, C) candidate entity ids and `base` (B, d) each
    triple's fixed side.  Yields (lo, hi, residual) with the (hi - lo, C, d)
    residuals of rows lo:hi in this thread's block buffer, which the next
    block overwrites.
    """
    batch, n_cand = cand.shape
    d = ent.shape[1]
    step = max(1, _TRIPLE_BLOCK_BYTES // (n_cand * d * 8))
    scratch = _scratch("triples", (min(step, batch), n_cand, d), ent.dtype)
    for lo in range(0, batch, step):
        hi = min(lo + step, batch)
        block = scratch[: hi - lo]
        np.take(ent, cand[lo:hi], axis=0, out=block, mode="clip")
        np.subtract(base[lo:hi, None, :], block, out=block)
        yield lo, hi, block


def _side_terms(
    ent: np.ndarray, cand: np.ndarray, base: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sampled-softmax loss of one corruption side with residuals
    u = base - ent[cand], gold first: the loss, the softmax weights minus
    the gold indicator (B, C), and the weighted signs summed over
    candidates (B, d), all in the dtype of `ent`."""
    batch, n_cand = cand.shape
    terms = np.empty(batch, dtype=ent.dtype)
    weight = np.empty((batch, n_cand), dtype=ent.dtype)
    summed = np.empty((batch, ent.shape[1]), dtype=ent.dtype)
    for lo, hi, residual in _residual_rows(ent, cand, base):
        sign = _scratch("triple_signs", residual.shape, ent.dtype)
        np.sign(residual, out=sign)
        scores = -np.abs(residual, out=residual).sum(axis=2)  # (rows, C)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp_shifted = np.exp(shifted)
        log_z = np.log(exp_shifted.sum(axis=1))
        terms[lo:hi] = log_z - shifted[:, 0]
        rows = weight[lo:hi]
        np.divide(exp_shifted, np.exp(log_z)[:, None], out=rows)  # softmax
        rows[:, 0] -= 1.0
        sign *= rows[:, :, None]
        sign.sum(axis=1, out=summed[lo:hi])
    return float(terms.sum()), weight, summed


def _add_candidate_rows(
    acc: np.ndarray,
    ent: np.ndarray,
    cand: np.ndarray,
    base: np.ndarray,
    weight: np.ndarray,
) -> None:
    """Add weight x sign(base - ent[cand]) of each candidate to its entity's
    row of the flat float64 (V, d) `acc`, candidates in row-major order.
    The residuals are recomputed block by block, as `_side_terms` formed
    them.  Sign times weight is exact, so the float64 values equal the
    products in the parameter dtype, and np.add.at takes its fast path."""
    offsets = cand * ent.shape[1]
    for lo, hi, residual in _residual_rows(ent, cand, base):
        values = _scratch("triple_values", residual.shape, np.float64)
        np.sign(residual, out=values)
        values *= weight[lo:hi, :, None]
        _add_rows(acc, offsets[lo:hi], values)


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
    ent = params.entity_emb
    rel = params.relation_emb
    limits = np.array([ent.shape[0], rel.shape[0], ent.shape[0]])
    if np.any((ids < 0) | (ids >= limits)):
        raise ValueError("triple ids out of range")
    heads, rels, tails = ids[:, 0], ids[:, 1], ids[:, 2]
    rng = np.random.default_rng(seed)

    draws = _draw_corruptions(
        np.stack([tails, heads], axis=1), n_neg, params.vocab_size, rng
    )  # (B, 2, n_neg)
    cand_tails = np.concatenate([tails[:, None], draws[:, 0]], axis=1)
    cand_heads = np.concatenate([heads[:, None], draws[:, 1]], axis=1)

    rel_rows = rel[rels]
    # Residual u = base - candidate, base = fixed + s * relation: s = +1 on
    # the tail side, and s = -1 on the head side, whose residual is the
    # negated head + relation - tail.  The score -|u| has d score = -sign(u)
    # for the fixed entity, -s * sign(u) for the relation and +sign(u) for
    # the candidate.
    d = ent.shape[1]
    grad_entity = np.zeros(ent.size)
    grad_relation = np.zeros(rel.size)
    loss = 0.0
    for fixed, cand, base, s in (
        (heads, cand_tails, ent[heads] + rel_rows, 1.0),
        (tails, cand_heads, ent[tails] - rel_rows, -1.0),
    ):
        side_loss, weight, summed = _side_terms(ent, cand, base)
        loss += side_loss
        _add_rows(grad_entity, fixed * d, -summed)
        _add_rows(grad_relation, rels * d, -s * summed)
        _add_candidate_rows(grad_entity, ent, cand, base, weight)
    return loss, {
        "entity_emb": grad_entity.reshape(ent.shape).astype(ent.dtype, copy=False),
        "relation_emb": grad_relation.reshape(rel.shape).astype(rel.dtype, copy=False),
    }
