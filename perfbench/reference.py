"""Independent reference computations for the benchmark's checks.

Everything here is written from the method's definition and the
documented file formats, not from relrec's code: a TSV parser for the
co-occurrence graph and triples, a checkpoint reader, top-N association
recall, and the forward pass from association pairs to the relation
probability.  All arithmetic is float64.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass

import numpy as np

# Absolute tolerance on probabilities, fixed before any run: the
# reference sums in a different order than relrec, which moves float64
# results by a few ulps, far below this.
PROB_TOL = 1e-9
# Relative tolerance on PPMI values (one log of the same ratio).
PPMI_RTOL = 1e-12


@dataclass
class GraphCounts:
    """Merged undirected edge list: lo < hi in first-appearance ids."""

    terms: list[str]
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray  # float64, exact for integer counts below 2**53

    @property
    def marginals(self) -> np.ndarray:
        v = len(self.terms)
        return (np.bincount(self.lo, self.counts, v)
                + np.bincount(self.hi, self.counts, v))

    def pmi(self, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray) -> np.ndarray:
        m = self.marginals
        return np.log(counts * m.sum() / (m[lo] * m[hi]))


def read_graph(path: str) -> GraphCounts:
    """`term_a<TAB>term_b<TAB>count` rows: terms get ids in order of
    first appearance, duplicates are summed, self loops dropped."""
    index: dict[str, int] = {}
    terms: list[str] = []
    a_ids, b_ids, counts = array("q"), array("q"), array("q")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b, c = line.rstrip("\n").split("\t")
            for term in (a, b):
                if term not in index:
                    index[term] = len(terms)
                    terms.append(term)
            if a != b:
                a_ids.append(index[a])
                b_ids.append(index[b])
                counts.append(int(c))
    a_arr = np.frombuffer(a_ids, dtype=np.int64)
    b_arr = np.frombuffer(b_ids, dtype=np.int64)
    lo, hi = np.minimum(a_arr, b_arr), np.maximum(a_arr, b_arr)
    keys, inverse = np.unique(lo * len(terms) + hi, return_inverse=True)
    merged = np.bincount(inverse, np.frombuffer(counts, dtype=np.int64))
    return GraphCounts(terms=terms, lo=keys // len(terms), hi=keys % len(terms),
                       counts=merged.astype(np.float64))


def read_triples(path: str) -> set[tuple[str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        return {tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()}


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header line and the model tensors that follow it as
    little-endian float64 blocks in declared order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    tensors, offset = {}, 0
    for name, shape in header["tensors"]:
        n = int(np.prod(shape)) if shape else 1
        # Copied into fresh arrays, as relrec's own loader does, so BLAS
        # sees the same memory alignment and sums in the same order.
        tensors[name] = np.frombuffer(
            payload, dtype="<f8", count=n, offset=offset).reshape(shape).copy()
        offset += 8 * n
    return header, tensors


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def top_associations(tensors: dict, entity: int, n: int) -> np.ndarray:
    """The n entities most associated with `entity` under the full
    softmax of context . entity logits; the entity itself is excluded
    and ties go to the smaller id."""
    probs = softmax(tensors["context_emb"] @ tensors["entity_emb"][entity])
    ids = np.flatnonzero(np.arange(len(probs)) != entity)
    order = np.lexsort((ids, -probs[ids]))[:n]
    return ids[order]


@dataclass
class Forward:
    heads: np.ndarray
    tails: np.ndarray
    posterior: np.ndarray  # (P, n_rel)
    attn: np.ndarray  # (P,)
    probability: float

    def pair_index(self, head: int, tail: int) -> int:
        hits = np.flatnonzero((self.heads == head) & (self.tails == tail))
        return int(hits[0]) if len(hits) else -1


def forward(tensors: dict, n_rel: int, heads: np.ndarray, tails: np.ndarray) -> Forward:
    """Relation probability from a set of association pairs.

    Scores are negative L1 translation distances.  A forward relation
    survives when it scores above the NA row; survivors and NA share one
    softmax and non-survivors get zero.  The assumption vector mixes the
    forward relation embeddings by that posterior; the pair vector is
    tanh([head; tail; assumption] W + b); attention pools the pair vectors
    and a sigmoid reads out the probability.
    """
    ent, rel = tensors["entity_emb"], tensors["relation_emb"]
    h, t = ent[heads], ent[tails]
    fwd = -np.abs(h[:, None, :] + rel[:n_rel][None, :, :] - t[:, None, :]).sum(axis=2)
    na = -np.abs(h + rel[2 * n_rel] - t).sum(axis=1)
    survives = fwd > na[:, None]
    top = np.maximum(na, np.where(survives, fwd, -np.inf).max(axis=1))
    e_fwd = np.where(survives, np.exp(fwd - top[:, None]), 0.0)
    e_na = np.exp(na - top)
    posterior = e_fwd / (e_na + e_fwd.sum(axis=1))[:, None]
    assumption = posterior @ rel[:n_rel]
    pair = np.tanh(np.concatenate([h, t, assumption], axis=1) @ tensors["pair_weight"]
                   + tensors["pair_bias"])
    hidden = np.tanh(pair @ tensors["attn_weight"].T + tensors["attn_bias"])
    attn = softmax(hidden @ tensors["attn_vector"])
    logit = float(tensors["out_weight"] @ (attn @ pair) + tensors["out_bias"])
    return Forward(heads=heads, tails=tails, posterior=posterior, attn=attn,
                   probability=float(1.0 / (1.0 + np.exp(-logit))))


def cross_pairs(head_assoc: np.ndarray, tail_assoc: np.ndarray):
    return (np.repeat(head_assoc, len(tail_assoc)),
            np.tile(tail_assoc, len(head_assoc)))


def f1(probabilities, labels, threshold: float = 0.5) -> float:
    predicted = np.asarray(probabilities) >= threshold
    actual = np.asarray(labels) == 1
    tp = int(np.sum(predicted & actual))
    denominator = int(np.sum(predicted)) + int(np.sum(actual))
    return 2.0 * tp / denominator if denominator else 0.0
