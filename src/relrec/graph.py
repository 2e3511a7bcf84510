"""Co-occurrence graph store.

Ingests tab-separated co-occurrence counts, builds positive pointwise
mutual information (PPMI) rows, and exposes the empirical association
distribution of each entity (its PPMI row normalized to sum to one).
"""

from __future__ import annotations

import gzip
import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Malformed input file: wrong field count, bad count, unknown name."""


class UnknownTermError(KeyError):
    """A term string is not present in the vocabulary."""

    def __init__(self, term: str, suggestions: tuple[str, ...] = ()):
        super().__init__(term)
        self.term = term
        self.suggestions = tuple(suggestions)

    def __str__(self) -> str:
        if self.suggestions:
            return "unknown term {!r}; closest matches: {}".format(
                self.term, ", ".join(self.suggestions)
            )
        return f"unknown term {self.term!r}"


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


class Vocab:
    """Bijection between term strings and contiguous ids, insertion ordered."""

    def __init__(self, terms=()):
        self.terms: list[str] = []
        self.index: dict[str, int] = {}
        for term in terms:
            self.add(term)

    def add(self, term: str) -> int:
        existing = self.index.get(term)
        if existing is not None:
            return existing
        idx = len(self.terms)
        self.terms.append(term)
        self.index[term] = idx
        return idx

    def id_of(self, term: str) -> int:
        try:
            return self.index[term]
        except KeyError:
            raise UnknownTermError(term, tuple(self.closest(term))) from None

    def term_of(self, idx: int) -> str:
        return self.terms[idx]

    def closest(self, term: str, n: int = 3) -> list[str]:
        """The n vocabulary terms nearest to `term` by edit distance."""
        ranked = sorted(self.terms, key=lambda t: (edit_distance(term, t), t))
        return ranked[:n]

    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.terms).encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.terms == other.terms


@dataclass
class CoocGraph:
    """Undirected weighted co-occurrence graph over a vocabulary.

    Edges are keyed (i, j) with i < j.  `marginals[i]` is the summed count
    of all edges incident to i, and `total` is the sum of all marginals
    (each edge therefore contributes twice).
    """

    vocab: Vocab
    edges: dict[tuple[int, int], int]
    marginals: np.ndarray
    total: float
    self_loops_dropped: int = 0

    @classmethod
    def from_counts(
        cls,
        vocab: Vocab,
        counts: dict[tuple[int, int], int],
        self_loops_dropped: int = 0,
    ) -> "CoocGraph":
        marginals = np.zeros(len(vocab), dtype=np.float64)
        for (i, j), c in counts.items():
            if i >= j:
                raise ValueError(f"edge key must have i < j, got {(i, j)}")
            marginals[i] += c
            marginals[j] += c
        return cls(
            vocab=vocab,
            edges=counts,
            marginals=marginals,
            total=float(marginals.sum()),
            self_loops_dropped=self_loops_dropped,
        )

    def count(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        return self.edges.get(key, 0)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _open_text(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def load_cooc_graph(path: str) -> CoocGraph:
    """Load `term_a<TAB>term_b<TAB>count` rows (optionally gzipped).

    Duplicate pairs are summed regardless of orientation.  Self loops are
    dropped (counted on the returned graph and logged).  Counts must be
    positive integers; anything else raises GraphFormatError with the
    offending line number.
    """
    vocab = Vocab()
    counts: dict[tuple[int, int], int] = {}
    dropped = 0
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise GraphFormatError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, "
                    f"got {len(fields)}"
                )
            term_a, term_b, count_str = fields
            if not term_a or not term_b:
                raise GraphFormatError(
                    f"{path}: line {lineno}: empty term name"
                )
            if not (count_str.isascii() and count_str.isdigit()):
                raise GraphFormatError(
                    f"{path}: line {lineno}: count must be a positive "
                    f"integer, got {count_str!r}"
                )
            count = int(count_str)
            if count <= 0:
                raise GraphFormatError(
                    f"{path}: line {lineno}: count must be positive, "
                    f"got {count}"
                )
            a = vocab.add(term_a)
            b = vocab.add(term_b)
            if a == b:
                dropped += 1
                continue
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + count
    if dropped:
        logger.warning("%s: dropped %d self-loop line(s)", path, dropped)
    return CoocGraph.from_counts(vocab, counts, self_loops_dropped=dropped)


def dump_cooc_graph(graph: CoocGraph, path: str) -> None:
    """Write the merged edge list as TSV, ordered by (i, j) id pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        for (i, j) in sorted(graph.edges):
            fh.write(
                f"{graph.vocab.term_of(i)}\t{graph.vocab.term_of(j)}\t"
                f"{graph.edges[(i, j)]}\n"
            )


@dataclass
class PpmiMatrix:
    """Sparse symmetric matrix of positive PMI values, stored per row.

    pmi(i, j) = ln(count_ij * total / (marginal_i * marginal_j)); only
    strictly positive values are kept.  Each edge value is computed once
    and stored in both rows, so the matrix is bitwise symmetric.
    """

    n_entities: int
    neighbor_ids: list[np.ndarray]
    values: list[np.ndarray]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.neighbor_ids[i], self.values[i]

    def value(self, i: int, j: int) -> float:
        ids, vals = self.row(i)
        pos = np.searchsorted(ids, j)
        if pos < len(ids) and ids[pos] == j:
            return float(vals[pos])
        return 0.0

    def entities_with_support(self) -> np.ndarray:
        return np.array(
            [i for i in range(self.n_entities) if len(self.neighbor_ids[i])],
            dtype=np.int64,
        )


def compute_ppmi(graph: CoocGraph) -> PpmiMatrix:
    if not graph.edges:
        raise ValueError("cannot compute PPMI of a graph with no edges")
    n = len(graph.vocab)
    ids: list[list[int]] = [[] for _ in range(n)]
    vals: list[list[float]] = [[] for _ in range(n)]
    for (i, j), c in graph.edges.items():
        pmi = math.log(
            c * graph.total / (graph.marginals[i] * graph.marginals[j])
        )
        if pmi > 0.0:
            ids[i].append(j)
            vals[i].append(pmi)
            ids[j].append(i)
            vals[j].append(pmi)
    neighbor_ids = []
    values = []
    for i in range(n):
        row_ids = np.asarray(ids[i], dtype=np.int64)
        row_vals = np.asarray(vals[i], dtype=np.float64)
        order = np.argsort(row_ids)
        neighbor_ids.append(row_ids[order])
        values.append(row_vals[order])
    return PpmiMatrix(n_entities=n, neighbor_ids=neighbor_ids, values=values)


@dataclass
class EmpiricalDist:
    """Target association distribution of one entity: its PPMI row
    normalized to a probability vector."""

    entity: int
    neighbor_ids: np.ndarray
    probs: np.ndarray

    @property
    def is_empty(self) -> bool:
        return len(self.neighbor_ids) == 0


def empirical_context_dist(ppmi: PpmiMatrix, entity: int) -> EmpiricalDist:
    """Normalize one PPMI row.  Entities with no positive-PPMI neighbors
    get an empty distribution; callers are expected to skip them."""
    if not 0 <= entity < ppmi.n_entities:
        raise IndexError(f"entity id {entity} out of range")
    ids, vals = ppmi.row(entity)
    if len(ids) == 0:
        return EmpiricalDist(
            entity=entity,
            neighbor_ids=ids.copy(),
            probs=np.zeros(0, dtype=np.float64),
        )
    return EmpiricalDist(entity=entity, neighbor_ids=ids, probs=vals / vals.sum())
