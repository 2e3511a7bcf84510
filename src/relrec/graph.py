"""Co-occurrence graph store.

Ingests tab-separated co-occurrence counts and builds the positive
pointwise mutual information (PPMI) rows that the recall stage fits.

Layout.  `CoocGraph` keeps the merged undirected edges as three int64
arrays in coordinate (COO) form: `lo < hi` entity ids, sorted by
`(lo, hi)`, and their summed `counts`.  `PpmiMatrix` keeps the positive
PMI values in compressed sparse row (CSR) form: row i holds
`indices[indptr[i]:indptr[i + 1]]` in ascending id order and the values
`data` at the same positions; `neighbor_ids` and `values` are per-row
views into those two arrays.

Ingest.  The loader reads about 1 MB of whole lines at a time.  A chunk
in which every line has two tabs, three non-empty fields and a count of
at most 18 ASCII digits is validated and split as a whole; any other
chunk (blank lines, longer counts, or an error to report) is parsed line
by line with its absolute line numbers, so both give the same
vocabulary order, edges and error messages.  Tokenizing a whole file at
once would hold every term string of it in memory at the same time.

PMI values are taken with `math.log`, one value at a time, not with
`np.log`: the two differ in the last bit on about 0.1% of the ratios,
and every stored value, and so every trained model, is meant to stay
the same bit for bit.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Input the pipeline cannot use: a malformed or unreadable file, an
    impossible request (exhausted sampling pools, bad ratios) or data that
    fails training's preconditions.  The CLI exits 2 on it."""


class GraphFormatError(DataError):
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


_INT64_MAX = np.iinfo(np.int64).max
# Characters of whole lines read and parsed together by load_cooc_graph.
_CHUNK_CHARS = 1 << 20


@dataclass
class CoocGraph:
    """Undirected weighted co-occurrence graph over a vocabulary.

    Edge k joins `lo[k] < hi[k]` with summed count `counts[k]`; the
    edges are sorted by `(lo, hi)` and unique.  `marginals[i]` is the
    summed count of all edges incident to i, and `total` is the sum of
    all marginals (each edge therefore contributes twice).  Both are
    float64, exact while the sums stay below 2**53.
    """

    vocab: Vocab
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
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
        pairs = np.fromiter(
            (i for key in counts for i in key), dtype=np.int64, count=2 * len(counts)
        ).reshape(-1, 2)
        bad = np.flatnonzero(pairs[:, 0] >= pairs[:, 1])
        if len(bad):
            raise ValueError(
                f"edge key must have i < j, got {tuple(pairs[bad[0]].tolist())}"
            )
        values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        return cls.from_edges(
            vocab, pairs[:, 0], pairs[:, 1], values, self_loops_dropped
        )

    @classmethod
    def from_edges(
        cls,
        vocab: Vocab,
        a: np.ndarray,
        b: np.ndarray,
        counts: np.ndarray,
        self_loops_dropped: int = 0,
    ) -> "CoocGraph":
        """Merge an edge list with no self loops: duplicates in either
        orientation are summed with integer adds."""
        n = len(vocab)
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
        del order
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
        _check_merged_counts_fit(counts, starts)
        keys, counts = keys[starts], np.add.reduceat(counts, starts)
        lo, hi = np.divmod(keys, n)
        weights = counts.astype(np.float64)
        marginals = np.zeros(n)
        for end in (lo, hi):
            marginals += np.bincount(end, weights, n)
        return cls(
            vocab=vocab,
            lo=lo,
            hi=hi,
            counts=counts,
            marginals=marginals,
            total=float(marginals.sum()),
            self_loops_dropped=self_loops_dropped,
        )

    def count(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        start, stop = np.searchsorted(self.lo, (i, i + 1))
        pos = start + int(np.searchsorted(self.hi[start:stop], j))
        if pos < stop and self.hi[pos] == j:
            return int(self.counts[pos])
        return 0

    @property
    def n_edges(self) -> int:
        return len(self.counts)


def _check_merged_counts_fit(counts: np.ndarray, starts: np.ndarray) -> None:
    """int64 adds wrap silently.  A summed count can pass the int64 range
    only when all counts together come near it, and then the sums are
    redone with Python integers."""
    if counts.sum(dtype=np.float64) < 2.0**62:
        return
    groups = np.split(counts, starts[1:])
    if any(sum(group.tolist()) > _INT64_MAX for group in groups):
        raise GraphFormatError("a summed pair count does not fit in 64 bits")


@contextlib.contextmanager
def _open_text(path: str):
    """A text file, gunzipped when its name ends in .gz.  Bytes that are
    not (gzipped) UTF-8 raise GraphFormatError naming the path, whether
    on opening or while the caller reads."""
    gz = str(path).endswith(".gz")
    try:
        with (gzip.open(path, "rt", encoding="utf-8") if gz
              else open(path, "r", encoding="utf-8")) as fh:
            yield fh
    except (gzip.BadGzipFile, EOFError, UnicodeDecodeError) as exc:
        kind = "gzipped UTF-8" if gz else "UTF-8"
        raise GraphFormatError(f"{path}: not {kind} text: {exc}") from None


def _tsv_rows(path: str, n_fields: int):
    """Yield (line number, fields) for each non-blank line of a TSV file
    opened by `_open_text`.  Text mode reads CRLF and CR line endings as
    newlines.  A line without exactly `n_fields` tab-separated fields
    raises GraphFormatError."""
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise GraphFormatError(
                    f"{path}: line {lineno}: expected {n_fields} tab-separated "
                    f"fields, got {len(fields)}"
                )
            yield lineno, fields


def _split_chunk(text: str) -> tuple[list[str], np.ndarray] | None:
    """Terms (a, b of each line in turn) and counts of whole lines that
    end in a newline, or None when they need per-line parsing."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    tabs = np.flatnonzero(raw == 9)
    ends = np.flatnonzero(raw == 10)
    if len(tabs) != 2 * len(ends):
        return None
    first, second = tabs[0::2], tabs[1::2]
    starts = np.concatenate(([-1], ends[:-1]))
    # Tabs 2k and 2k+1 inside line k with a non-empty field on each side,
    # and counts of at most 18 bytes, so that they fit in int64.
    if not (
        np.all(first > starts + 1)
        and np.all(second > first + 1)
        and np.all(ends > second + 1)
        and np.all(ends - second <= 19)
    ):
        return None
    tokens = text.replace("\n", "\t").split("\t")
    tokens.pop()
    count_strs = tokens[2::3]
    digits = "".join(count_strs)
    if not (digits.isascii() and digits.isdigit()):
        return None
    counts = np.fromiter(map(int, count_strs), np.int64, len(count_strs))
    if not np.all(counts > 0):
        return None
    del tokens[2::3]
    return tokens, counts


def _parse_lines(
    lines: list[str], index: dict[str, int], path: str, first_lineno: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-line parsing of one chunk whose first line is `first_lineno`:
    accepts blank lines and reports the first malformed line."""
    ids: list[int] = []
    counts: list[int] = []
    for lineno, line in enumerate(lines, start=first_lineno):
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
            raise GraphFormatError(f"{path}: line {lineno}: empty term name")
        if not (count_str.isascii() and count_str.isdigit()):
            raise GraphFormatError(
                f"{path}: line {lineno}: count must be a positive "
                f"integer, got {count_str!r}"
            )
        count = int(count_str)
        if count <= 0:
            raise GraphFormatError(
                f"{path}: line {lineno}: count must be positive, got {count}"
            )
        if count > _INT64_MAX:
            raise GraphFormatError(
                f"{path}: line {lineno}: count does not fit in 64 bits, "
                f"got {count}"
            )
        ids.append(index[term_a])
        ids.append(index[term_b])
        counts.append(count)
    return np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64)


def load_cooc_graph(path: str) -> CoocGraph:
    """Load `term_a<TAB>term_b<TAB>count` rows (optionally gzipped).

    Duplicate pairs are summed regardless of orientation.  Self loops are
    dropped (counted on the returned graph and logged).  Counts must be
    positive integers that fit in int64; anything else raises
    GraphFormatError with the offending line number.
    """
    # Term -> id, a new term taking the next id on first lookup.
    index: dict[str, int] = defaultdict(itertools.count().__next__)
    id_chunks: list[np.ndarray] = []
    count_chunks: list[np.ndarray] = []
    lineno = 1
    with _open_text(path) as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            first_lineno, lineno = lineno, lineno + len(lines)
            text = "".join(lines)
            del lines  # one copy of the chunk at a time
            if not text.endswith("\n"):
                text += "\n"
            split = _split_chunk(text)
            if split is None:
                ids, counts = _parse_lines(
                    text.split("\n")[:-1], index, path, first_lineno
                )
            else:
                tokens, counts = split
                ids = np.fromiter(
                    map(index.__getitem__, tokens), np.int64, len(tokens)
                )
            id_chunks.append(ids)
            count_chunks.append(counts)
    vocab = Vocab(index)
    ids = np.concatenate(id_chunks) if id_chunks else np.zeros(0, np.int64)
    counts = np.concatenate(count_chunks) if count_chunks else np.zeros(0, np.int64)
    del id_chunks, count_chunks
    a, b = ids[0::2], ids[1::2]
    keep = a != b
    dropped = len(keep) - int(keep.sum())
    if dropped:
        logger.warning("%s: dropped %d self-loop line(s)", path, dropped)
        a, b, counts = a[keep], b[keep], counts[keep]
    try:
        return CoocGraph.from_edges(vocab, a, b, counts, self_loops_dropped=dropped)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def dump_cooc_graph(graph: CoocGraph, path: str) -> None:
    """Write the merged edge list as TSV, ordered by (i, j) id pairs."""
    terms = graph.vocab.terms
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{terms[i]}\t{terms[j]}\t{c}\n"
            for i, j, c in zip(
                graph.lo.tolist(), graph.hi.tolist(), graph.counts.tolist()
            )
        )


@dataclass
class PpmiMatrix:
    """Sparse symmetric matrix of positive PMI values in CSR form.

    pmi(i, j) = ln(count_ij * total / (marginal_i * marginal_j)); only
    strictly positive values are kept.  Each edge value is computed once
    and stored in both rows, so the matrix is bitwise symmetric.
    """

    n_entities: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    neighbor_ids: list[np.ndarray] = field(init=False, repr=False)
    values: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cuts = self.indptr[1:-1]
        self.neighbor_ids = np.split(self.indices, cuts)
        self.values = np.split(self.data, cuts)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.neighbor_ids[i], self.values[i]

    def value(self, i: int, j: int) -> float:
        ids, vals = self.row(i)
        pos = np.searchsorted(ids, j)
        if pos < len(ids) and ids[pos] == j:
            return float(vals[pos])
        return 0.0

    def entities_with_support(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.indptr))


def compute_ppmi(graph: CoocGraph) -> PpmiMatrix:
    if graph.n_edges == 0:
        raise DataError("cannot compute PPMI of a graph with no edges")
    n = len(graph.vocab)
    m = graph.marginals
    ratio = graph.counts * graph.total
    denominator = m[graph.lo]
    denominator *= m[graph.hi]
    ratio /= denominator
    del denominator
    keep = ratio > 1.0
    pmi = ratio[keep]
    del ratio
    pmi = np.fromiter(map(math.log, memoryview(pmi)), np.float64, len(pmi))
    lo, hi = graph.lo[keep], graph.hi[keep]
    del keep
    # Row r is its lower part, the lo of each edge with hi == r, then its
    # upper part, the hi of each edge with lo == r: ascending ids.  The
    # edges, sorted by (lo, hi), fill the upper parts in order; sorted
    # stably by hi (a radix sort of narrow keys), they fill the lower parts.
    order = np.argsort(hi.astype(np.min_scalar_type(n - 1)), kind="stable")
    n_lower = np.bincount(hi, minlength=n)
    n_upper = np.bincount(lo, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_lower + n_upper, out=indptr[1:])
    runs = np.stack([n_lower, n_upper], axis=1).ravel()
    lower = np.repeat(np.tile([True, False], n), runs)
    upper = ~lower
    indices = np.empty(len(lower), dtype=np.int64)
    indices[upper] = hi
    indices[lower] = np.take(lo, order, out=hi)  # hi is placed: reuse it
    del lo, hi
    data = np.empty(len(lower))
    data[upper] = pmi
    data[lower] = pmi[order]
    return PpmiMatrix(n_entities=n, indptr=indptr, indices=indices, data=data)
