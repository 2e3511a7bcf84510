"""Co-occurrence graph loading, PPMI construction, and vocabulary."""

import gzip
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relrec.graph as graph_module
from relrec.graph import (
    CoocGraph,
    GraphFormatError,
    PpmiMatrix,
    UnknownTermError,
    Vocab,
    compute_ppmi,
    dump_cooc_graph,
    edit_distance,
    load_cooc_graph,
)

def full_edit_distance(a, b):
    """The textbook Levenshtein table, every cell computed."""
    table = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


# Frozen hand values.
LN_1_5 = 0.4054651081081644  # ln(3/2)
LN_2 = 0.6931471805599453


def triangle_graph() -> CoocGraph:
    vocab = Vocab(["a", "b", "c"])
    return CoocGraph.from_counts(vocab, {(0, 1): 1, (0, 2): 1, (1, 2): 1})


class TestVocab:
    def test_round_trip_and_membership(self):
        vocab = Vocab(["alpha", "beta"])
        assert len(vocab) == 2
        assert vocab.id_of("beta") == 1
        assert vocab.term_of(0) == "alpha"
        assert "alpha" in vocab and "gamma" not in vocab

    def test_add_is_idempotent(self):
        vocab = Vocab()
        assert vocab.add("x") == 0
        assert vocab.add("x") == 0
        assert vocab.add("y") == 1

    def test_unknown_term_error_carries_suggestions(self):
        vocab = Vocab(["apple", "apricot", "banana"])
        with pytest.raises(UnknownTermError) as exc_info:
            vocab.id_of("aple")
        err = exc_info.value
        assert err.term == "aple"
        assert "apple" in err.suggestions
        assert "apple" in str(err)

    def test_closest_orders_by_distance_then_term(self):
        vocab = Vocab(["bat", "cat", "rat", "zzz"])
        # All of bat/cat/rat are distance 1 from "hat"; ties break
        # alphabetically and "zzz" (distance 3) comes last.
        assert vocab.closest("hat", n=4) == ["bat", "cat", "rat", "zzz"]

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(st.text(alphabet="abc", max_size=7), max_size=25, unique=True),
        query=st.text(alphabet="abcd", max_size=8),
        n=st.integers(min_value=1, max_value=6),
    )
    def test_closest_equals_brute_force(self, terms, query, n):
        # A three-letter alphabet gives many equal distances and lengths.
        expected = sorted(terms, key=lambda t: (edit_distance(query, t), t))[:n]
        assert Vocab(terms).closest(query, n=n) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(
            st.text(alphabet="e0123", min_size=1, max_size=6), max_size=40, unique=True
        ),
        query=st.text(alphabet="e01234x", max_size=8),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_closest_equals_full_dp_ranking(self, terms, query, n):
        # Terms like the eNNNN vocabularies, where many share a length and
        # the bounded programs stop at different rows.
        expected = sorted(terms, key=lambda t: (full_edit_distance(query, t), t))[:n]
        assert Vocab(terms).closest(query, n=n) == expected

    @settings(max_examples=500, deadline=None)
    @given(
        a=st.text(alphabet="abc", max_size=9),
        b=st.text(alphabet="abc", max_size=9),
        bound=st.integers(min_value=0, max_value=10),
    )
    def test_bounded_edit_distance_is_exact_up_to_the_bound(self, a, b, bound):
        full = full_edit_distance(a, b)
        assert edit_distance(a, b) == full
        assert edit_distance(a, b, bound) == min(full, bound + 1)

    def test_sha256_depends_on_order(self):
        assert Vocab(["a", "b"]).sha256() != Vocab(["b", "a"]).sha256()
        assert Vocab(["a", "b"]).sha256() == Vocab(["a", "b"]).sha256()

    def test_equality(self):
        assert Vocab(["a", "b"]) == Vocab(["a", "b"])
        assert Vocab(["a", "b"]) != Vocab(["b", "a"])


class TestEditDistance:
    def test_classic_value(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_identity_and_empty(self):
        assert edit_distance("same", "same") == 0
        assert edit_distance("", "abc") == 3


class TestCoocGraph:
    def test_from_counts_normalizes_orientation(self):
        graph = triangle_graph()
        assert graph.count(1, 0) == 1
        assert graph.count(0, 1) == 1
        assert graph.n_edges == 3

    def test_marginals_and_total(self):
        graph = triangle_graph()
        # Each entity touches two unit edges, and the grand total counts
        # each edge from both endpoints.
        assert graph.marginals.tolist() == [2.0, 2.0, 2.0]
        assert graph.total == 6.0

    def test_missing_edge_count_is_zero(self):
        vocab = Vocab(["a", "b", "c"])
        graph = CoocGraph.from_counts(vocab, {(0, 1): 4})
        assert graph.count(0, 2) == 0


class TestLoader:
    def test_loads_and_merges_duplicates(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t2\nb\ta\t3\nb\tc\t1\n\n")
        graph = load_cooc_graph(str(path))
        a, b, c = (graph.vocab.id_of(t) for t in "abc")
        assert graph.count(a, b) == 5
        assert graph.count(b, c) == 1
        assert graph.self_loops_dropped == 0

    def test_self_loops_dropped_and_counted(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\ta\t7\na\tb\t1\n")
        graph = load_cooc_graph(str(path))
        assert graph.self_loops_dropped == 1
        assert graph.n_edges == 1

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "edges.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("x\ty\t4\n")
        graph = load_cooc_graph(str(path))
        assert graph.count(0, 1) == 4

    @pytest.mark.parametrize(
        "line",
        [
            "a\tb",  # too few fields
            "a\tb\t1\textra",  # too many fields
            "a\tb\t0",  # zero count
            "a\tb\t-2",  # negative count
            "a\tb\t1.5",  # non-integer count
            "\tb\t1",  # empty term
            "a\tb\t\u00b2",  # superscript two: a digit to str.isdigit, not to int
            "a\tb\t\u0663",  # Arabic-Indic three: non-ASCII digit
            "a\tb\t9223372036854775808",  # 2**63: past int64
        ],
    )
    def test_malformed_lines_raise_with_location(self, tmp_path, line):
        path = tmp_path / "edges.tsv"
        path.write_text("good\tpair\t1\n" + line + "\n")
        with pytest.raises(GraphFormatError) as exc_info:
            load_cooc_graph(str(path))
        message = str(exc_info.value)
        assert "edges.tsv" in message
        assert "line 2" in message
        # The same line past the first 1 MB chunk of regular lines gets
        # the same message with its own line number.
        n_good = 1 + (1 << 20) // len("good\tpair\t1\n")
        path.write_text("good\tpair\t1\n" * n_good + line + "\n")
        with pytest.raises(GraphFormatError) as exc_info:
            load_cooc_graph(str(path))
        assert str(exc_info.value) == message.replace(
            "line 2:", f"line {n_good + 1}:"
        )

    def test_summed_count_past_int64_is_format_error(self, tmp_path):
        path = tmp_path / "edges.tsv"
        half = 2**62
        path.write_text(f"a\tb\t{half}\nb\ta\t{half}\n")
        with pytest.raises(GraphFormatError, match="edges.tsv.*64 bits"):
            load_cooc_graph(str(path))
        path.write_text(f"a\tb\t{half}\nb\ta\t{half - 1}\n")
        assert load_cooc_graph(str(path)).count(0, 1) == 2**63 - 1

    def test_dump_round_trip_preserves_ppmi_bitwise(self, tmp_path):
        vocab = Vocab(["n0", "n1", "n2", "n3"])
        graph = CoocGraph.from_counts(
            vocab, {(0, 1): 3, (1, 2): 5, (2, 3): 2, (0, 3): 7}
        )
        path = tmp_path / "dump.tsv"
        dump_cooc_graph(graph, str(path))
        reloaded = load_cooc_graph(str(path))
        ppmi_a = compute_ppmi(graph)
        ppmi_b = compute_ppmi(reloaded)
        for term_i in vocab.terms:
            for term_j in vocab.terms:
                if term_i == term_j:
                    continue
                va = ppmi_a.value(vocab.id_of(term_i), vocab.id_of(term_j))
                vb = ppmi_b.value(
                    reloaded.vocab.id_of(term_i), reloaded.vocab.id_of(term_j)
                )
                assert va == vb  # bitwise


class TestPpmi:
    def test_triangle_value(self):
        # Unit triangle: count 1, marginals 2 and 2, grand total 6, so
        # every edge scores ln(1*6 / 4) = ln 1.5.
        ppmi = compute_ppmi(triangle_graph())
        assert ppmi.value(0, 1) == LN_1_5
        assert ppmi.value(1, 2) == LN_1_5

    def test_single_edge_value(self):
        vocab = Vocab(["a", "b"])
        graph = CoocGraph.from_counts(vocab, {(0, 1): 5})
        # count 5, marginals 5 and 5, total 10: ln(5*10 / 25) = ln 2.
        ppmi = compute_ppmi(graph)
        assert ppmi.value(0, 1) == LN_2

    def test_symmetry_is_bitwise(self):
        rng = np.random.default_rng(0)
        vocab = Vocab([f"t{i}" for i in range(10)])
        counts = {}
        for _ in range(25):
            i, j = sorted(rng.choice(10, size=2, replace=False).tolist())
            counts[(int(i), int(j))] = int(rng.integers(1, 50))
        ppmi = compute_ppmi(CoocGraph.from_counts(vocab, counts))
        for (i, j) in counts:
            assert ppmi.value(i, j) == ppmi.value(j, i)

    def test_negative_pmi_edges_are_dropped(self):
        # A weak link between two otherwise strongly-connected hubs:
        # pmi(b,c) = ln(1*402 / (101*101)) < 0 while both hub edges stay.
        vocab = Vocab(["a", "b", "c"])
        graph = CoocGraph.from_counts(vocab, {(0, 1): 100, (0, 2): 100, (1, 2): 1})
        ppmi = compute_ppmi(graph)
        assert ppmi.value(1, 2) == 0.0
        assert ppmi.value(0, 1) > 0.0
        ids, _ = ppmi.row(1)
        assert ids.tolist() == [0]

    def test_count_scaling_invariance(self):
        vocab = Vocab([f"t{i}" for i in range(6)])
        counts = {(0, 1): 2, (1, 2): 7, (2, 3): 1, (3, 4): 9, (4, 5): 4, (0, 5): 3}
        base = compute_ppmi(CoocGraph.from_counts(vocab, counts))
        scaled_counts = {k: 13 * v for k, v in counts.items()}
        scaled = compute_ppmi(CoocGraph.from_counts(vocab, scaled_counts))
        for (i, j) in counts:
            assert abs(base.value(i, j) - scaled.value(i, j)) <= 1e-12

    def test_empty_graph_rejected(self):
        vocab = Vocab(["a", "b"])
        graph = CoocGraph.from_counts(vocab, {})
        with pytest.raises(ValueError):
            compute_ppmi(graph)

    def test_entities_with_support(self):
        vocab = Vocab(["a", "b", "c", "d"])
        graph = CoocGraph.from_counts(vocab, {(0, 1): 2})
        ppmi = compute_ppmi(graph)
        assert ppmi.entities_with_support().tolist() == [0, 1]


def oracle_load(path):
    """The per-line loader the array store replaced: vocabulary terms,
    {(i, j): count} with i < j, float marginals, total, self loops."""
    terms, index, edges, dropped = [], {}, {}, 0

    def add(term):
        if term not in index:
            index[term] = len(terms)
            terms.append(term)
        return index[term]

    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            term_a, term_b, count_str = line.split("\t")
            a, b = add(term_a), add(term_b)
            if a == b:
                dropped += 1
                continue
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + int(count_str)
    marginals = np.zeros(len(terms), dtype=np.float64)
    for (i, j), c in edges.items():
        marginals[i] += c
        marginals[j] += c
    return terms, edges, marginals, float(marginals.sum()), dropped


def oracle_ppmi(edges, marginals, total):
    """Per-edge math.log into per-row lists, each row sorted by id."""
    rows = [[] for _ in marginals]
    for (i, j), c in edges.items():
        pmi = math.log(c * total / (marginals[i] * marginals[j]))
        if pmi > 0.0:
            rows[i].append((j, pmi))
            rows[j].append((i, pmi))
    return [sorted(row) for row in rows]


# Terms from a small pool, so pairs repeat in both orientations; the
# pool holds non-ASCII letters, a space and U+2028, which str.splitlines
# would treat as a line break but the TSV format does not.
TERMS = st.text(alphabet="ab\u00e9\u65e5 \u2028", min_size=1, max_size=2)
# Each row is an edge line (counts sometimes zero-padded) or blank.
ROWS = st.lists(
    st.one_of(
        st.builds(
            lambda a, b, count, zeros: f"{a}\t{b}\t{'0' * zeros}{count}",
            TERMS, TERMS, st.integers(1, 2**40), st.integers(0, 2),
        ),
        st.just(""),
    ),
    max_size=40,
)


class TestArrayStoreEquivalence:
    """The array store against the per-line, per-edge oracle above."""

    @settings(max_examples=120, deadline=None)
    @given(
        rows=ROWS,
        newline=st.sampled_from(["\n", "\r\n"]),
        final_newline=st.booleans(),
        gz=st.booleans(),
        chunk_chars=st.sampled_from([1 << 20, 1, 23, 64]),
    )
    def test_matches_oracle(self, rows, newline, final_newline, gz, chunk_chars):
        text = newline.join(rows) + (newline if final_newline and rows else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edges.tsv" + (".gz" if gz else ""))
            opener = gzip.open if gz else open
            with opener(path, "wt", encoding="utf-8", newline="") as fh:
                fh.write(text)
            terms, edges, marginals, total, dropped = oracle_load(path)
            with mock.patch.object(graph_module, "_CHUNK_CHARS", chunk_chars):
                graph = load_cooc_graph(path)

        assert graph.vocab.terms == terms
        expected = [(i, j, edges[i, j]) for i, j in sorted(edges)]
        assert np.array_equal(
            np.stack([graph.lo, graph.hi, graph.counts], axis=1),
            np.array(expected, dtype=np.int64).reshape(-1, 3),
        )
        assert graph.lo.dtype == graph.hi.dtype == graph.counts.dtype == np.int64
        assert graph.marginals.dtype == np.float64
        assert graph.marginals.tobytes() == marginals.tobytes()
        assert graph.total == total
        assert graph.self_loops_dropped == dropped
        if not edges:
            return
        ppmi = compute_ppmi(graph)
        for i, expected in enumerate(oracle_ppmi(edges, marginals, total)):
            ids, vals = ppmi.row(i)
            assert ids.tolist() == [j for j, _ in expected]
            assert vals.tobytes() == np.array(
                [v for _, v in expected], dtype=np.float64
            ).tobytes()
        assert ppmi.entities_with_support().tolist() == [
            i for i in range(len(terms)) if ppmi.row(i)[0].size
        ]

    @pytest.mark.parametrize("n_terms", [200, 600])
    def test_generated_graph_matches_oracle_within_memory_bound(
        self, n_terms, traced_peak
    ):
        # A few thousand edges over 200 ids (8-bit sort keys for the lower
        # row parts) or 600 ids (16-bit keys); the last 20 ids have none.
        rng = np.random.default_rng(n_terms)
        a = rng.integers(0, n_terms - 20, 5000)
        b = rng.integers(0, n_terms - 20, 5000)
        keep = a != b
        counts = rng.integers(1, 1000, 5000)[keep]
        vocab = Vocab([f"t{i}" for i in range(n_terms)])
        graph = CoocGraph.from_edges(vocab, a[keep], b[keep], counts)
        # Held: the CSR arrays and the per-row views of the result.
        ppmi, peak, held = traced_peak(lambda: compute_ppmi(graph))
        assert peak < 2.0 * held
        edges = {
            (i, j): c
            for i, j, c in zip(
                graph.lo.tolist(), graph.hi.tolist(), graph.counts.tolist()
            )
        }
        rows = oracle_ppmi(edges, graph.marginals, graph.total)
        assert [len(row) for row in rows].count(0) >= 20
        for i, expected in enumerate(rows):
            ids, vals = ppmi.row(i)
            assert ids.tolist() == [j for j, _ in expected]
            assert vals.tobytes() == np.array(
                [v for _, v in expected], dtype=np.float64
            ).tobytes()

    def test_regular_chunk_is_split_whole(self):
        tokens, counts = graph_module._split_chunk("a\tb\t3\nb\t\u65e5\t0012\n")
        assert tokens == ["a", "b", "b", "\u65e5"]
        assert counts.tolist() == [3, 12]
        assert counts.dtype == np.int64

    @pytest.mark.parametrize(
        "text",
        [
            "a\tb\t3\n\n",  # blank line
            "a\tb\t3\textra\nc\t4\n",  # four and two fields: six in all
            "a\tb\t0\n",  # zero count
            "a\tb\t\u00b2\n",  # non-ASCII digit
            "a\tb\t1234567890123456789\n",  # 19 digits: may pass int64
        ],
    )
    def test_irregular_chunk_goes_line_by_line(self, text):
        assert graph_module._split_chunk(text) is None

    def test_from_counts_sorts_edges_and_dump_follows_them(self, tmp_path):
        vocab = Vocab(["x", "y", "z"])
        graph = CoocGraph.from_counts(vocab, {(1, 2): 4, (0, 2): 1, (0, 1): 3})
        assert graph.lo.tolist() == [0, 0, 1]
        assert graph.hi.tolist() == [1, 2, 2]
        assert graph.counts.tolist() == [3, 1, 4]
        path = tmp_path / "dump.tsv"
        dump_cooc_graph(graph, str(path))
        assert path.read_text() == "x\ty\t3\nx\tz\t1\ny\tz\t4\n"

    def test_from_counts_rejects_unordered_key(self):
        with pytest.raises(ValueError, match="i < j"):
            CoocGraph.from_counts(Vocab(["a", "b"]), {(1, 0): 2})
