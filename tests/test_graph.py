"""Co-occurrence graph loading, PPMI construction, and vocabulary."""

import gzip
import math

import numpy as np
import pytest

from relrec.graph import (
    CoocGraph,
    GraphFormatError,
    PpmiMatrix,
    UnknownTermError,
    Vocab,
    compute_ppmi,
    dump_cooc_graph,
    edit_distance,
    empirical_context_dist,
    load_cooc_graph,
)

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


class TestEmpiricalDist:
    def test_probabilities_normalize(self):
        ppmi = compute_ppmi(triangle_graph())
        dist = empirical_context_dist(ppmi, 0)
        assert not dist.is_empty
        assert dist.neighbor_ids.tolist() == [1, 2]
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        # Equal PPMI values split the mass evenly.
        assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-15)

    def test_isolated_entity_is_empty(self):
        vocab = Vocab(["a", "b", "c"])
        graph = CoocGraph.from_counts(vocab, {(0, 1): 2})
        ppmi = compute_ppmi(graph)
        assert empirical_context_dist(ppmi, 2).is_empty
