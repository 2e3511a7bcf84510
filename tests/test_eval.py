"""Evaluation metrics, dataset splitting, negative sampling, labeled-pair
files, and the synthetic benchmark generator."""

import numpy as np
import pytest

from relrec.evaluation import (
    DataError,
    check_rule_file,
    f1_score,
    generate_synthetic,
    load_pairs_tsv,
    sample_negative_pairs,
    save_pairs_tsv,
    split_dataset,
    write_synthetic_dataset,
)
from relrec.graph import GraphFormatError, Vocab, load_cooc_graph
from relrec.relational import LabeledPair, RelationSchema, load_triples_tsv


def make_pairs(n_pos, n_neg, relation=0):
    pairs = [
        LabeledPair(head=i, tail=i + 1, label=1, relation=relation)
        for i in range(n_pos)
    ]
    pairs += [
        LabeledPair(head=100 + i, tail=101 + i, label=0, relation=relation)
        for i in range(n_neg)
    ]
    return pairs


class TestF1Score:
    def test_closed_form_half(self):
        precision, recall, f1 = f1_score(
            np.array([0.9, 0.9, 0.1]), np.array([1.0, 0.0, 1.0])
        )
        assert (precision, recall, f1) == (0.5, 0.5, 0.5)

    def test_no_positive_predictions_gives_zeros(self):
        assert f1_score(np.array([0.1, 0.2]), np.array([1.0, 1.0])) == (
            0.0,
            0.0,
            0.0,
        )

    def test_threshold_is_inclusive(self):
        assert f1_score(np.array([0.5]), np.array([1.0])) == (1.0, 1.0, 1.0)
        assert f1_score(np.array([0.3]), np.array([1.0]), threshold=0.3) == (
            1.0,
            1.0,
            1.0,
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        probs = rng.random(50)
        labels = (rng.random(50) > 0.5).astype(float)
        perm = rng.permutation(50)
        assert f1_score(probs, labels) == f1_score(probs[perm], labels[perm])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            f1_score(np.zeros(2), np.zeros(3))


class TestSplitDataset:
    def test_sizes_single_stratum(self):
        train, dev, test = split_dataset(make_pairs(100, 0))
        assert (len(train), len(dev), len(test)) == (70, 15, 15)

    def test_largest_remainder_tie_goes_to_earlier_split(self):
        # 10 items at (0.7, 0.15, 0.15): floors are (7, 1, 1) and the one
        # leftover goes to dev because dev and test tie on remainder.
        train, dev, test = split_dataset(make_pairs(10, 0))
        assert (len(train), len(dev), len(test)) == (7, 2, 1)

    def test_stratified_by_label(self):
        train, dev, test = split_dataset(make_pairs(20, 10))
        def count(split, label):
            return sum(1 for p in split if p.label == label)
        assert (count(train, 1), count(train, 0)) == (14, 7)
        assert (count(dev, 1), count(dev, 0)) == (3, 2)
        assert (count(test, 1), count(test, 0)) == (3, 1)

    def test_partition_preserves_pairs(self):
        pairs = make_pairs(13, 7)
        train, dev, test = split_dataset(pairs, seed=9)
        combined = sorted(
            (p.head, p.tail, p.label) for p in train + dev + test
        )
        assert combined == sorted((p.head, p.tail, p.label) for p in pairs)

    def test_deterministic_per_seed(self):
        pairs = make_pairs(30, 30)
        a = split_dataset(pairs, seed=4)
        b = split_dataset(pairs, seed=4)
        c = split_dataset(pairs, seed=5)
        assert [[p.head for p in s] for s in a] == [[p.head for p in s] for s in b]
        assert [[p.head for p in s] for s in a] != [[p.head for p in s] for s in c]

    def test_invalid_ratios_rejected(self):
        with pytest.raises(DataError, match="sum"):
            split_dataset(make_pairs(10, 0), ratios=(0.5, 0.3, 0.1))
        with pytest.raises(DataError, match="non-negative"):
            split_dataset(make_pairs(10, 0), ratios=(1.2, -0.1, -0.1))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="empty"):
            split_dataset([])


class TestSampleNegativePairs:
    def test_count_collisions_and_duplicates(self):
        positives = [(0, 5), (1, 6), (2, 7)]
        head_pool = np.arange(5)
        tail_pool = np.arange(5, 12)
        negatives = sample_negative_pairs(positives, head_pool, tail_pool, seed=1)
        assert len(negatives) == 3
        assert len(set(negatives)) == 3
        assert not set(negatives) & set(positives)
        for h, t in negatives:
            assert h in head_pool and t in tail_pool

    def test_deterministic_per_seed(self):
        positives = [(0, 5), (1, 6)]
        pools = (np.arange(4), np.arange(5, 10))
        assert sample_negative_pairs(positives, *pools, seed=2) == (
            sample_negative_pairs(positives, *pools, seed=2)
        )

    def test_forbidden_pairs_avoided(self):
        positives = [(0, 2)]
        negatives = sample_negative_pairs(
            positives, np.array([0, 1]), np.array([2, 3]), seed=0,
            forbidden={(0, 3)},
        )
        assert len(negatives) == 1
        assert negatives[0] in {(1, 2), (1, 3)}

    def test_fully_forbidden_pool_raises(self):
        # Every candidate is either the positive or forbidden, so the
        # sampler must fail rather than emit a blocked pair.
        with pytest.raises(DataError, match="distinct negatives"):
            sample_negative_pairs(
                [(0, 2)], np.array([0, 1]), np.array([2, 3]), seed=0,
                forbidden={(0, 3), (1, 2), (1, 3)},
            )

    def test_exhausted_pool_raises(self):
        positives = [(0, 1), (0, 2)]
        with pytest.raises(DataError, match="distinct negatives"):
            sample_negative_pairs(
                positives, np.array([0]), np.array([1, 2]), seed=0
            )

    def test_empty_positives_short_circuit(self):
        assert sample_negative_pairs([], np.array([]), np.array([]), seed=0) == []

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError, match="pool"):
            sample_negative_pairs([(0, 1)], np.array([]), np.array([1]), seed=0)


class TestPairsTsv:
    def setup_method(self):
        self.vocab = Vocab(["alpha", "beta", "gamma"])
        self.schema = RelationSchema(names=("likes", "knows"))

    def test_round_trip(self, tmp_path):
        pairs = [
            LabeledPair(head=0, tail=1, label=1, relation=0),
            LabeledPair(head=2, tail=0, label=0, relation=1),
        ]
        path = tmp_path / "pairs.tsv"
        save_pairs_tsv(pairs, self.vocab, self.schema, str(path))
        loaded = load_pairs_tsv(str(path), self.vocab, self.schema)
        assert loaded == pairs

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("alpha\tbeta\t2\tlikes\n")
        with pytest.raises(GraphFormatError, match="label"):
            load_pairs_tsv(str(path), self.vocab, self.schema)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("alpha\tbeta\t1\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_pairs_tsv(str(path), self.vocab, self.schema)

    def test_unknown_term_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("alpha\tbeta\t1\tlikes\nalpha\tzzz\t0\tlikes\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_pairs_tsv(str(path), self.vocab, self.schema)


def inverse_partner(relation, n_rel):
    if relation % 2 == 0:
        return relation + 1 if relation + 1 < n_rel else relation
    return relation - 1


@pytest.fixture(scope="module")
def world():
    return generate_synthetic(
        n_entities=60, n_clusters=6, n_rel=4, noise=0.3, seed=5
    )


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    synth = generate_synthetic(
        n_entities=50, n_clusters=4, n_rel=2, noise=0.2, seed=7
    )
    outdir = tmp_path_factory.mktemp("synth")
    paths = write_synthetic_dataset(synth, str(outdir))
    return synth, str(outdir), paths


class TestGenerateSynthetic:
    def test_deterministic(self, world):
        again = generate_synthetic(
            n_entities=60, n_clusters=6, n_rel=4, noise=0.3, seed=5
        )
        assert again.rule == world.rule
        assert np.array_equal(again.clusters, world.clusters)
        for name in ("lo", "hi", "counts"):
            assert np.array_equal(
                getattr(again.graph, name), getattr(world.graph, name)
            )
        assert again.triples.triples == world.triples.triples
        assert {
            r: [(p.head, p.tail, p.label) for p in ps]
            for r, ps in again.pairs_by_relation.items()
        } == {
            r: [(p.head, p.tail, p.label) for p in ps]
            for r, ps in world.pairs_by_relation.items()
        }

    def test_labels_match_rule_oracle(self, world):
        for relation, pairs in world.pairs_by_relation.items():
            for pair in pairs:
                assert pair.label == int(
                    world.rule_holds(pair.head, relation, pair.tail)
                )

    def test_relations_form_inverse_couples(self, world):
        for (a, b), relation in world.rule.items():
            assert world.rule[(b, a)] == inverse_partner(relation, 4)

    def test_odd_relation_count_makes_last_symmetric(self):
        world = generate_synthetic(
            n_entities=60, n_clusters=6, n_rel=3, seed=2
        )
        for (a, b), relation in world.rule.items():
            assert world.rule[(b, a)] == inverse_partner(relation, 3)
        assert 2 in set(world.rule.values())
        assert inverse_partner(2, 3) == 2

    def test_every_relation_has_both_labels(self, world):
        for relation in range(4):
            labels = {p.label for p in world.pairs_by_relation[relation]}
            assert labels == {0, 1}

    def test_triples_are_rule_true(self, world):
        for h, r, t in world.triples.triples:
            assert world.rule_holds(h, r, t)

    def test_zero_noise_keeps_only_rule_linked_edges(self):
        world = generate_synthetic(
            n_entities=50, n_clusters=4, n_rel=2, noise=0.0, seed=1
        )
        for i, j in zip(world.graph.lo.tolist(), world.graph.hi.tolist()):
            ci, cj = int(world.clusters[i]), int(world.clusters[j])
            assert (ci, cj) in world.rule or (cj, ci) in world.rule

    def test_signal_edges_outweigh_noise_edges(self, world):
        signal, noise = [], []
        graph = world.graph
        for i, j, count in zip(
            graph.lo.tolist(), graph.hi.tolist(), graph.counts.tolist()
        ):
            ci, cj = int(world.clusters[i]), int(world.clusters[j])
            linked = (ci, cj) in world.rule or (cj, ci) in world.rule
            (signal if linked else noise).append(count)
        assert signal and noise
        assert np.mean(signal) > 2.0 * np.mean(noise)

    def test_parameter_validation(self):
        with pytest.raises(DataError, match="n_entities"):
            generate_synthetic(n_entities=3, n_clusters=4)
        with pytest.raises(DataError, match="relation"):
            generate_synthetic(n_entities=20, n_clusters=4, n_rel=0)
        with pytest.raises(DataError, match="density"):
            generate_synthetic(n_entities=20, n_clusters=4, density=0.0)
        with pytest.raises(DataError, match="noise"):
            generate_synthetic(n_entities=20, n_clusters=4, noise=-0.1)

    def test_too_sparse_rule_for_relation_count(self):
        # Three clusters give at most six directed rule edges, but a
        # minimal density keeps only two, which cannot host 4 relations.
        with pytest.raises(DataError, match="rule edges"):
            generate_synthetic(
                n_entities=30, n_clusters=3, n_rel=4, density=0.2
            )


class TestDatasetFiles:
    def test_rule_file_consistent(self, written):
        world, outdir, paths = written
        assert check_rule_file(outdir) == 0

    def test_flipped_label_detected(self, written, tmp_path):
        world, outdir, paths = written
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(outdir, copy)
        pairs_file = copy / "pairs.tsv"
        lines = pairs_file.read_text().splitlines()
        head, tail, label, relation = lines[0].split("\t")
        lines[0] = "\t".join([head, tail, "0" if label == "1" else "1", relation])
        pairs_file.write_text("\n".join(lines) + "\n")
        assert check_rule_file(str(copy)) == 1

    def test_graph_reloads_identically(self, written):
        # The loader's vocabulary covers exactly the terms on edges, so
        # compare edge multisets by term name.
        world, outdir, paths = written
        reloaded = load_cooc_graph(paths["graph"])
        assert set(reloaded.vocab.terms) <= set(world.vocab.terms)

        def by_terms(graph):
            return {
                tuple(sorted((graph.vocab.term_of(i), graph.vocab.term_of(j)))): c
                for i, j, c in zip(
                    graph.lo.tolist(), graph.hi.tolist(), graph.counts.tolist()
                )
            }

        assert by_terms(reloaded) == by_terms(world.graph)

    def test_triples_reload_identically(self, written):
        world, outdir, paths = written
        reloaded = load_triples_tsv(paths["triples"], world.vocab, world.schema)
        assert set(reloaded.triples) == set(world.triples.triples)

    def test_pairs_reload_identically(self, written):
        world, outdir, paths = written
        reloaded = load_pairs_tsv(paths["pairs"], world.vocab, world.schema)
        assert reloaded == world.all_pairs()
