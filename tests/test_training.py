"""Joint training loop, binary cross entropy, gradient checking, and
training-log serialization."""

import contextlib
import csv
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import relrec
from relrec import training
from relrec.evaluation import generate_synthetic, split_dataset
from relrec.graph import CoocGraph, Vocab, compute_ppmi
from relrec.params import AdamState, ModelDims, adam_step, init_params
from relrec.recall import recall_loss
from relrec.relational import LabeledPair, TripleSet
from relrec.training import (
    LOG_COLUMNS,
    TrainConfig,
    TrainingDivergedError,
    bce_loss,
    finite_difference_grads,
    grad_check,
    grad_errors,
    joint_train,
    prediction_loss,
    write_training_log,
)

LN_2 = 0.6931471805599453
TWO_LN_4_3 = 0.5753641449035618


@pytest.fixture(scope="module")
def tiny_world():
    world = generate_synthetic(n_entities=40, n_clusters=4, n_rel=2, seed=3)
    ppmi = compute_ppmi(world.graph)
    train, dev, test = split_dataset(world.pairs_by_relation[0], seed=3)
    return world, ppmi, train, dev


def tiny_config(**overrides):
    base = dict(
        d=8, seed=3, max_epochs=3, lr=0.01, b1=32, b2=32, b3=32,
        n_assoc=4, n_neg=8, patience=50,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        loss, grad = bce_loss(np.array([0.5]), np.array([1.0]))
        assert abs(loss - LN_2) <= 1e-12
        assert grad[0] == -0.5

    def test_perfect_probability_is_nearly_free(self):
        loss_pos, _ = bce_loss(np.array([1.0]), np.array([1.0]))
        loss_neg, _ = bce_loss(np.array([0.0]), np.array([0.0]))
        assert 0.0 <= loss_pos < 1e-9
        assert 0.0 <= loss_neg < 1e-9

    def test_batch_sums(self):
        loss, _ = bce_loss(np.array([0.75, 0.25]), np.array([1.0, 0.0]))
        assert abs(loss - TWO_LN_4_3) <= 1e-12

    def test_gradient_is_probability_minus_label(self):
        p = np.array([0.0, 0.3, 1.0])
        y = np.array([1.0, 0.0, 0.0])
        _, grad = bce_loss(p, y)
        assert np.array_equal(grad, p - y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bce_loss(np.zeros(2), np.zeros(3))


class TestGradCheck:
    def test_all_three_losses_pass(self):
        results = grad_check()
        assert [r.loss_name for r in results] == [
            "recall",
            "relational",
            "prediction",
        ]
        for result in results:
            assert result.passed, result.format()
            assert result.max_error <= 1e-4
            assert "PASS" in result.format()

    def test_prediction_check_runs_the_batched_step(self, monkeypatch):
        # The frozen grids are stacked into chunks of several queries, the
        # path training runs, and no query goes through alone.
        chunk_sizes = []

        def spy(params, structure, **kwargs):
            chunk_sizes.append(len(structure.grid[0]))
            return stacked_forward(params, structure, **kwargs)

        stacked_forward = training.stacked_forward
        monkeypatch.setattr(training, "stacked_forward", spy)
        (result,) = grad_check(losses=("prediction",))
        assert result.passed, result.format()
        assert chunk_sizes and set(chunk_sizes) == {3}

    def test_frozen_structures_give_the_unfrozen_step(self, tiny_world):
        # At the parameters they were frozen at, the stacked frozen grids
        # and survivor sets are the ones a fresh step selects.
        world, ppmi, train, dev = tiny_world
        params = init_params(
            ModelDims.square(8, world.schema.n_rel), len(world.vocab), seed=2
        )
        batch = train[:5]
        structures = [
            training.prediction_forward(params, p.head, p.tail, 4, 4).structure
            for p in batch
        ]
        fresh = prediction_loss(params, batch, 4, 4)
        frozen = prediction_loss(params, batch, 4, 4, structures=structures)
        assert frozen[0] == fresh[0]
        assert frozen[2].tobytes() == fresh[2].tobytes()
        for name, grad in fresh[1].items():
            assert frozen[1][name].tobytes() == grad.tobytes()
        # Moved parameters keep the frozen survivor sets, which are no
        # longer the ones a fresh forward selects.
        moved = init_params(params.dims, len(world.vocab), seed=3)
        _, _, probs = prediction_loss(moved, batch, 4, 4, structures=structures)
        expected = [
            training.prediction_forward(moved, p.head, p.tail, 4, 4, structure=s)
            for p, s in zip(batch, structures)
        ]
        np.testing.assert_allclose(
            probs, [t.probability for t in expected], rtol=1e-12, atol=0.0
        )
        assert not np.allclose(
            probs, prediction_loss(moved, batch, 4, 4)[2], rtol=1e-6, atol=0.0
        )

    def test_corrupted_gradient_is_detected(self):
        vocab = Vocab(["a", "b", "c", "d"])
        graph = CoocGraph.from_counts(vocab, {(0, 1): 2, (1, 2): 3, (2, 3): 1})
        ppmi = compute_ppmi(graph)
        params = init_params(ModelDims.square(2, 1), len(vocab), seed=5)
        batch = ppmi.entities_with_support()

        from relrec.recall import recall_loss

        _, analytic = recall_loss(params, ppmi, batch)
        numeric = finite_difference_grads(
            lambda p: recall_loss(p, ppmi, batch)[0], params
        )
        clean = grad_errors(analytic, numeric)
        assert max(clean.values()) <= 1e-4

        analytic["entity_emb"][0, 0] += 1.0
        dirty = grad_errors(analytic, numeric)
        assert dirty["entity_emb"] > 1e-4
        untouched = {k: v for k, v in dirty.items() if k != "entity_emb"}
        assert max(untouched.values()) <= 1e-4


class TestTrainConfig:
    def test_dims_are_square(self):
        assert TrainConfig(d=8).dims(3) == ModelDims.square(8, 3)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError, match="d"):
            TrainConfig(d=0)
        with pytest.raises(ValueError, match="dtype"):
            TrainConfig(dtype="float16")
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    def test_to_dict_contains_resolved_values(self):
        d = TrainConfig(d=8, n_assoc=4).to_dict()
        assert d["d"] == 8
        assert d["n_assoc"] == 4
        assert d["dtype"] == "float64"


class TestJointTrain:
    def test_deterministic_given_seed(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        runs = [
            joint_train(
                world.graph, ppmi, world.triples, train, dev,
                tiny_config(), world.schema,
            )
            for _ in range(2)
        ]
        first, second = runs
        for name, tensor in first.params.tensors().items():
            assert np.array_equal(tensor, second.params.tensors()[name]), name
        for l1, l2 in zip(first.log, second.log):
            assert l1.loss_recall == l2.loss_recall
            assert l1.loss_relational == l2.loss_relational
            assert l1.loss_prediction == l2.loss_prediction
            assert (l1.dev_precision, l1.dev_recall, l1.dev_f1) == (
                l2.dev_precision, l2.dev_recall, l2.dev_f1,
            )

    def test_best_epoch_tracks_dev_f1(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        result = joint_train(
            world.graph, ppmi, world.triples, train, dev,
            tiny_config(max_epochs=6), world.schema,
        )
        f1s = [l.dev_f1 for l in result.log]
        assert result.best_dev_f1 == max(f1s)
        assert result.log[result.best_epoch - 1].dev_f1 == result.best_dev_f1
        # Ties go to the latest epoch.
        assert result.best_epoch == max(
            i for i, f1 in enumerate(f1s, start=1) if f1 == result.best_dev_f1
        )

    def test_early_stop_counts_epochs_without_strict_improvement(
        self, tiny_world, monkeypatch
    ):
        world, ppmi, train, dev = tiny_world
        # Without Adam steps the parameters stay frozen, so the dev F1
        # never strictly improves after the first epoch and training
        # stops after exactly `patience` further epochs.
        monkeypatch.setattr(training, "adam_step", lambda params, grads, state: None)
        result = joint_train(
            world.graph, ppmi, world.triples, train, dev,
            tiny_config(max_epochs=50, patience=3), world.schema,
        )
        assert result.epochs_run == 4
        assert result.best_epoch == 4
        assert len({l.dev_f1 for l in result.log}) == 1

    def test_recall_only_leaves_other_tensors_at_init(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        config = tiny_config()
        params = init_params(
            config.dims(world.schema.n_rel), len(world.vocab), seed=config.seed
        )
        fresh = params.copy()
        state = AdamState.for_params(params, lr=config.lr)
        support = ppmi.entities_with_support()
        rng = np.random.default_rng(config.seed)
        losses = []
        for _ in range(30):
            batch = rng.choice(support, size=config.b1, replace=False)
            loss, grads = recall_loss(params, ppmi, batch)
            losses.append(loss / len(batch))
            adam_step(params, grads, state)
        assert np.array_equal(params.relation_emb, fresh.relation_emb)
        assert np.array_equal(params.pair_weight, fresh.pair_weight)
        assert not np.array_equal(params.entity_emb, fresh.entity_emb)
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops >= 0.8 * (len(losses) - 1)

    def test_mixed_relations_rejected(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        mixed = train[:-1] + [
            LabeledPair(head=0, tail=1, label=1, relation=1)
        ]
        with pytest.raises(ValueError, match="single relation"):
            joint_train(
                world.graph, ppmi, world.triples, mixed, dev,
                tiny_config(), world.schema,
            )

    def test_empty_triples_rejected(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        with pytest.raises(ValueError, match="triple set"):
            joint_train(
                world.graph, ppmi, TripleSet(triples=[]), train, dev,
                tiny_config(), world.schema,
            )

    def test_missing_pairs_rejected(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        with pytest.raises(ValueError, match="pairs"):
            joint_train(
                world.graph, ppmi, world.triples, [], dev,
                tiny_config(), world.schema,
            )

    def test_divergence_raises(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        config = tiny_config(max_epochs=5, lr=1e30, dtype="float32")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="non-finite"):
                joint_train(
                    world.graph, ppmi, world.triples, train, dev,
                    config, world.schema,
                )


class TestPredictionLoss:
    def test_loss_matches_bce_of_returned_probs(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        params = init_params(
            ModelDims.square(8, world.schema.n_rel), len(world.vocab), seed=2
        )
        batch = train[:4]
        loss, grads, probs = prediction_loss(params, batch, 3, 3)
        labels = np.array([float(p.label) for p in batch])
        expected, _ = bce_loss(probs, labels)
        assert abs(loss - expected) <= 1e-12
        assert grads  # every enabled tensor received a gradient
        assert probs.shape == (4,)

    def test_batch_gradients_sum_per_query_dense_gradients(self):
        # The default chunk holds the whole batch at these dims.
        self.check_sums_per_query(chunk=None, n_head=5, n_tail=5)

    # Chunks of 3 put the repeated query (3, 1) twice in the first chunk
    # and leave one query for the last; the third chunk's queries share
    # entities 0 and 5 as heads and tails.
    @pytest.mark.parametrize("chunk", [3, 4])
    @pytest.mark.parametrize("n_head, n_tail", [(5, 5), (5, 3), (2, 6)])
    def test_chunked_batch_gradients_sum_per_query_dense_gradients(
        self, monkeypatch, chunk, n_head, n_tail
    ):
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: chunk)
        self.check_sums_per_query(chunk, n_head, n_tail)

    @staticmethod
    def check_sums_per_query(chunk, n_head, n_tail):
        # A 12-entity vocabulary: head and tail association lists share
        # entities, whose batch rows receive both a head and a tail
        # gradient.
        params = init_params(ModelDims(d=6, d_p=5, d_a=4, n_rel=3), 12, seed=4)
        rng = np.random.default_rng(4)
        for tensor in params.tensors().values():
            tensor[...] = rng.normal(0.0, 0.5, size=tensor.shape)
        batch = [
            LabeledPair(head=h, tail=t, label=y, relation=0)
            for h, t, y in [
                (0, 7, 1), (3, 1, 0), (3, 1, 1), (7, 0, 0), (5, 9, 1), (0, 5, 0),
                (9, 3, 1),
            ]
        ]
        if chunk is None:
            assert training._chunk_queries(params, n_head * n_tail) >= len(batch)
        expected: dict[str, np.ndarray] = {}
        expected_probs, expected_loss, shared = [], 0.0, 0
        for i, pair in enumerate(batch):
            trace = training.prediction_forward(
                params, pair.head, pair.tail, n_head, n_tail
            )
            common = np.intersect1d(trace.heads.ids, trace.tails.ids).size
            # At 5 x 5 each of the first five queries' lists share
            # entities; (0, 5) shares only with other queries, and the
            # smaller grids of the chunked cases need only share some.
            assert common or chunk is not None or i >= 5
            shared += common
            dense = training.prediction_backward(
                params, trace, trace.probability - pair.label
            )
            for name, grad in dense.items():
                expected[name] = expected.get(name, 0.0) + grad
            expected_probs.append(trace.probability)
            expected_loss += bce_loss(
                np.array([trace.probability]), np.array([float(pair.label)])
            )[0]
        assert shared
        loss, grads, probs = prediction_loss(params, batch, n_head, n_tail)
        assert abs(loss - expected_loss) <= 1e-12 * expected_loss
        np.testing.assert_allclose(probs, expected_probs, rtol=1e-12, atol=0.0)
        assert probs[1] == probs[2]
        assert set(grads) == set(expected)
        for name, grad in expected.items():
            scale = max(float(np.abs(grad).max()), 1.0)
            assert float(np.abs(grads[name] - grad).max()) <= 1e-12 * scale

    def test_empty_batch_rejected(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        params = init_params(
            ModelDims.square(4, world.schema.n_rel), len(world.vocab), seed=2
        )
        with pytest.raises(ValueError, match="empty"):
            prediction_loss(params, [], 2, 2)


def random_model(vocab_size, d, seed=0, n_rel=3, dtype=np.float64):
    params = init_params(ModelDims.square(d, n_rel), vocab_size, seed=seed)
    rng = np.random.default_rng(seed)
    for name, tensor in params.tensors().items():
        setattr(params, name, rng.normal(0.0, 0.4, size=tensor.shape).astype(dtype))
    return params


def random_pairs(vocab_size, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        LabeledPair(head=int(h), tail=int(t), label=int(h < t), relation=0)
        for h, t in rng.integers(0, vocab_size, size=(n, 2))
    ]


def pairs_among(vocab_size, n_entities, n, seed=0):
    """n pairs drawn with repeats among n_entities of the vocabulary: the
    queries share association lists, so their table is smaller than
    their grids."""
    rng = np.random.default_rng(seed)
    entities = rng.choice(vocab_size, size=n_entities, replace=False)
    return [
        LabeledPair(head=int(h), tail=int(t), label=int(h < t), relation=0)
        for h, t in rng.choice(entities, size=(n, 2))
    ]


def table_groups(params, pairs, n_head, n_tail):
    """(queries, table pairs or None) of each group of `_table_groups`."""
    heads, tails = training._recall_grids(params, pairs, n_head, n_tail)
    return [
        (group.stop - group.start,
         None if table is None else len(table[0].ids) * len(table[1].ids))
        for group, table in training._table_groups(params, heads, tails)
    ]


class TestBatchedScoring:
    """`predict_probabilities` recalls each entity once and scores chunks
    of queries in one forward over their stacked association grids; each
    probability is the query's own `prediction_forward` one.  Queries
    whose association table (distinct head-side x distinct tail-side
    association entities) has fewer pairs than their stacked grids are
    scored through the table instead: each table pair once, then each
    query's softmax(l) . g from its cells (the `test_table_*` tests)."""

    QUICKSTART = dict(vocab_size=300, d=32)  # with 16 associations per side

    @staticmethod
    def check(params, pairs, n_head, n_tail):
        got = training.predict_probabilities(params, pairs, n_head, n_tail)
        expected = np.array(
            [
                training.prediction_forward(
                    params, p.head, p.tail, n_head, n_tail
                ).probability
                for p in pairs
            ]
        )
        assert got.dtype == np.float64 and got.shape == (len(pairs),)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        return got

    def test_queries_not_a_multiple_of_the_chunk(self):
        params = random_model(**self.QUICKSTART)
        chunk = training._chunk_queries(params, 16 * 16)
        assert chunk == 4
        pairs = random_pairs(300, 3 * chunk - 1)
        self.check(params, pairs, 16, 16)

    def test_repeated_pairs_and_shared_entities(self, monkeypatch):
        # 12 entities and 5 associations per side: association lists
        # overlap, and entities are heads of one query and tails of another.
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: 3)
        params = random_model(12, 6, seed=1)
        pairs = random_pairs(12, 5, seed=1)
        pairs += [pairs[0], pairs[0]] + [
            LabeledPair(head=p.tail, tail=p.head, label=0, relation=0)
            for p in pairs[:3]
        ]
        got = self.check(params, pairs, 5, 5)
        assert got[0] == got[5] == got[6]

    @pytest.mark.parametrize("n_head, n_tail", [(5, 2), (2, 7)])
    def test_head_and_tail_counts_differ(self, monkeypatch, n_head, n_tail):
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: 3)
        params = random_model(40, 6, seed=2)
        self.check(params, random_pairs(40, 8, seed=2), n_head, n_tail)

    def test_vocabulary_smaller_than_the_grid(self, monkeypatch):
        # 6 entities, 8 associations asked: each list holds the other 5,
        # so the grid is 5 x 5, not 8 x 8.
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: 3)
        params = random_model(6, 4, seed=3)
        pairs = random_pairs(6, 7, seed=3)
        trace = training.prediction_forward(params, pairs[0].head, pairs[0].tail, 8, 8)
        assert len(trace.structure.pair_heads) == 25
        self.check(params, pairs, 8, 8)

    @pytest.mark.parametrize(
        "vocab_size, d, n_head, n_tail", [(300, 32, 16, 16), (40, 6, 5, 3)]
    )
    def test_float32_parameters(self, monkeypatch, vocab_size, d, n_head, n_tail):
        # Float32 leaves no headroom below 1e-12: a stacked query must be
        # computed exactly as a lone one, also for a grid of an odd number
        # of pairs, which BLAS kernels split unevenly.
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: 4)
        params = random_model(vocab_size, d, seed=4, dtype=np.float32)
        assert params.dtype == np.float32
        self.check(params, random_pairs(vocab_size, 9, seed=4), n_head, n_tail)

    def test_empty_pair_list(self):
        params = random_model(12, 4)
        got = training.predict_probabilities(params, [], 3, 3)
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_same_bytes_on_every_call_and_thread_count(self):
        params = random_model(**self.QUICKSTART, seed=5)
        pairs = random_pairs(300, 10, seed=5)
        first = training.predict_probabilities(params, pairs, 16, 16).tobytes()
        assert training.predict_probabilities(params, pairs, 16, 16).tobytes() == first
        with ThreadPoolExecutor(max_workers=1) as lane:
            threaded = training.predict_probabilities(params, pairs, 16, 16, lane=lane)
        assert threaded.tobytes() == first

    def test_peak_memory_does_not_grow_with_queries(self, traced_peak):
        # Quickstart dims with the default initialization: 4 queries fill
        # one chunk, 64 make 16 chunks of the same size.
        params = init_params(ModelDims.square(32, 4), 300, seed=0)
        pairs = random_pairs(300, 64, seed=6)
        peaks = {}
        for n in (4, 64):
            _, peaks[n], _ = traced_peak(
                lambda n=n: training.predict_probabilities(params, pairs[:n], 16, 16)
            )
        assert peaks[64] <= 1.25 * peaks[4]

    def test_table_matches_lone_forward(self):
        params = random_model(300, 32, seed=11)
        pairs = pairs_among(300, 8, 150, seed=11)
        pairs += [pairs[3], pairs[3]]
        ((n, table),) = table_groups(params, pairs, 16, 16)
        assert n == len(pairs) and table <= 0.9 * len(pairs) * 16 * 16
        got = self.check(params, pairs, 16, 16)
        assert got[3] == got[-1] == got[-2]

    @pytest.mark.parametrize("n_head, n_tail", [(5, 2), (2, 7)])
    def test_table_head_and_tail_counts_differ(self, n_head, n_tail):
        params = random_model(40, 6, seed=2)
        pairs = pairs_among(40, 6, 60, seed=2)
        groups = table_groups(params, pairs, n_head, n_tail)
        assert all(table is not None for _, table in groups)
        self.check(params, pairs, n_head, n_tail)

    def test_table_vocabulary_smaller_than_the_grid(self):
        # 6 entities, 8 associations asked: each list holds the other 5,
        # and the table has at most 6 x 6 pairs against 20 grids of 25.
        params = random_model(6, 4, seed=3)
        pairs = random_pairs(6, 20, seed=3)
        assert table_groups(params, pairs, 8, 8) == [(20, 36)]
        self.check(params, pairs, 8, 8)

    def test_table_float32_parameters(self):
        # The table's logits and values are summed in another order than a
        # lone query's pooled vector, which float32 shows: the agreement is
        # to float32 rounding, not to 1e-12.
        params = random_model(300, 32, seed=11, dtype=np.float32)
        pairs = pairs_among(300, 8, 150, seed=11)
        groups = table_groups(params, pairs, 16, 16)
        assert all(table is not None for _, table in groups)
        got = training.predict_probabilities(params, pairs, 16, 16)
        expected = [
            training.prediction_forward(params, p.head, p.tail, 16, 16).probability
            for p in pairs
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=0.0)

    def test_table_same_bytes_on_every_call_and_thread_count(self):
        # Several blocks of table rows and of queries.
        params = random_model(300, 32, seed=12)
        pairs = pairs_among(300, 10, 200, seed=12)
        groups = table_groups(params, pairs, 16, 16)
        assert all(table is not None for _, table in groups)
        first = training.predict_probabilities(params, pairs, 16, 16).tobytes()
        assert training.predict_probabilities(params, pairs, 16, 16).tobytes() == first
        with ThreadPoolExecutor(max_workers=1) as lane:
            threaded = training.predict_probabilities(params, pairs, 16, 16, lane=lane)
        assert threaded.tobytes() == first

    def test_table_over_the_cap_is_split_into_groups(self, monkeypatch):
        # A cap of 1,500 pairs: the queries go in several groups, each
        # with a table within the cap or on the chunk path.
        monkeypatch.setattr(training, "_TABLE_BYTES", 1500 * 2 * 8)
        params = random_model(300, 32, seed=13)
        pairs = pairs_among(300, 3, 40, seed=13) + pairs_among(300, 3, 40, seed=14)
        groups = table_groups(params, pairs, 16, 16)
        assert len(groups) > 1 and sum(n for n, _ in groups) == len(pairs)
        assert any(table is not None for _, table in groups)
        assert all(table is None or table <= 1500 for _, table in groups)
        self.check(params, pairs, 16, 16)

    def test_little_reuse_keeps_the_chunk_bytes(self):
        # Random pairs over 300 entities share few associations: no group
        # takes the table, and the bytes are those of the chunk path.
        params = random_model(300, 32, seed=5)
        pairs = random_pairs(300, 10, seed=5)
        assert table_groups(params, pairs, 16, 16) == [(10, None)]
        heads, tails = training._recall_grids(params, pairs, 16, 16)
        chunks = np.concatenate([
            training.stacked_forward(params, s).probability
            for s in training._grid_chunks(params, heads, tails)
        ])
        got = training.predict_probabilities(params, pairs, 16, 16)
        assert got.tobytes() == chunks.tobytes()

    def test_a_lone_query_keeps_its_grid(self):
        # One query's table is its grid, never smaller.
        params = random_model(300, 32, seed=5)
        assert table_groups(params, random_pairs(300, 1, seed=5), 16, 16) == [(1, None)]

    def test_table_peak_memory_does_not_grow_with_queries(self, traced_peak):
        # Quickstart dims with the default initialization, one table for
        # both calls.  The call holds (Q, n) association ids, never a
        # (Q, P) array: ten times the queries add less than one float64
        # (Q, P) array of the extra queries.
        params = init_params(ModelDims.square(32, 4), 300, seed=0)
        pairs = pairs_among(300, 10, 1280, seed=6)
        peaks = {}
        for n in (128, 1280):
            groups = table_groups(params, pairs[:n], 16, 16)
            assert all(table is not None for _, table in groups)
            _, peaks[n], _ = traced_peak(
                lambda n=n: training.predict_probabilities(params, pairs[:n], 16, 16)
            )
        assert peaks[1280] - peaks[128] < (1280 - 128) * 16 * 16 * 8

    @pytest.mark.parametrize("threads", [1, 2])
    def test_table_leaves_a_pending_backward_correct(self, threads):
        # The table borrows the sign buffer that a training forward fills
        # for its backward: a backward after a table call rebuilds the
        # signs and gives the gradients it gives without that call.  With
        # 2 threads (a lane), every second block of the table's rows is
        # scored on the lane's thread.
        params = random_model(300, 32, seed=11)
        heads, tails = training._recall_grids(
            params, random_pairs(300, 4, seed=7), 16, 16
        )
        structure = training.stack_grids(heads, tails)
        dlogits = np.linspace(-1.0, 1.0, 4)
        expected = training.prediction_backward(
            params, training.stacked_forward(params, structure, signs=True), dlogits
        )
        trace = training.stacked_forward(params, structure, signs=True)
        pairs = pairs_among(300, 8, 150, seed=11)
        groups = table_groups(params, pairs, 16, 16)
        assert all(table is not None for _, table in groups)
        lane = ThreadPoolExecutor(max_workers=1) if threads == 2 else None
        with lane or contextlib.nullcontext():
            training.predict_probabilities(params, pairs, 16, 16, lane=lane)
        got = training.prediction_backward(params, trace, dlogits)
        assert got.keys() == expected.keys()
        for name, grad in expected.items():
            assert got[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize(
        "vocab_size, n_pairs, n_assoc", [(12, 10, 5), (6, 7, 8)]
    )
    def test_chunks_repeated_pairs_and_small_vocabularies(
        self, monkeypatch, vocab_size, n_pairs, n_assoc
    ):
        # The chunk path on worlds that would take the table: repeated
        # pairs, entities shared across queries and grids smaller than
        # asked.
        monkeypatch.setattr(training, "_TABLE_CROSSOVER", 0.0)
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: 3)
        params = random_model(vocab_size, 6, seed=1)
        pairs = random_pairs(vocab_size, n_pairs, seed=1)
        pairs += [pairs[0], pairs[0]]
        assert all(t is None for _, t in table_groups(params, pairs, n_assoc, n_assoc))
        got = self.check(params, pairs, n_assoc, n_assoc)
        assert got[0] == got[-1] == got[-2]


# One batched training step on a random quickstart-dims model: 8 queries
# in 2 chunks of 4, each one stacked forward and one backward.  Prints the
# sha256 of the loss, the probabilities and every gradient.
THREAD_SCRIPT = """
import hashlib
import numpy as np
from relrec import training
from relrec.params import ModelDims, init_params
from relrec.relational import LabeledPair

params = init_params(ModelDims.square(32, 4), 300, seed=9)
rng = np.random.default_rng(9)
for name, tensor in params.tensors().items():
    setattr(params, name, rng.normal(0.0, 0.4, size=tensor.shape))
assert training._chunk_queries(params, 16 * 16) == 4
pairs = [
    LabeledPair(head=int(h), tail=int(t), label=int(h < t), relation=0)
    for h, t in rng.integers(0, 300, size=(8, 2))
]
loss, grads, probs = training.prediction_loss(params, pairs, 16, 16)
digest = hashlib.sha256(np.float64(loss).tobytes() + probs.tobytes())
for name in sorted(grads):
    digest.update(name.encode() + grads[name].tobytes())
print(digest.hexdigest())
"""


class TestBlasThreadCount:
    def test_batched_step_same_bytes_at_one_and_two_threads(self):
        # Fresh interpreters, since OpenBLAS reads its thread count at load.
        src = str(Path(relrec.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run(
                [sys.executable, "-c", THREAD_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            digests.add(run.stdout.strip())
        assert len(digests) == 1


# One epoch of joint training on a tiny world with every chunk a single
# query, lanes forced on (argv[1] = 2 CPUs) or off (1).  Prints the sha256
# of the saved checkpoint and the number of threads that ran chunks.
LANE_SCRIPT = """
import hashlib, os, sys, threading
from relrec import training
from relrec.evaluation import generate_synthetic, split_dataset
from relrec.graph import compute_ppmi
from relrec.params import save_checkpoint

training._usable_cpus = lambda: int(sys.argv[1])
training._chunk_queries = lambda *_: 1
threads = set()
chunk_step = training._chunk_step

def recorded(*args):
    threads.add(threading.current_thread().name)
    return chunk_step(*args)

training._chunk_step = recorded
world = generate_synthetic(n_entities=40, n_clusters=4, n_rel=2, seed=3)
ppmi = compute_ppmi(world.graph)
train, dev, _ = split_dataset(world.pairs_by_relation[0], seed=3)
config = training.TrainConfig(
    d=8, seed=3, max_epochs=1, lr=0.01, b1=32, b2=32, b3=16, n_assoc=4, n_neg=8
)
result = training.joint_train(
    world.graph, ppmi, world.triples, train, dev, config, world.schema
)
path = os.path.join(sys.argv[2], "model.bin")
save_checkpoint(path, result.params, world.graph.vocab, {}, state=result.state)
with open(path, "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest(), len(threads))
"""


class TestPredictionLanes:
    """With a second lane, the prediction step runs every second chunk on
    the lane's thread, and the calling thread applies every chunk's
    results in chunk order: the same bytes as one lane."""

    @staticmethod
    def large_model():
        # Large dims (d = 128, 32 x 32 grids), where a chunk is one query.
        params = init_params(ModelDims.square(128, 4), 200, seed=0)
        assert training._chunk_queries(params, 32 * 32) == 1
        return params

    def test_same_checkpoint_bytes_with_and_without_lanes(self, tmp_path):
        src = str(Path(relrec.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        lines = {}
        for cpus in ("2", "1"):
            out = tmp_path / cpus
            out.mkdir()
            run = subprocess.run(
                [sys.executable, "-c", LANE_SCRIPT, cpus, str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            lines[cpus] = run.stdout.split()
        assert lines["2"][1] == "2" and lines["1"][1] == "1"
        assert lines["2"][0] == lines["1"][0]

    def test_step_and_scoring_same_bytes_on_a_lane(self, monkeypatch):
        monkeypatch.setattr(training, "_chunk_queries", lambda *_: 1)
        params = random_model(30, 6, seed=2)
        pairs = random_pairs(30, 7, seed=2)
        expected = prediction_loss(params, pairs, 5, 5)
        dev = training.predict_probabilities(params, pairs, 5, 5)
        with ThreadPoolExecutor(max_workers=1) as lane:
            got = prediction_loss(params, pairs, 5, 5, lane=lane)
            dev_got = training.predict_probabilities(params, pairs, 5, 5, lane=lane)
        assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()
        assert got[2].tobytes() == expected[2].tobytes()
        assert got[1].keys() == expected[1].keys()
        for name, grad in expected[1].items():
            assert got[1][name].tobytes() == grad.tobytes(), name
        assert dev_got.tobytes() == dev.tobytes()

    def test_in_lanes_keeps_order_and_alternates_threads(self):
        def where(item):
            return item, threading.current_thread().name

        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="lane") as lane:
            done = list(training._in_lanes(where, range(7), lane))
        assert [item for item, _ in done] == list(range(7))
        here = threading.current_thread().name
        assert all((name == here) == (item % 2 == 0) for item, name in done)
        assert list(training._in_lanes(where, range(3), None)) == [
            (i, here) for i in range(3)
        ]

    def test_usable_cpus_without_affinity(self, monkeypatch, tiny_world):
        # Only Linux has os.sched_getaffinity.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert training._usable_cpus() >= 1
        world, ppmi, train, dev = tiny_world
        result = joint_train(
            world.graph, ppmi, world.triples, train, dev,
            tiny_config(max_epochs=1), world.schema,
        )
        assert result.epochs_run == 1

    def test_lane_only_for_single_query_chunks_and_several_cpus(self, monkeypatch):
        large = self.large_model()
        quickstart = init_params(ModelDims.square(32, 4), 300, seed=0)
        assert training._chunk_queries(quickstart, 16 * 16) > 1
        for cpus, params, n_assoc, wanted in [
            (2, large, 32, True),
            (1, large, 32, False),
            (2, quickstart, 16, False),
        ]:
            monkeypatch.setattr(training, "_usable_cpus", lambda cpus=cpus: cpus)
            with training._prediction_lane(params, n_assoc) as lane:
                assert isinstance(lane, ThreadPoolExecutor) == wanted

    def test_second_lane_peak_memory(self, traced_peak):
        # Each lane holds its thread's buffers (the int8 sign grid, the
        # residual block) and one chunk's forward and backward.  The
        # float64 sign grid alone was 5 (P, d) arrays per thread.
        params = self.large_model()
        pairs = random_pairs(200, 8, seed=3)
        pair_rows = 1024 * params.dims.d * 8

        def two_lanes():
            with ThreadPoolExecutor(max_workers=1) as lane:
                return prediction_loss(params, pairs, 32, 32, lane=lane)

        one, one_peak, _ = traced_peak(lambda: prediction_loss(params, pairs, 32, 32))
        two, two_peak, _ = traced_peak(two_lanes)
        assert two[2].tobytes() == one[2].tobytes()
        assert one_peak < 10 * pair_rows
        assert two_peak - one_peak < 8.5 * pair_rows


class TestTrainingLog:
    def test_round_trip_exact(self, tmp_path, tiny_world):
        world, ppmi, train, dev = tiny_world
        result = joint_train(
            world.graph, ppmi, world.triples, train, dev,
            tiny_config(max_epochs=2), world.schema,
        )
        path = tmp_path / "log.csv"
        write_training_log(result.log, str(path))
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(LOG_COLUMNS)
        assert rows[0] == [
            "epoch", "L_n", "L_r", "L_p",
            "dev_precision", "dev_recall", "dev_F1", "wall_seconds",
        ]
        assert len(rows) == 1 + len(result.log)
        for row, entry in zip(rows[1:], result.log):
            assert int(row[0]) == entry.epoch
            assert float(row[1]) == entry.loss_recall
            assert float(row[2]) == entry.loss_relational
            assert float(row[3]) == entry.loss_prediction
            assert float(row[6]) == entry.dev_f1
