"""Joint training loop, binary cross entropy, gradient checking, and
training-log serialization."""

import csv

import numpy as np
import pytest

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

    def test_empty_batch_rejected(self, tiny_world):
        world, ppmi, train, dev = tiny_world
        params = init_params(
            ModelDims.square(4, world.schema.n_rel), len(world.vocab), seed=2
        )
        with pytest.raises(ValueError, match="empty"):
            prediction_loss(params, [], 2, 2)


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
