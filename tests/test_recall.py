"""Association recall: retrieval distribution, top associations, loss."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relrec.recall
from relrec.graph import CoocGraph, Vocab, compute_ppmi
from relrec.params import ModelDims, init_params
from relrec.recall import association_probability, recall_loss, top_associations
from relrec.training import grad_check

LN_2 = 0.6931471805599453
LN_3 = 1.0986122886681098


def zeroed_params(vocab_size: int, d: int, n_rel: int = 1):
    params = init_params(ModelDims.square(d, n_rel), vocab_size, seed=0)
    for tensor in params.tensors().values():
        tensor[...] = 0.0
    return params


class TestAssociationProbability:
    def test_zero_embeddings_give_uniform(self):
        params = zeroed_params(vocab_size=8, d=3)
        probs = association_probability(params, 2)
        assert np.allclose(probs, 1.0 / 8, rtol=0, atol=1e-15)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_two_entity_closed_form(self):
        # Logits (0, ln 3) normalize to (0.25, 0.75).
        params = zeroed_params(vocab_size=2, d=1)
        params.entity_emb[0] = 1.0
        params.context_emb[0] = 0.0
        params.context_emb[1] = LN_3
        probs = association_probability(params, 0)
        assert abs(probs[0] - 0.25) <= 1e-9
        assert abs(probs[1] - 0.75) <= 1e-9

    def test_sums_to_one_for_random_draws(self):
        for seed in range(10):
            params = init_params(ModelDims.square(5, 2), 17, seed=seed)
            entity = seed % 17
            probs = association_probability(params, entity)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_logit_shift_invariance(self):
        # Adding a constant to every retrieval logit (via a uniform
        # context shift along the query direction) leaves the
        # distribution unchanged.
        params = init_params(ModelDims.square(4, 1), 9, seed=3)
        base = association_probability(params, 1)
        query = params.entity_emb[1]
        shift = 0.37 * query / float(query @ query)
        params.context_emb += shift  # adds 0.37 to every logit
        shifted = association_probability(params, 1)
        assert np.max(np.abs(base - shifted)) <= 1e-12


class TestTopAssociations:
    def test_excludes_self_and_breaks_ties_by_id(self):
        params = zeroed_params(vocab_size=6, d=2)
        assoc = top_associations(params, 3, 4)
        assert assoc.entity == 3
        assert 3 not in assoc.entity_ids.tolist()
        # All probabilities equal: ties resolve to ascending ids.
        assert assoc.entity_ids.tolist() == [0, 1, 2, 4]

    def test_orders_by_probability(self):
        params = zeroed_params(vocab_size=4, d=1)
        params.entity_emb[0] = 1.0
        params.context_emb[:, 0] = [0.0, 3.0, 1.0, 2.0]
        assoc = top_associations(params, 0, 3)
        assert assoc.entity_ids.tolist() == [1, 3, 2]
        assert list(assoc.probabilities) == sorted(
            assoc.probabilities, reverse=True
        )

    def test_iterates_python_scalars(self):
        params = zeroed_params(vocab_size=4, d=2)
        assoc = top_associations(params, 0, 2)
        assert len(assoc) == 2
        for entity_id, prob in assoc:
            assert isinstance(entity_id, int)
            assert isinstance(prob, float)

    def test_rejects_nonpositive_count(self):
        params = zeroed_params(vocab_size=4, d=2)
        with pytest.raises(ValueError):
            top_associations(params, 0, 0)


def stable_argsort_top(probs, entity, n):
    """The selection rule as a full stable sort: every entity but the
    queried one, by descending probability, ties by ascending id."""
    ids = np.arange(len(probs))
    keep = ids != entity
    order = np.argsort(-probs[keep], kind="stable")[:n]
    return ids[keep][order], probs[keep][order]


# Few distinct values, so that ties are common; 0.0 and -0.0 compare equal.
PROB_VALUES = [0.0, -0.0, 1e-300, 0.125, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan]


@st.composite
def selection_cases(draw):
    """(probs, entity, n): ties forced at the n-th selected value, and
    sometimes at the queried entity too."""
    size = draw(st.integers(2, 40))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    probs = np.array(
        draw(st.lists(st.sampled_from(PROB_VALUES), min_size=size, max_size=size)),
        dtype=dtype,
    )
    entity = draw(st.integers(0, size - 1))
    n = draw(st.integers(1, size + 2))
    _, top = stable_argsort_top(probs, entity, n)
    if len(top):
        tied = draw(st.lists(st.integers(0, size - 1), max_size=4))
        if draw(st.booleans()):
            tied.append(entity)
        probs[tied] = top[-1]
    return probs, entity, n


class TestTopAssociationsSelection:
    """Selection by partition returns exactly the first n entries of a
    stable argsort of the negated probabilities."""

    @settings(max_examples=400, deadline=None)
    @given(selection_cases())
    @example((np.full(5, 0.2), 2, 3))  # ties straddle the n-th value
    @example((np.array([0.1, 0.3, 0.3, 0.3, 0.0]), 2, 1))  # entity inside the tie
    @example((np.full(6, math.nan), 0, 2))  # a diverged model
    @example((np.array([math.nan, 0.5, math.inf, -math.inf, 0.5, math.nan]), 4, 3))
    @example((np.array([0.4, 0.6]), 0, 1))  # V = 2
    @example((np.array([0.6, 0.4]), 0, 5))  # n above V - 1
    @example((np.array([0.3, 0.3, 0.4]), 2, 2))  # n = V - 1
    def test_matches_stable_argsort(self, case):
        probs, entity, n = case
        with mock.patch.object(
            relrec.recall, "association_probability", lambda params, e: probs.copy()
        ):
            assoc = top_associations(SimpleNamespace(vocab_size=len(probs)), entity, n)
        ids, values = stable_argsort_top(probs, entity, n)
        assert assoc.entity == entity
        assert assoc.entity_ids.dtype == ids.dtype
        assert assoc.entity_ids.tolist() == ids.tolist()
        assert assoc.probabilities.dtype == values.dtype
        assert assoc.probabilities.tobytes() == values.tobytes()


class TestRecallLoss:
    def test_two_entity_closed_form(self):
        # One edge, zero embeddings: the retrieval softmax is uniform over
        # two entities while the target mass sits on the single neighbor,
        # so the cross entropy is exactly ln 2.
        vocab = Vocab(["a", "b"])
        ppmi = compute_ppmi(CoocGraph.from_counts(vocab, {(0, 1): 3}))
        params = zeroed_params(vocab_size=2, d=2)
        loss, grads = recall_loss(params, ppmi, np.array([0]))
        assert abs(loss - LN_2) <= 1e-12
        assert set(grads) == {"entity_emb", "context_emb"}

    def test_loss_sums_over_batch(self):
        vocab = Vocab(["a", "b", "c"])
        ppmi = compute_ppmi(
            CoocGraph.from_counts(vocab, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        )
        params = zeroed_params(vocab_size=3, d=2)
        single, _ = recall_loss(params, ppmi, np.array([0]))
        double, _ = recall_loss(params, ppmi, np.array([0, 0]))
        assert abs(double - 2 * single) <= 1e-12

    def test_empty_support_entity_rejected(self):
        vocab = Vocab(["a", "b", "c"])
        ppmi = compute_ppmi(CoocGraph.from_counts(vocab, {(0, 1): 2}))
        params = zeroed_params(vocab_size=3, d=2)
        with pytest.raises(ValueError, match="2"):
            recall_loss(params, ppmi, np.array([0, 2]))

    def test_empty_batch_rejected(self):
        vocab = Vocab(["a", "b"])
        ppmi = compute_ppmi(CoocGraph.from_counts(vocab, {(0, 1): 2}))
        params = zeroed_params(vocab_size=2, d=2)
        with pytest.raises(ValueError):
            recall_loss(params, ppmi, np.array([], dtype=np.int64))

    def test_gradients_match_finite_differences(self):
        (result,) = grad_check(losses=("recall",))
        assert result.passed, result.format()
        assert result.max_error <= 1e-4
