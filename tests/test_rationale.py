"""Assumption representations, attention, prediction, and rationale
reports in open- and closed-world modes."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relrec.graph import Vocab
from relrec.params import ModelDims, init_params
import relrec.rationale
import relrec.relational
from relrec.rationale import (
    CWA_MODE,
    OWA_MODE,
    AssumptionRecord,
    CwaPair,
    PredictionStructure,
    _ranked_report,
    assumption_vector,
    attention_weights,
    cwa_rationales,
    extract_rationales,
    pair_representation,
    predict_relation,
    prediction_backward,
    prediction_forward,
    rationalize_pair,
)
from relrec.recall import AssociationList
from relrec.relational import (
    RelationPosterior,
    RelationSchema,
    TripleSet,
    posterior_from_scores,
    relation_posterior,
)
from relrec.training import grad_check

LN_3 = 1.0986122886681098
TANH_0_6 = 0.5370495669980353
ATANH_0_5 = 0.5493061443340549


def zeroed_params(vocab_size=6, d=2, d_p=None, d_a=None, n_rel=2):
    dims = ModelDims(d=d, d_p=d_p or d, d_a=d_a or d_p or d, n_rel=n_rel)
    params = init_params(dims, vocab_size, seed=0)
    for tensor in params.tensors().values():
        tensor[...] = 0.0
    return params


def make_posterior(probs, na_score=0.0):
    probs = np.asarray(probs, dtype=np.float64)
    survivors = np.flatnonzero(probs > 0)
    na_mass = float(max(0.0, 1.0 - probs.sum()))
    return RelationPosterior(
        probs=probs, na_score=na_score, na_mass=na_mass, survivors=survivors
    )


def make_record(assoc_head, assoc_tail, attn, probs, d=2):
    posterior = make_posterior(probs)
    top = posterior.top()
    return AssumptionRecord(
        assoc_head=assoc_head,
        assoc_tail=assoc_tail,
        top_relation=None if top is None else top[0],
        posterior=posterior,
        pair_repr=np.zeros(d),
        attn=attn,
        score=0.0 if top is None else attn * top[1],
    )


class TestAssumptionVector:
    def test_zero_posterior_gives_zero_vector(self):
        params = zeroed_params()
        out = assumption_vector(np.zeros(2), params)
        assert np.array_equal(out, np.zeros(2))

    def test_single_survivor(self):
        params = zeroed_params()
        params.relation_emb[0] = [1.0, 0.0]
        out = assumption_vector(np.array([0.7311, 0.0]), params)
        assert np.allclose(out, [0.7311, 0.0], rtol=0, atol=1e-15)

    def test_two_survivors_weighted_sum(self):
        params = zeroed_params()
        params.relation_emb[0] = [1.0, 0.0]
        params.relation_emb[1] = [0.0, 4.0]
        out = assumption_vector(np.array([0.5, 0.25]), params)
        assert np.allclose(out, [0.5, 1.0], rtol=0, atol=1e-15)

    def test_reverse_rows_never_contribute(self):
        params = zeroed_params()
        params.relation_emb[2:] = 100.0  # reverse + NA rows
        out = assumption_vector(np.array([0.5, 0.5]), params)
        assert np.array_equal(out, np.zeros(2))


class TestPairRepresentation:
    def test_hand_value(self):
        # Concatenated input (1, 2, 3) through weights (0.1, 0.1, 0.1)
        # gives tanh(0.6).
        params = zeroed_params(vocab_size=3, d=1, d_p=1, n_rel=1)
        params.entity_emb[0] = 1.0
        params.entity_emb[1] = 2.0
        params.pair_weight[:, 0] = 0.1
        out = pair_representation(params, 0, 1, np.array([3.0]))
        assert abs(out[0] - TANH_0_6) <= 1e-12

    def test_zero_inputs_give_tanh_bias(self):
        params = zeroed_params(vocab_size=3, d=2, d_p=3, n_rel=1)
        params.pair_bias[:] = [0.5, -0.5, 0.0]
        out = pair_representation(params, 0, 1, np.zeros(2))
        assert np.allclose(out, np.tanh([0.5, -0.5, 0.0]), rtol=0, atol=1e-15)

    def test_output_strictly_inside_unit_interval(self):
        params = init_params(ModelDims(d=3, d_p=4, d_a=4, n_rel=2), 5, seed=1)
        out = pair_representation(params, 0, 1, np.ones(3) * 10)
        assert np.all(out > -1.0) and np.all(out < 1.0)


class TestAttention:
    def test_identical_representations_are_uniform(self):
        params = init_params(ModelDims(d=2, d_p=3, d_a=2, n_rel=1), 4, seed=0)
        reprs = np.tile(np.array([0.3, -0.1, 0.5]), (7, 1))
        attn = attention_weights(params, reprs)
        assert np.allclose(attn, 1.0 / 7, rtol=0, atol=1e-12)

    def test_closed_form_two_pairs(self):
        # Attention logits (0, ln 3) come from representations (0,
        # atanh(0.5)) through an identity hidden layer and a 2*ln(3)
        # readout; the softmax is then (0.25, 0.75).
        params = zeroed_params(vocab_size=3, d=1, d_p=1, d_a=1, n_rel=1)
        params.attn_weight[0, 0] = 1.0
        params.attn_vector[0] = 2.0 * LN_3
        reprs = np.array([[0.0], [ATANH_0_5]])
        attn = attention_weights(params, reprs)
        assert abs(attn[0] - 0.25) <= 1e-9
        assert abs(attn[1] - 0.75) <= 1e-9

    def test_sums_to_one(self):
        for seed in range(10):
            params = init_params(ModelDims(d=2, d_p=3, d_a=2, n_rel=1), 4, seed=seed)
            reprs = np.random.default_rng(seed).normal(size=(5, 3))
            assert abs(attention_weights(params, reprs).sum() - 1.0) <= 1e-9


class TestPredictionForward:
    def test_record_count_and_normalization(self):
        params = init_params(ModelDims.square(3, 2), 10, seed=3)
        probability, records = predict_relation(params, 0, 1, 3, 2)
        assert len(records) == 6
        assert 0.0 < probability < 1.0
        total_attn = sum(r.attn for r in records)
        assert abs(total_attn - 1.0) <= 1e-9
        for r in records:
            assert np.all(r.pair_repr > -1.0) and np.all(r.pair_repr < 1.0)
            # A record can never out-score its own attention budget.
            total = sum(
                r.attn * float(r.posterior.probs[k]) for k in r.posterior.survivors
            )
            assert total <= r.attn + 1e-12

    def test_zero_readout_gives_half(self):
        params = init_params(ModelDims.square(3, 2), 10, seed=3)
        params.out_weight[...] = 0.0
        params.out_bias[...] = 0.0
        trace = prediction_forward(params, 0, 1, 2, 2)
        assert trace.probability == 0.5

    def test_logit_bias_closed_form(self):
        params = init_params(ModelDims.square(3, 2), 10, seed=3)
        params.out_weight[...] = 0.0
        params.out_bias[...] = LN_3
        trace = prediction_forward(params, 0, 1, 2, 2)
        assert abs(trace.probability - 0.75) <= 1e-12

    def test_structure_reuse_reproduces_forward(self):
        params = init_params(ModelDims.square(3, 2), 10, seed=5)
        trace = prediction_forward(params, 2, 3, 3, 3)
        again = prediction_forward(params, 2, 3, 3, 3, structure=trace.structure)
        assert again.probability == trace.probability
        assert np.array_equal(again.posterior, trace.posterior)

    def test_gradients_match_finite_differences(self):
        (result,) = grad_check(losses=("prediction",))
        assert result.passed, result.format()
        assert result.max_error <= 1e-4


def unfactored_forward_backward(params, structure, dlogit):
    """The pair projection in its per-pair form: every pair's
    concatenated input [E[h]; E[t]; a] through the full pair weight, and
    gradients scattered into entity rows pair by pair with np.add.at.
    Returns (probability, grads)."""
    dims = params.dims
    d, n_rel = dims.d, dims.n_rel
    heads, tails = structure.pair_heads, structure.pair_tails
    E, R = params.entity_emb, params.relation_emb
    rows = np.concatenate([np.arange(n_rel), [dims.na_index]])
    diff = E[heads][:, None, :] + R[rows][None, :, :] - E[tails][:, None, :]
    all_scores = -np.abs(diff).sum(axis=2)
    scores, na_scores = all_scores[:, :n_rel], all_scores[:, n_rel]
    masked = np.where(structure.survivors, scores, -np.inf)
    m = np.maximum(masked.max(axis=1, initial=-np.inf), na_scores)
    exp_fwd = np.exp(masked - m[:, None])
    exp_na = np.exp(na_scores - m)
    z = exp_na + exp_fwd.sum(axis=1)
    posterior, na_mass = exp_fwd / z[:, None], exp_na / z
    inputs = np.concatenate([E[heads], E[tails], posterior @ R[:n_rel]], axis=1)
    reprs = np.tanh(inputs @ params.pair_weight + params.pair_bias)
    hidden = np.tanh(reprs @ params.attn_weight.T + params.attn_bias)
    logits = hidden @ params.attn_vector
    attn = np.exp(logits - logits.max())
    attn /= attn.sum()
    pooled = attn @ reprs
    logit = float(params.out_weight @ pooled + params.out_bias)

    grads = {
        "entity_emb": np.zeros_like(E),
        "relation_emb": np.zeros_like(R),
        "out_weight": dlogit * pooled,
        "out_bias": np.asarray(dlogit),
    }
    d_pooled = dlogit * params.out_weight
    d_attn = reprs @ d_pooled
    d_logits = attn * (d_attn - attn @ d_attn)
    grads["attn_vector"] = hidden.T @ d_logits
    d_hidden = d_logits[:, None] * params.attn_vector * (1.0 - hidden**2)
    grads["attn_weight"] = d_hidden.T @ reprs
    grads["attn_bias"] = d_hidden.sum(axis=0)
    d_repr = attn[:, None] * d_pooled + d_hidden @ params.attn_weight
    d_pre = d_repr * (1.0 - reprs**2)
    grads["pair_weight"] = inputs.T @ d_pre
    grads["pair_bias"] = d_pre.sum(axis=0)
    d_inputs = d_pre @ params.pair_weight.T
    d_assum = d_inputs[:, 2 * d :]
    grads["relation_emb"][:n_rel] += posterior.T @ d_assum
    d_post = d_assum @ R[:n_rel].T
    inner = (d_post * posterior).sum(axis=1)
    d_all = np.concatenate(
        [posterior * (d_post - inner[:, None]), (-na_mass * inner)[:, None]], axis=1
    )
    weighted = d_all[:, :, None] * np.sign(diff)
    rel_rows = -weighted.sum(axis=0)
    grads["relation_emb"][:n_rel] += rel_rows[:n_rel]
    grads["relation_emb"][dims.na_index] += rel_rows[n_rel]
    np.add.at(grads["entity_emb"], heads, d_inputs[:, :d] - weighted.sum(axis=1))
    np.add.at(grads["entity_emb"], tails, d_inputs[:, d : 2 * d] + weighted.sum(axis=1))
    return 1.0 / (1.0 + np.exp(-logit)), grads


def random_params(seed, vocab_size=30):
    params = init_params(ModelDims(d=6, d_p=5, d_a=4, n_rel=3), vocab_size, seed=seed)
    rng = np.random.default_rng(seed)
    for tensor in params.tensors().values():
        tensor[...] = rng.normal(0.0, 0.5, size=tensor.shape)
    return params


def assert_relative_close(actual, expected, tol=1e-12):
    scale = max(float(np.abs(expected).max()), 1.0)
    assert float(np.abs(actual - expected).max()) <= tol * scale


class TestFactoredKernelEquivalence:
    """The factored pair projection equals the per-pair form."""

    # Explicit pair lists: CWA-style with repeated heads and tails, and a
    # grid whose entities 3 and 1 are both head and tail associations.
    PAIR_SETS = {
        "cross_product_grid": None,
        "cwa_pair_list": ([4, 4, 9, 2, 9, 4], [7, 11, 7, 7, 5, 5]),
        "shared_entity_grid": (
            np.repeat([1, 2, 3], 3),
            np.tile([3, 4, 1], 3),
        ),
    }

    def check(self, params, trace):
        probability, expected = unfactored_forward_backward(
            params, trace.structure, dlogit=0.7
        )
        assert abs(trace.probability - probability) <= 1e-12 * probability
        grads = prediction_backward(params, trace, 0.7)
        assert set(grads) == set(expected)
        for name, grad in expected.items():
            assert_relative_close(grads[name], grad)

    @pytest.mark.parametrize("pair_set", sorted(PAIR_SETS))
    def test_matches_per_pair_form(self, pair_set):
        pairs = self.PAIR_SETS[pair_set]
        for seed in range(3):
            params = random_params(seed)
            trace = prediction_forward(
                params, 0, 8, 4, 3,
                structure=None if pairs is None else PredictionStructure(
                    *(np.asarray(p) for p in pairs)
                ),
            )
            self.check(params, trace)

    def test_matches_per_pair_form_with_frozen_structure(self):
        params = random_params(5)
        structure = prediction_forward(params, 0, 8, 4, 3).structure
        # Moved parameters keep the frozen survivor sets, so some pairs
        # score relations that would not survive on their own.
        moved = random_params(6)
        trace = prediction_forward(moved, 0, 8, 4, 3, structure=structure)
        assert trace.structure is structure
        self.check(moved, trace)


def unblocked_grid(params, pair_heads, pair_tails, survivors=None):
    """The whole (P, n_rel + 1, d) residual grid at once, and from it the
    scores, NA scores, survivors, posterior, NA mass and residual signs:
    the reference the blocked kernel must equal bit for bit."""
    dims = params.dims
    n_rel = dims.n_rel
    rows = np.concatenate([np.arange(n_rel), [dims.na_index]])
    E, R = params.entity_emb, params.relation_emb
    residuals = E[pair_heads][:, None, :] + R[rows][None, :, :] - E[pair_tails][:, None, :]
    all_scores = -np.abs(residuals).sum(axis=2)
    scores, na_scores = all_scores[:, :n_rel], all_scores[:, n_rel]
    if survivors is None:
        survivors = scores > na_scores[:, None]
    masked = np.where(survivors, scores, -np.inf)
    m = np.maximum(masked.max(axis=1, initial=-np.inf), na_scores)
    exp_fwd = np.exp(masked - m[:, None])
    exp_na = np.exp(na_scores - m)
    z = exp_na + exp_fwd.sum(axis=1)
    return scores, na_scores, survivors, exp_fwd / z[:, None], exp_na / z, np.sign(residuals)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestBlockedGrid:
    """The L1 scores and the backward's residual signs are computed over
    blocks of pairs.  With the block shrunk to BLOCK pairs, every pair
    count around a block boundary gives the unblocked grid's scores,
    survivors, posterior and signs bit for bit, and the same gradients as
    one block."""

    BLOCK = 4
    # (n_head, n_tail): P = 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7.
    GRIDS = [(1, 1), (3, 1), (2, 2), (1, 5), (1, 19)]
    SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        dims = random_params(0).dims
        pair_bytes = (dims.n_rel + 1) * dims.d * 8
        monkeypatch.setattr(
            relrec.relational, "_GRID_BLOCK_BYTES", self.BLOCK * pair_bytes
        )

    @staticmethod
    def pair_list(seed, size):
        # CWA-style: repeated heads and tails in no particular order.
        rng = np.random.default_rng(seed)
        return PredictionStructure(
            rng.integers(0, 6, size) * 5, rng.integers(0, 30, size)
        )

    def check(self, params, trace, frozen=None):
        structure = trace.structure
        scores, na_scores, survivors, posterior, na_mass, signs = unblocked_grid(
            params, structure.pair_heads, structure.pair_tails, frozen
        )
        assert_same_bits(trace.scores, scores)
        assert_same_bits(trace.na_scores, na_scores)
        assert_same_bits(structure.survivors, survivors)
        assert_same_bits(trace.posterior, posterior)
        assert_same_bits(trace.na_mass, na_mass)
        # Right after the forward a one-block grid is reused from the block
        # buffer; once dropped, it is recomputed block by block.
        for _ in range(2):
            assert_same_bits(
                relrec.relational._residual_signs(
                    params, trace.head_rows, trace.heads.inverse, structure.pair_tails
                ),
                signs,
            )
            relrec.relational._workspace.grid = None
        # The trace keeps head + relation per distinct head, not the grid.
        assert not hasattr(trace, "residuals")
        assert trace.head_rows.shape == (
            len(trace.heads.ids), params.dims.n_rel + 1, params.dims.d
        )

    def check_gradients(self, monkeypatch, params, trace):
        blocked = prediction_backward(params, trace, 0.7)
        monkeypatch.setattr(relrec.relational, "_GRID_BLOCK_BYTES", 1 << 30)
        relrec.relational._workspace.grid = None
        whole = prediction_backward(params, trace, 0.7)
        assert set(blocked) == set(whole)
        for name in whole:
            assert_same_bits(blocked[name], whole[name])

    @pytest.mark.parametrize("n_head, n_tail", GRIDS)
    def test_owa_grid(self, small_blocks, monkeypatch, n_head, n_tail):
        for seed in range(2):
            params = random_params(seed)
            trace = prediction_forward(params, 0, 8, n_head, n_tail)
            assert len(trace.structure.pair_heads) == n_head * n_tail
            self.check(params, trace)
            self.check_gradients(monkeypatch, params, trace)

    @pytest.mark.parametrize("size", SIZES)
    def test_cwa_pair_list(self, small_blocks, monkeypatch, size):
        for seed in range(2):
            params = random_params(seed)
            trace = prediction_forward(
                params, 0, 8, 4, 4, structure=self.pair_list(seed, size)
            )
            self.check(params, trace)
            self.check_gradients(monkeypatch, params, trace)

    @pytest.mark.parametrize("size", SIZES)
    def test_frozen_survivors(self, small_blocks, monkeypatch, size):
        structure = prediction_forward(
            random_params(5), 0, 8, 4, 4, structure=self.pair_list(size, size)
        ).structure
        moved = random_params(6)
        trace = prediction_forward(moved, 0, 8, 4, 4, structure=structure)
        assert trace.structure is structure
        self.check(moved, trace, frozen=structure.survivors)
        self.check_gradients(monkeypatch, moved, trace)

    @pytest.mark.parametrize("n_tail", [1, 19])
    def test_interleaved_traces_keep_their_gradients(self, small_blocks, n_tail):
        # A backward after another query's forward must not take that
        # query's grid from the block buffer.
        params = random_params(2)
        first = prediction_forward(params, 0, 8, 1, n_tail)
        expected = prediction_backward(params, first, 0.7)
        for head, tail in [(3, 9), (0, 8)]:
            prediction_forward(params, head, tail, 1, n_tail)
            grads = prediction_backward(params, first, 0.7)
            for name in expected:
                assert_same_bits(grads[name], expected[name])

    def test_float32_grid(self, small_blocks):
        params = random_params(3)
        for name, tensor in params.tensors().items():
            setattr(params, name, tensor.astype(np.float32))
        trace = prediction_forward(params, 0, 8, 1, 19)
        self.check(params, trace)

    def test_forward_peak_memory_below_one_grid(self, traced_peak):
        # One large-scale forward (d = 128, P = 32 x 32 = 1024) on a fresh
        # thread, so its scratch block is allocated inside the measurement.
        # The grid is 5 (P, d) float64 arrays.  The peak is 4.3 of them: the
        # 1 MiB block buffer, and at the pair projection its result, the
        # gathered tail projections and the assumption block.
        params = init_params(ModelDims.square(128, 4), 200, seed=0)
        pair_rows = 1024 * params.dims.d * 8
        trace, peak, _ = traced_peak(lambda: prediction_forward(params, 0, 1, 32, 32))
        assert len(trace.structure.pair_heads) == 1024
        assert peak < 4.5 * pair_rows


class TestSingleRowHelpersMatchKernel:
    """The single-row helpers are one-row calls into the batched kernel:
    each equals the matching row of a `prediction_forward` trace."""

    def test_posterior_and_attention_equal_grid_rows(self):
        for seed in range(4):
            params = random_params(seed)
            trace = prediction_forward(params, 0, 8, 4, 3)
            heads, tails = trace.structure.pair_heads, trace.structure.pair_tails
            for p in range(len(heads)):
                post = relation_posterior(params, int(heads[p]), int(tails[p]))
                survivors = np.flatnonzero(trace.structure.survivors[p])
                assert np.array_equal(post.probs, trace.posterior[p])
                assert post.na_mass == trace.na_mass[p]
                assert post.na_score == trace.na_scores[p]
                assert np.array_equal(post.survivors, survivors)
                probs, na_mass, from_scores = posterior_from_scores(
                    trace.scores[p], trace.na_scores[p]
                )
                assert np.array_equal(probs, trace.posterior[p])
                assert na_mass == trace.na_mass[p]
                assert np.array_equal(from_scores, survivors)
            attn = attention_weights(params, trace.pair_reprs)
            assert np.array_equal(attn, trace.attn)

    def test_assumption_and_pair_representation_match_grid_rows(self):
        # Not bit for bit: BLAS may sum one row of a many-row product in
        # another order than a one-row product, and the helper's assumption
        # block is (posterior @ R) @ W_a where the kernel uses
        # posterior @ (R @ W_a).  The rows differ by at most a few ulps.
        for seed in range(4):
            params = random_params(seed)
            trace = prediction_forward(params, 0, 8, 4, 3)
            assum_vecs = trace.posterior @ params.relation_emb[: params.dims.n_rel]
            heads, tails = trace.structure.pair_heads, trace.structure.pair_tails
            for p in range(len(heads)):
                assum_vec = assumption_vector(trace.posterior[p], params)
                assert_relative_close(assum_vec, assum_vecs[p], tol=1e-15)
                pair_repr = pair_representation(
                    params, int(heads[p]), int(tails[p]), assum_vec
                )
                assert_relative_close(pair_repr, trace.pair_reprs[p], tol=1e-15)


class TestExtractRationales:
    def make_report(self, records, target=(7, 0, 7), top_k=5):
        vocab = Vocab([f"e{i}" for i in range(8)])
        schema = RelationSchema(names=("r0", "r1"))
        return extract_rationales(
            records,
            target,
            top_k,
            vocab=vocab,
            schema=schema,
            probability=0.9,
        )

    def test_hand_ranking(self):
        records = [
            make_record(0, 1, attn=0.75, probs=[0.7311, 0.0]),
            make_record(2, 3, attn=0.25, probs=[0.0, 0.9]),
        ]
        report = self.make_report(records)
        assert [r.score for r in report.rationales] == pytest.approx(
            [0.548325, 0.225], abs=1e-9
        )
        assert report.rationales[0].head == "e0"
        assert report.rationales[0].relation == "r0"
        assert report.rationales[1].relation == "r1"

    def test_every_surviving_relation_is_a_candidate(self):
        records = [make_record(0, 1, attn=1.0, probs=[0.5, 0.3])]
        report = self.make_report(records)
        assert len(report.rationales) == 2
        assert {r.relation for r in report.rationales} == {"r0", "r1"}

    def test_target_triple_removed(self):
        records = [
            make_record(0, 1, attn=0.75, probs=[0.7311, 0.0]),
            make_record(2, 3, attn=0.25, probs=[0.0, 0.9]),
        ]
        report = self.make_report(records, target=(0, 0, 1))
        assert len(report.rationales) == 1
        assert report.rationales[0].head == "e2"

    def test_zero_posteriors_give_empty_report(self):
        records = [make_record(0, 1, attn=1.0, probs=[0.0, 0.0])]
        report = self.make_report(records)
        assert report.rationales == []

    def test_tie_break_order(self):
        records = [
            make_record(4, 1, attn=0.5, probs=[0.4, 0.0]),
            make_record(2, 1, attn=0.5, probs=[0.4, 0.0]),
            make_record(2, 0, attn=0.5, probs=[0.4, 0.0]),
        ]
        report = self.make_report(records)
        ordered = [(r.head, r.tail) for r in report.rationales]
        assert ordered == [("e2", "e0"), ("e2", "e1"), ("e4", "e1")]

    def test_top_k_caps_output(self):
        records = [make_record(i, i + 1, attn=0.2, probs=[0.3, 0.2]) for i in range(5)]
        report = self.make_report(records, top_k=3)
        assert len(report.rationales) == 3

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, top_k):
        records = [make_record(i, i + 1, attn=0.2, probs=[0.3, 0.2]) for i in range(5)]
        with pytest.raises(ValueError, match="top_k"):
            self.make_report(records, top_k=top_k)

    def test_json_line_schema(self):
        records = [make_record(0, 1, attn=1.0, probs=[0.6, 0.0])]
        report = self.make_report(records)
        payload = json.loads(report.to_json_line())
        assert set(payload) == {
            "head",
            "tail",
            "relation",
            "mode",
            "probability",
            "fallback",
            "rationales",
        }
        assert payload["mode"] == "OWA"
        assert set(payload["rationales"][0]) == {
            "h",
            "r",
            "t",
            "score",
            "attn",
            "posterior",
        }

    def test_format_table_mentions_pair_and_ranks(self):
        records = [make_record(0, 1, attn=1.0, probs=[0.6, 0.0])]
        table = self.make_report(records).format_table()
        assert "pair: e7" in table
        assert "probability" in table
        assert "rank" in table


ATTN_VALUES = (0.1, 0.25, 0.5)
# 0.25 * 0.4 == 0.5 * 0.2 exactly, and repeated draws give equal
# attention and posterior on several pairs: both force score ties.  A
# survivor whose posterior underflowed to 0.0 still ranks, with score 0.
POSTERIOR_VALUES = (0.0, 0.2, 0.4, 0.5, 0.8)
RANKER_VOCAB = Vocab([f"e{i}" for i in range(8)])


def oracle_ranking(candidates, target, top_k):
    """The tuple-sort ranking: drop the target triple from the
    (score, head, tail, relation, attn, posterior) candidates, sort by
    (-score, head, tail, relation) and keep the first top_k."""
    kept = [c for c in candidates if (c[1], c[3], c[2]) != tuple(target)]
    kept.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return kept[:top_k]


@st.composite
def ranker_cases(draw):
    """(mode, pairs, attn, posterior, candidate cells, target, top_k,
    dtype): an OWA association grid ranking every survivor, or a CWA pair
    list ranking the survivors that are kb relations."""
    n_rel = draw(st.integers(1, 3))
    ids = st.integers(0, len(RANKER_VOCAB) - 1)
    mode = draw(st.sampled_from([OWA_MODE, CWA_MODE]))
    if mode == OWA_MODE:
        heads = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
        tails = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
        pairs = [(h, t) for h in heads for t in tails]
    else:
        pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=8, unique=True))
    attn = draw(st.lists(st.sampled_from(ATTN_VALUES), min_size=len(pairs),
                         max_size=len(pairs)))
    cells = [(p, k) for p in range(len(pairs)) for k in range(n_rel)]
    vetoes = draw(st.sampled_from(["none", "some", "all"]))
    if vetoes == "some":
        survived = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    else:
        survived = [vetoes == "none"] * len(cells)
    probs = draw(st.lists(st.sampled_from(POSTERIOR_VALUES), min_size=len(cells),
                          max_size=len(cells)))
    posterior = [[0.0] * n_rel for _ in pairs]
    for (p, k), alive, q in zip(cells, survived, probs):
        if alive:
            posterior[p][k] = q
    candidates = [c for c, alive in zip(cells, survived) if alive]
    if mode == CWA_MODE:
        candidates = [c for c in candidates if draw(st.booleans())]
    if candidates and draw(st.booleans()):
        p, k = draw(st.sampled_from(candidates))
        target = (pairs[p][0], k, pairs[p][1])
    else:
        target = (draw(ids), draw(st.integers(0, n_rel - 1)), draw(ids))
    top_k = draw(st.integers(1, len(candidates) + 3))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    return mode, pairs, attn, posterior, candidates, target, top_k, dtype


class TestArrayRanker:
    """The array ranker equals the tuple-sort oracle entry for entry."""

    @settings(max_examples=300, deadline=None)
    @given(ranker_cases())
    # Every score tied, the target among them, top_k above the count.
    @example((OWA_MODE, [(0, 1), (0, 2), (3, 1), (3, 2)], [0.25] * 4,
              [[0.4, 0.4]] * 4, [(p, k) for p in range(4) for k in range(2)],
              (3, 1, 2), 100, "float64"))
    # All pairs vetoed.
    @example((OWA_MODE, [(0, 1), (0, 2)], [0.5, 0.5], [[0.0, 0.0]] * 2, [],
              (0, 0, 1), 5, "float64"))
    def test_matches_tuple_sort_oracle(self, case):
        mode, pairs, attn, posterior, candidates, target, top_k, dtype = case
        n_rel = len(posterior[0])
        schema = RelationSchema(names=tuple(f"r{k}" for k in range(n_rel)))
        pair_heads = np.array([h for h, _ in pairs], dtype=np.int64)
        pair_tails = np.array([t for _, t in pairs], dtype=np.int64)
        attn = np.array(attn, dtype=dtype)
        posterior = np.array(posterior, dtype=dtype)
        p, k = np.array(candidates, dtype=np.int64).reshape(-1, 2).T
        report = _ranked_report(
            pair_heads[p], pair_tails[p], k, attn[p], posterior[p, k], target,
            top_k, vocab=RANKER_VOCAB, schema=schema, probability=0.5, mode=mode,
        )
        expected = oracle_ranking(
            [
                (float(attn[p]) * float(posterior[p, k]), pairs[p][0], pairs[p][1],
                 k, float(attn[p]), float(posterior[p, k]))
                for p, k in candidates
            ],
            target,
            top_k,
        )
        entries = report.rationales
        assert [
            (e.score, e.head_id, e.tail_id, e.relation_id, e.attn, e.posterior)
            for e in entries
        ] == expected
        assert [(e.head, e.relation, e.tail) for e in entries] == [
            (RANKER_VOCAB.term_of(h), schema.name_of(k), RANKER_VOCAB.term_of(t))
            for _, h, t, k, _, _ in expected
        ]
        # Plain Python numbers, so the JSON line is that of the oracle's.
        assert all(
            type(e.score) is type(e.attn) is type(e.posterior) is float
            and type(e.head_id) is type(e.tail_id) is type(e.relation_id) is int
            for e in entries
        )
        if mode == OWA_MODE:
            records = [
                AssumptionRecord(
                    assoc_head=h,
                    assoc_tail=t,
                    top_relation=None,
                    posterior=RelationPosterior(
                        probs=posterior[i], na_score=0.0, na_mass=0.0,
                        survivors=np.array([c for q, c in candidates if q == i],
                                           dtype=np.int64),
                    ),
                    pair_repr=np.zeros(2),
                    attn=float(attn[i]),
                    score=0.0,
                )
                for i, (h, t) in enumerate(pairs)
            ]
            assert extract_rationales(
                records, target, top_k, vocab=RANKER_VOCAB, schema=schema,
                probability=0.5,
            ) == report


class TestServingPath:
    """`rationalize_pair` ranks the forward trace itself: it builds no
    per-pair records, and its OWA report is the one the record path
    gives."""

    @staticmethod
    def world():
        params = random_params(0)
        vocab = Vocab([f"e{i}" for i in range(params.vocab_size)])
        schema = RelationSchema(names=("r0", "r1", "r2"))
        head_assoc = relrec.rationale.top_associations(params, 0, 4)
        tail_assoc = relrec.rationale.top_associations(params, 8, 3)
        h, t = int(head_assoc.entity_ids[0]), int(tail_assoc.entity_ids[0])
        kb = TripleSet(triples=[(h, k, t) for k in range(3)])
        # The queried head is never its own association.
        no_match = TripleSet(triples=[(0, 0, 8)])
        return params, vocab, schema, kb, no_match

    def rationalize(self, mode, kb=None, top_k=5):
        params, vocab, schema, kb_match, no_match = self.world()
        return rationalize_pair(
            params, vocab, schema, 0, 8, 0, n_head=4, n_tail=3,
            top_k=top_k, mode=mode,
            kb={"kb": kb_match, "fallback": no_match}.get(kb),
        )

    @pytest.mark.parametrize(
        "mode, kb, fallback", [("owa", None, False), ("cwa", "kb", False),
                               ("cwa", "fallback", True)]
    )
    def test_no_records_built(self, monkeypatch, mode, kb, fallback):
        expected = self.rationalize(mode, kb)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-pair records built while serving")

        for name in ("_records_from_trace", "predict_relation", "extract_rationales"):
            monkeypatch.setattr(relrec.rationale, name, forbidden)
        report = self.rationalize(mode, kb)
        assert report == expected
        assert report.fallback == fallback
        assert (report.rationales == []) == fallback

    @pytest.mark.parametrize("top_k", [1, 5, 1000])
    def test_owa_report_equals_record_path(self, top_k):
        for seed in range(4):
            params = random_params(seed)
            vocab = Vocab([f"e{i}" for i in range(params.vocab_size)])
            schema = RelationSchema(names=("r0", "r1", "r2"))
            probability, records = predict_relation(params, 0, 8, 4, 3)
            report = rationalize_pair(
                params, vocab, schema, 0, 8, 0, n_head=4, n_tail=3, top_k=top_k,
            )
            assert report.rationales
            assert report == extract_rationales(
                records, (0, 0, 8), top_k, vocab=vocab, schema=schema,
                probability=probability,
            )

    @pytest.mark.parametrize("mode, kb", [("owa", None), ("cwa", "kb")])
    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, mode, kb, top_k):
        with pytest.raises(ValueError, match="top_k"):
            self.rationalize(mode, kb, top_k=top_k)


class TestCwa:
    def build_retrieval_world(self):
        # Retrieval distributions are engineered exactly: with one-hot
        # query embeddings, context embedding column c holds the log of
        # the desired retrieval probability for query c, so the softmax
        # reproduces the probabilities up to rounding.
        params = zeroed_params(vocab_size=6, d=2, n_rel=1)
        p_head = np.array([0.01, 0.04, 0.5, 0.4, 0.03, 0.02])
        p_tail = np.array([0.13, 0.14, 0.08, 0.05, 0.2, 0.4])
        params.entity_emb[0] = [1.0, 0.0]
        params.entity_emb[1] = [0.0, 1.0]
        params.context_emb[:, 0] = np.log(p_head)
        params.context_emb[:, 1] = np.log(p_tail)
        return params

    def test_products_rank_kb_pairs(self):
        params = self.build_retrieval_world()
        # Head associations: e2 (0.5), e3 (0.4); tail associations:
        # e5 (0.4), e4 (0.2).  The kb keeps the cross pairs with
        # products 0.4*0.4 = 0.16 and 0.5*0.2 = 0.10.
        kb = TripleSet(triples=[(3, 0, 5), (2, 0, 4)])
        kept = cwa_rationales(params, kb, 0, 1, 2, 2)
        assert [(p.assoc_head, p.assoc_tail) for p in kept] == [(3, 5), (2, 4)]
        assert kept[0].retrieval == pytest.approx(0.16, abs=1e-9)
        assert kept[1].retrieval == pytest.approx(0.10, abs=1e-9)

    def test_non_kb_pairs_excluded_despite_high_retrieval(self):
        params = self.build_retrieval_world()
        # (2, 5) has the largest product (0.20) but is not in the kb.
        kb = TripleSet(triples=[(2, 0, 4)])
        kept = cwa_rationales(params, kb, 0, 1, 2, 2)
        assert [(p.assoc_head, p.assoc_tail) for p in kept] == [(2, 4)]

    def test_cap_at_grid_size(self):
        params = self.build_retrieval_world()
        kb = TripleSet(
            triples=[(h, 0, t) for h in range(6) for t in range(6) if h != t]
        )
        kept = cwa_rationales(params, kb, 0, 1, 2, 2)
        assert len(kept) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([np.float64, np.float32]),
        st.integers(0, 60),
    )
    def test_matches_pair_loop_oracle(self, seed, dtype, n_triples):
        # The n_head x n_tail loop over kb.has_pair, sorted by
        # (-retrieval, head, tail) with Python float products.  Few
        # distinct probabilities force retrieval ties; some kb ids lie
        # beyond every association, and some associations beyond the kb.
        rng = np.random.default_rng(seed)
        values = np.array([0.5, 0.3, 0.1, 0.0, 0.7], dtype=dtype)
        head_assoc, tail_assoc = (
            AssociationList(
                entity=-1,
                entity_ids=rng.permutation(14)[:n].astype(np.int64),
                probabilities=values[rng.integers(0, 5, n)],
            )
            for n in rng.integers(1, 9, 2)
        )
        kb = TripleSet(triples=[
            (int(h), 0, int(t)) for h, t in rng.integers(0, 12, (n_triples, 2))
        ])
        expected = [
            (ha, ta, hp * tp)
            for ha, hp in head_assoc
            for ta, tp in tail_assoc
            if kb.has_pair(ha, ta)
        ]
        expected.sort(key=lambda c: (-c[2], c[0], c[1]))
        kept = cwa_rationales(
            None, kb, 0, 1, 8, 8, associations=(head_assoc, tail_assoc)
        )
        assert [(p.assoc_head, p.assoc_tail, p.retrieval) for p in kept] == expected
        for p in kept:
            assert type(p.assoc_head) is int and type(p.retrieval) is float

    def test_has_pairs_matches_has_pair(self):
        kb = TripleSet(triples=[(0, 0, 1), (7, 1, 0), (3, 0, 3), (7, 0, 0)])
        heads, tails = np.meshgrid(np.arange(-2, 10), np.arange(-2, 10), indexing="ij")
        found = kb.has_pairs(heads, tails)
        expected = [[kb.has_pair(h, t) for t in range(-2, 10)] for h in range(-2, 10)]
        assert found.tolist() == expected
        assert not TripleSet(triples=[]).has_pairs([0, 1], [1, 0]).any()
        with pytest.raises(ValueError, match="entity ids"):
            TripleSet(triples=[(-1, 0, 2)]).has_pairs([0], [2])

    def test_report_contains_only_kb_triples(self):
        params = self.build_retrieval_world()
        vocab = Vocab([f"e{i}" for i in range(6)])
        schema = RelationSchema(names=("r0",))
        kb = TripleSet(triples=[(3, 0, 5), (2, 0, 4)])
        report = rationalize_pair(
            params, vocab, schema, 0, 1, 0,
            n_head=2, n_tail=2, top_k=5, mode="cwa", kb=kb,
        )
        assert report.mode == "CWA"
        assert not report.fallback
        emitted = {(r.head, r.relation, r.tail) for r in report.rationales}
        assert emitted <= {("e3", "r0", "e5"), ("e2", "r0", "e4")}

    def test_vetoed_kb_relation_not_reported(self):
        params = init_params(ModelDims.square(4, 2), 8, seed=0)
        rng = np.random.default_rng(0)
        for tensor in params.tensors().values():
            tensor[...] = rng.normal(0.0, 0.5, size=tensor.shape)
        trace = prediction_forward(params, 0, 1, 3, 3)
        vetoed = np.argwhere(trace.posterior == 0.0)
        assert len(vetoed) > 0
        pair, relation = (int(x) for x in vetoed[0])
        triple = (
            int(trace.structure.pair_heads[pair]),
            relation,
            int(trace.structure.pair_tails[pair]),
        )
        report = rationalize_pair(
            params, Vocab([f"e{i}" for i in range(8)]),
            RelationSchema(names=("r0", "r1")), 0, 1, 0,
            n_head=3, n_tail=3, top_k=5, mode="cwa",
            kb=TripleSet(triples=[triple]),
        )
        assert not report.fallback
        assert report.rationales == []

    @pytest.mark.parametrize("kb_triples", [[(3, 0, 5)], [(0, 0, 1)]])
    def test_each_side_recalled_once(self, monkeypatch, kb_triples):
        params = self.build_retrieval_world()
        calls = []
        recall = relrec.rationale.top_associations

        def counting(*args):
            calls.append(args[1])
            return recall(*args)

        monkeypatch.setattr(relrec.rationale, "top_associations", counting)
        rationalize_pair(
            params, Vocab([f"e{i}" for i in range(6)]), RelationSchema(names=("r0",)),
            0, 1, 0, n_head=2, n_tail=2, top_k=5, mode="cwa",
            kb=TripleSet(triples=kb_triples),
        )
        assert sorted(calls) == [0, 1]

    def test_fallback_when_nothing_matches(self):
        params = self.build_retrieval_world()
        vocab = Vocab([f"e{i}" for i in range(6)])
        schema = RelationSchema(names=("r0",))
        kb = TripleSet(triples=[(0, 0, 1)])  # never an association pair
        report = rationalize_pair(
            params, vocab, schema, 0, 1, 0,
            n_head=2, n_tail=2, top_k=5, mode="cwa", kb=kb,
        )
        assert report.fallback
        assert report.rationales == []
        assert 0.0 < report.probability < 1.0

    def test_cwa_requires_kb(self):
        params = self.build_retrieval_world()
        vocab = Vocab([f"e{i}" for i in range(6)])
        schema = RelationSchema(names=("r0",))
        with pytest.raises(ValueError, match="kb"):
            rationalize_pair(
                params, vocab, schema, 0, 1, 0,
                n_head=2, n_tail=2, top_k=5, mode="cwa",
            )

    def test_unknown_mode_rejected(self):
        params = self.build_retrieval_world()
        vocab = Vocab([f"e{i}" for i in range(6)])
        schema = RelationSchema(names=("r0",))
        with pytest.raises(ValueError, match="mode"):
            rationalize_pair(
                params, vocab, schema, 0, 1, 0,
                n_head=2, n_tail=2, top_k=5, mode="banana",
            )
