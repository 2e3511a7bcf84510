"""Assumption representations, attention, prediction, and rationale
reports in open- and closed-world modes."""

import json
import math

import numpy as np
import pytest

from relrec.graph import Vocab
from relrec.params import ModelDims, init_params
import relrec.rationale
from relrec.rationale import (
    AssumptionRecord,
    CwaPair,
    PredictionStructure,
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
        assum_vec=np.zeros(d),
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


def unfactored_forward_backward(params, structure, include_na, dlogit):
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
    m = masked.max(axis=1, initial=-np.inf)
    if include_na:
        m = np.maximum(m, na_scores)
    m = np.where(np.isfinite(m), m, 0.0)
    exp_fwd = np.exp(masked - m[:, None])
    exp_na = np.exp(na_scores - m) if include_na else np.zeros(len(heads))
    z = exp_na + exp_fwd.sum(axis=1)
    z = np.where(z > 0, z, 1.0)
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

    def check(self, params, trace, include_na):
        probability, expected = unfactored_forward_backward(
            params, trace.structure, include_na, dlogit=0.7
        )
        assert abs(trace.probability - probability) <= 1e-12 * probability
        grads = prediction_backward(params, trace, 0.7)
        assert set(grads) == set(expected)
        for name, grad in expected.items():
            assert_relative_close(grads[name], grad)

    @pytest.mark.parametrize("include_na", [True, False])
    @pytest.mark.parametrize("pair_set", sorted(PAIR_SETS))
    def test_matches_per_pair_form(self, pair_set, include_na):
        pairs = self.PAIR_SETS[pair_set]
        for seed in range(3):
            params = random_params(seed)
            trace = prediction_forward(
                params, 0, 8, 4, 3,
                structure=None if pairs is None else PredictionStructure(
                    *(np.asarray(p) for p in pairs)
                ),
                include_na=include_na,
            )
            self.check(params, trace, include_na)

    @pytest.mark.parametrize("include_na", [True, False])
    def test_matches_per_pair_form_with_frozen_structure(self, include_na):
        params = random_params(5)
        structure = prediction_forward(
            params, 0, 8, 4, 3, include_na=include_na
        ).structure
        # Moved parameters keep the frozen survivor sets, so some pairs
        # score relations that would not survive on their own.
        moved = random_params(6)
        trace = prediction_forward(
            moved, 0, 8, 4, 3, structure=structure, include_na=include_na
        )
        assert trace.structure is structure
        self.check(moved, trace, include_na)


class TestSingleRowHelpersMatchKernel:
    """The single-row helpers are one-row calls into the batched kernel:
    each equals the matching row of a `prediction_forward` trace."""

    @pytest.mark.parametrize("include_na", [True, False])
    def test_posterior_and_attention_equal_grid_rows(self, include_na):
        for seed in range(4):
            params = random_params(seed)
            trace = prediction_forward(params, 0, 8, 4, 3, include_na=include_na)
            heads, tails = trace.structure.pair_heads, trace.structure.pair_tails
            for p in range(len(heads)):
                post = relation_posterior(
                    params, int(heads[p]), int(tails[p]), include_na=include_na
                )
                survivors = np.flatnonzero(trace.structure.survivors[p])
                assert np.array_equal(post.probs, trace.posterior[p])
                assert post.na_mass == trace.na_mass[p]
                assert post.na_score == trace.na_scores[p]
                assert np.array_equal(post.survivors, survivors)
                probs, na_mass, from_scores = posterior_from_scores(
                    trace.scores[p], trace.na_scores[p], include_na
                )
                assert np.array_equal(probs, trace.posterior[p])
                assert na_mass == trace.na_mass[p]
                assert np.array_equal(from_scores, survivors)
            attn = attention_weights(params, trace.pair_reprs)
            assert np.array_equal(attn, trace.attn)

    @pytest.mark.parametrize("include_na", [True, False])
    def test_assumption_and_pair_representation_match_grid_rows(self, include_na):
        # Not bit for bit: BLAS may sum one row of a many-row product in
        # another order than a one-row product, and the helper's assumption
        # block is (posterior @ R) @ W_a where the kernel uses
        # posterior @ (R @ W_a).  The rows differ by at most a few ulps.
        for seed in range(4):
            params = random_params(seed)
            trace = prediction_forward(params, 0, 8, 4, 3, include_na=include_na)
            heads, tails = trace.structure.pair_heads, trace.structure.pair_tails
            for p in range(len(heads)):
                assum_vec = assumption_vector(trace.posterior[p], params)
                assert_relative_close(assum_vec, trace.assum_vecs[p], tol=1e-15)
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
