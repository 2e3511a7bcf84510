"""Relation schema, triple sets, translation scores, and the
NA-thresholded relation posterior."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relrec.relational
from relrec.graph import GraphFormatError, Vocab
from relrec.params import ModelDims, init_params
from relrec.relational import (
    NA_NAME,
    RelationSchema,
    TripleSet,
    corrupt_triples,
    load_triples_tsv,
    posterior_from_scores,
    relation_posterior,
    relational_loss,
    triple_score,
)
from relrec.training import grad_check

# Frozen hand values.
SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)
TWO_LN_2 = 1.3862943611198906


def zeroed_params(vocab_size: int = 4, d: int = 2, n_rel: int = 2):
    params = init_params(ModelDims.square(d, n_rel), vocab_size, seed=0)
    for tensor in params.tensors().values():
        tensor[...] = 0.0
    return params


class TestRelationSchema:
    def test_basic_lookup(self):
        schema = RelationSchema(names=("treats", "causes"))
        assert schema.n_rel == 2
        assert schema.index_of("causes") == 1
        assert schema.name_of(0) == "treats"

    def test_reverse_and_na_names(self):
        schema = RelationSchema(names=("treats", "causes"))
        assert schema.name_of(2) == "treats_inv"
        assert schema.name_of(3) == "causes_inv"
        assert schema.name_of(4) == NA_NAME

    def test_unknown_name_lists_known(self):
        schema = RelationSchema(names=("treats",))
        with pytest.raises(KeyError, match="treats"):
            schema.index_of("cures")

    @pytest.mark.parametrize("names", [(), ("a", "a"), (NA_NAME,)])
    def test_invalid_name_sets_rejected(self, names):
        with pytest.raises(ValueError):
            RelationSchema(names=names)


class TestTripleSet:
    def test_deduplicates_preserving_order(self):
        ts = TripleSet(triples=[(0, 0, 1), (2, 1, 3), (0, 0, 1)])
        assert ts.triples == [(0, 0, 1), (2, 1, 3)]
        assert len(ts) == 2
        assert (0, 0, 1) in ts
        assert (1, 0, 0) not in ts

    def test_relations_between(self):
        ts = TripleSet(triples=[(0, 1, 1), (0, 0, 1), (2, 0, 3)])
        assert ts.relations_between(0, 1) == [0, 1]
        assert ts.relations_between(9, 9) == []
        assert ts.has_pair(2, 3)
        assert not ts.has_pair(3, 2)

    def test_pools_are_sorted_and_distinct(self):
        ts = TripleSet(triples=[(5, 0, 1), (2, 0, 1), (5, 0, 3)])
        assert ts.head_pool(0).tolist() == [2, 5]
        assert ts.tail_pool(0).tolist() == [1, 3]
        assert ts.head_pool(1).tolist() == []

    def test_augment_reverse(self):
        ts = TripleSet(triples=[(0, 0, 1), (2, 1, 3)])
        aug = ts.augment_reverse(n_rel=2)
        assert (1, 2, 0) in aug  # reverse row = forward + n_rel
        assert (3, 3, 2) in aug
        assert len(aug) == 4
        # A second call must not add anything.
        assert len(aug.augment_reverse(n_rel=2)) == 4


class TestTripleLoader:
    def test_loads_valid_file(self, tmp_path):
        vocab = Vocab(["a", "b", "c"])
        schema = RelationSchema(names=("r0", "r1"))
        path = tmp_path / "triples.tsv"
        path.write_text("a\tr0\tb\nb\tr1\tc\n")
        ts = load_triples_tsv(str(path), vocab, schema)
        assert ts.triples == [(0, 0, 1), (1, 1, 2)]

    def test_collects_all_name_offenders(self, tmp_path):
        vocab = Vocab(["a", "b"])
        schema = RelationSchema(names=("r0",))
        path = tmp_path / "triples.tsv"
        path.write_text("a\tr0\tb\nzzz\tr0\tb\na\tbogus\tb\n")
        with pytest.raises(GraphFormatError) as exc_info:
            load_triples_tsv(str(path), vocab, schema)
        message = str(exc_info.value)
        assert "line 2" in message and "zzz" in message
        assert "line 3" in message and "bogus" in message

    def test_wrong_field_count_fails_fast(self, tmp_path):
        vocab = Vocab(["a", "b"])
        schema = RelationSchema(names=("r0",))
        path = tmp_path / "triples.tsv"
        path.write_text("a\tr0\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_triples_tsv(str(path), vocab, schema)


class TestTripleScore:
    def test_hand_value(self):
        params = zeroed_params()
        params.relation_emb[0] = [1.0, 1.0]
        assert triple_score(params, 0, 0, 1) == -2.0

    def test_perfect_translation_scores_zero(self):
        params = zeroed_params()
        params.entity_emb[0] = [1.0, -2.0]
        params.entity_emb[1] = [1.5, 0.0]
        params.relation_emb[1] = [0.5, 2.0]
        assert triple_score(params, 0, 1, 1) == 0.0

    def test_translation_invariance(self):
        params = init_params(ModelDims.square(3, 2), 6, seed=2)
        base = triple_score(params, 1, 0, 4)
        params.entity_emb += np.array([0.3, -1.2, 0.7])
        assert abs(triple_score(params, 1, 0, 4) - base) <= 1e-12


class TestPosterior:
    def test_closed_form_single_survivor(self):
        probs, na_mass, survivors = posterior_from_scores(
            np.array([2.0, 0.0]), na_score=1.0
        )
        assert survivors.tolist() == [0]
        assert abs(probs[0] - SIGMOID_1) <= 1e-4
        assert probs[1] == 0.0  # exact zero branch
        assert abs(probs[0] + na_mass - 1.0) <= 1e-12

    def test_no_survivors(self):
        probs, na_mass, survivors = posterior_from_scores(
            np.array([-1.0, 0.5]), na_score=0.5
        )
        assert survivors.tolist() == []
        assert np.all(probs == 0.0)
        assert na_mass == 1.0

    def test_equal_score_is_not_a_survivor(self):
        probs, _, survivors = posterior_from_scores(
            np.array([1.0, 1.0 + 1e-12]), na_score=1.0
        )
        assert survivors.tolist() == [1]
        assert probs[0] == 0.0

    def test_zero_branch_exactness_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            scores = rng.normal(scale=5.0, size=rng.integers(1, 9))
            na = float(rng.normal(scale=5.0))
            probs, na_mass, survivors = posterior_from_scores(scores, na)
            for k, s in enumerate(scores):
                if s <= na:
                    assert probs[k] == 0.0
                else:
                    assert probs[k] > 0.0
                    assert k in survivors
            assert abs(probs.sum() + na_mass - 1.0) <= 1e-9

    def test_relation_posterior_uses_na_row(self):
        params = zeroed_params(vocab_size=3, d=2, n_rel=2)
        # Forward scores: r0 = -2, r1 = -8; NA row gives -4, so only r0
        # survives and its posterior is 1/(1 + e^-2).
        params.relation_emb[0] = [1.0, 1.0]
        params.relation_emb[1] = [4.0, 4.0]
        params.relation_emb[4] = [2.0, 2.0]  # NA row: index 2*n_rel
        post = relation_posterior(params, 0, 1)
        assert post.survivors.tolist() == [0]
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(post.probs[0] - expected) <= 1e-12
        assert post.top() == (0, pytest.approx(expected, abs=1e-12))

    def test_top_is_none_without_survivors(self):
        params = zeroed_params(vocab_size=3, d=2, n_rel=2)
        # All rows zero: every score equals the NA score, nothing survives.
        post = relation_posterior(params, 0, 1)
        assert post.top() is None
        assert post.na_mass == 1.0


class TestCorruptions:
    def test_deterministic_for_seed(self):
        a = corrupt_triples((3, 1, 7), 10, "tail", 20, 5)
        b = corrupt_triples((3, 1, 7), 10, "tail", 20, 5)
        assert a == b

    def test_never_reproduces_gold_entity(self):
        for seed in range(20):
            for side in ("head", "tail"):
                out = corrupt_triples((2, 0, 3), 50, side, 5, seed)
                gold = 2 if side == "head" else 3
                for h, r, t in out:
                    assert r == 0
                    value = h if side == "head" else t
                    other = t if side == "head" else h
                    assert value != gold
                    assert 0 <= value < 5
                    assert other == (3 if side == "head" else 2)

    def test_frozen_draws_for_seed(self):
        tails = [t for _, _, t in corrupt_triples((3, 1, 7), 10, "tail", 20, 5)]
        heads = [h for h, _, _ in corrupt_triples((3, 1, 7), 10, "head", 20, 5)]
        assert tails == [13, 16, 0, 16, 9, 10, 12, 5, 19, 1]
        assert heads == [13, 16, 0, 16, 9, 10, 12, 6, 19, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            corrupt_triples((0, 0, 1), 3, "middle", 5, 0)
        with pytest.raises(ValueError):
            corrupt_triples((0, 0, 1), 3, "tail", 1, 0)


class TestRelationalLoss:
    def test_equal_scores_closed_form(self):
        # With all-zero embeddings every candidate ties the gold triple,
        # so each of the two corruption sides contributes ln 2.
        params = zeroed_params(vocab_size=3, d=2, n_rel=1)
        loss, grads = relational_loss(params, [(0, 0, 1)], n_neg=1, seed=0)
        assert abs(loss - TWO_LN_2) <= 1e-9
        assert set(grads) == {"entity_emb", "relation_emb"}

    def test_loss_sums_over_triples(self):
        # Zero embeddings keep every candidate tied regardless of the
        # sampled corruptions, so doubling the batch doubles the loss.
        params = zeroed_params(vocab_size=4, d=2, n_rel=1)
        one, _ = relational_loss(params, [(0, 0, 1)], n_neg=2, seed=1)
        two, _ = relational_loss(params, [(0, 0, 1), (2, 0, 3)], n_neg=2, seed=1)
        assert abs(two - 2.0 * one) <= 1e-9

    def test_empty_batch_rejected(self):
        params = zeroed_params()
        with pytest.raises(ValueError):
            relational_loss(params, [], n_neg=2, seed=0)
        with pytest.raises(ValueError):
            relational_loss(params, [(0, 0, 1)], n_neg=0, seed=0)

    @pytest.mark.parametrize(
        "triple", [(-1, 0, 1), (0, 0, 4), (0, -1, 1), (0, 5, 1)]
    )
    def test_out_of_range_ids_rejected(self, triple):
        # 4 entities and 2 * 2 + 1 relation rows.
        params = zeroed_params(vocab_size=4, n_rel=2)
        with pytest.raises(ValueError, match="out of range"):
            relational_loss(params, [triple], n_neg=2, seed=0)

    def test_gradients_match_finite_differences(self):
        (result,) = grad_check(losses=("relational",))
        assert result.passed, result.format()
        assert result.max_error <= 1e-4


def _per_triple_corruptions(triple, n_neg, side, vocab_size, rng):
    """The per-triple sampler the batched draw replaced."""
    head, relation, tail = triple
    gold = head if side == "head" else tail
    draws = rng.integers(0, vocab_size - 1, size=n_neg)
    draws = draws + (draws >= gold)
    if side == "head":
        return [(int(e), relation, tail) for e in draws]
    return [(head, relation, int(e)) for e in draws]


def per_triple_relational_loss(params, triples, n_neg, seed):
    """Reference form of relational_loss: per-triple corruption draws and
    six sequential np.add.at scatters."""
    rng = np.random.default_rng(seed)
    ent = params.entity_emb
    rel = params.relation_emb
    batch = len(triples)
    heads = np.array([t[0] for t in triples], dtype=np.int64)
    rels = np.array([t[1] for t in triples], dtype=np.int64)
    tails = np.array([t[2] for t in triples], dtype=np.int64)
    cand_tails = np.empty((batch, n_neg + 1), dtype=np.int64)
    cand_heads = np.empty((batch, n_neg + 1), dtype=np.int64)
    cand_tails[:, 0] = tails
    cand_heads[:, 0] = heads
    for b, triple in enumerate(triples):
        corrupted_t = _per_triple_corruptions(
            triple, n_neg, "tail", params.vocab_size, rng
        )
        corrupted_h = _per_triple_corruptions(
            triple, n_neg, "head", params.vocab_size, rng
        )
        cand_tails[b, 1:] = [t for _, _, t in corrupted_t]
        cand_heads[b, 1:] = [h for h, _, _ in corrupted_h]

    grad_entity = np.zeros_like(ent)
    grad_relation = np.zeros_like(rel)
    loss = 0.0
    for cand, fixed, fixed_is_head in (
        (cand_tails, heads, True),
        (cand_heads, tails, False),
    ):
        if fixed_is_head:
            base = ent[fixed] + rel[rels]
            diff = base[:, None, :] - ent[cand]
        else:
            base = rel[rels] - ent[fixed]
            diff = ent[cand] + base[:, None, :]
        sign = np.sign(diff)
        scores = -np.abs(diff).sum(axis=2)
        shifted = scores - scores.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        loss += float((log_z - shifted[:, 0]).sum())
        weight = np.exp(shifted) / np.exp(log_z)[:, None]
        weight[:, 0] -= 1.0
        weighted_sign = weight[:, :, None] * sign
        summed = weighted_sign.sum(axis=1)
        np.add.at(grad_relation, rels, -summed)
        flat_cand = cand.reshape(-1)
        flat_sign = weighted_sign.reshape(-1, ent.shape[1])
        if fixed_is_head:
            np.add.at(grad_entity, fixed, -summed)
            np.add.at(grad_entity, flat_cand, flat_sign)
        else:
            np.add.at(grad_entity, fixed, summed)
            np.add.at(grad_entity, flat_cand, -flat_sign)
    return loss, {"entity_emb": grad_entity, "relation_emb": grad_relation}


@st.composite
def relational_batches(draw):
    """Random parameters and a triple batch with forward and reverse
    relation rows, possibly repeating triples."""
    vocab_size = draw(st.integers(2, 40))
    d = draw(st.integers(1, 40))
    n_rel = draw(st.integers(1, 3))
    triple = st.tuples(
        st.integers(0, vocab_size - 1),
        st.integers(0, 2 * n_rel - 1),
        st.integers(0, vocab_size - 1),
    )
    triples = draw(st.lists(triple, min_size=1, max_size=12))
    repeats = draw(st.integers(0, len(triples)))
    return (
        vocab_size,
        d,
        n_rel,
        triples + triples[:repeats],
        draw(st.integers(1, 12)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestRelationalLossEquivalence:
    """The batched relational loss equals the per-triple form bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(relational_batches())
    @example((2, 3, 1, [(0, 0, 1), (1, 1, 0)], 4, 0))  # V = 2, reverse row
    @example((9, 37, 2, [(2, 3, 5), (2, 3, 5), (4, 0, 4)], 1, 3))  # n_neg = 1
    @example((30, 16, 1, [(7, 1, 2)] * 3, 5, 9))  # repeated triple
    def test_matches_per_triple_form(self, case):
        vocab_size, d, n_rel, triples, n_neg, seed = case
        params = init_params(ModelDims.square(d, n_rel), vocab_size, seed=seed)
        rng = np.random.default_rng(seed)
        for tensor in params.tensors().values():
            tensor[...] = rng.normal(0.0, 0.5, size=tensor.shape)
        expected_loss, expected = per_triple_relational_loss(
            params, triples, n_neg, seed
        )
        for batch in (triples, np.array(triples, dtype=np.int64)):
            loss, grads = relational_loss(params, batch, n_neg, seed=seed)
            assert loss == expected_loss
            assert set(grads) == set(expected)
            for name, grad in expected.items():
                assert grads[name].dtype == grad.dtype
                assert np.array_equal(grads[name], grad)


# Columns of a gradient tensor summed per np.bincount call in the
# whole-tensor form below.
_WHOLE_TENSOR_COLUMNS = 8


def whole_tensor_scatter_rows(n_rows, parts, dtype):
    """Sum value rows into an (n_rows, d) array of `dtype`: parts of (row
    ids, values with one d-row per id, negate), added in input order, part
    after part, in float64, by one ordered np.bincount per column block."""
    rows = np.concatenate([ids.reshape(-1) for ids, _, _ in parts])
    d = parts[0][1].shape[-1]
    out = np.empty((n_rows, d), dtype=dtype)
    for start in range(0, d, _WHOLE_TENSOR_COLUMNS):
        stop = min(start + _WHOLE_TENSOR_COLUMNS, d)
        width = stop - start
        index = (rows[:, None] * width + np.arange(width)).reshape(-1)
        values = np.empty((len(rows), width))
        offset = 0
        for _, part, negate in parts:
            block = part.reshape(-1, d)[:, start:stop]
            target = values[offset : offset + len(block)]
            if negate:
                np.negative(block, out=target)
            else:
                target[...] = block
            offset += len(block)
        sums = np.bincount(index, weights=values.reshape(-1), minlength=n_rows * width)
        out[:, start:stop] = sums.reshape(n_rows, width)
    return out


def whole_tensor_side_terms(ent, cand, base, tail_side):
    """Loss of one corruption side, its softmax-weighted residual signs
    (B, C, d) and their sum over candidates (B, d), from the whole
    (B, C, d) residual tensor."""
    residual = ent[cand]
    if tail_side:
        np.subtract(base[:, None, :], residual, out=residual)
    else:
        residual += base[:, None, :]
    weighted_sign = np.sign(residual)
    scores = -np.abs(residual, out=residual).sum(axis=2)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp_shifted = np.exp(shifted)
    log_z = np.log(exp_shifted.sum(axis=1))
    loss = float((log_z - shifted[:, 0]).sum())
    weight = exp_shifted / np.exp(log_z)[:, None]
    weight[:, 0] -= 1.0
    weighted_sign *= weight[:, :, None]
    return loss, weighted_sign, weighted_sign.sum(axis=1)


def whole_tensor_relational_loss(params, triples, n_neg, seed):
    """relational_loss with every (B, n_neg + 1, d) tensor of both sides
    held whole: one batched corruption draw, then the gradients summed by
    ordered bincounts over heads, tail candidates, tails, head candidates."""
    ids = np.asarray(triples, dtype=np.int64)
    heads, rels, tails = ids[:, 0], ids[:, 1], ids[:, 2]
    rng = np.random.default_rng(seed)
    ent, rel = params.entity_emb, params.relation_emb
    draws = rng.integers(0, params.vocab_size - 1, size=(len(ids), 2, n_neg))
    draws += draws >= np.stack([tails, heads], axis=1)[:, :, None]
    cand_tails = np.concatenate([tails[:, None], draws[:, 0]], axis=1)
    cand_heads = np.concatenate([heads[:, None], draws[:, 1]], axis=1)
    rel_rows = rel[rels]
    loss_t, sign_t, summed_t = whole_tensor_side_terms(
        ent, cand_tails, ent[heads] + rel_rows, tail_side=True
    )
    loss_h, sign_h, summed_h = whole_tensor_side_terms(
        ent, cand_heads, rel_rows - ent[tails], tail_side=False
    )
    grad_entity = whole_tensor_scatter_rows(
        ent.shape[0],
        [
            (heads, summed_t, True),
            (cand_tails, sign_t, False),
            (tails, summed_h, False),
            (cand_heads, sign_h, True),
        ],
        ent.dtype,
    )
    grad_relation = whole_tensor_scatter_rows(
        rel.shape[0], [(rels, summed_t, True), (rels, summed_h, True)], rel.dtype
    )
    return loss_t + loss_h, {"entity_emb": grad_entity, "relation_emb": grad_relation}


class TestStreamedRelationalStage:
    """relational_loss streams each side through blocks of triple rows; its
    loss and gradients equal the whole-tensor form bit for bit, in float64
    and float32, for blocks of one triple row, of a few rows and of the
    default size."""

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @settings(max_examples=25, deadline=None)
    @given(relational_batches())
    @example((2, 3, 1, [(0, 0, 1), (1, 1, 0)], 4, 0))  # V = 2, reverse row
    @example((9, 37, 2, [(2, 3, 5), (2, 3, 5), (4, 0, 4)], 1, 3))  # n_neg = 1
    @example((30, 16, 1, [(7, 1, 2)] * 3, 5, 9))  # repeated triple
    def test_matches_whole_tensor_form(self, block_rows, dtype, case):
        vocab_size, d, n_rel, triples, n_neg, seed = case
        params = init_params(ModelDims.square(d, n_rel), vocab_size, seed=seed)
        rng = np.random.default_rng(seed)
        for name, tensor in params.tensors().items():
            setattr(params, name, rng.normal(0.0, 0.5, tensor.shape).astype(dtype))
        expected_loss, expected = whole_tensor_relational_loss(
            params, triples, n_neg, seed
        )
        block_bytes = relrec.relational._TRIPLE_BLOCK_BYTES
        if block_rows is not None:
            # A block holds _TRIPLE_BLOCK_BYTES // (C * d * 8) triple rows.
            block_bytes = block_rows * (n_neg + 1) * d * 8
        with mock.patch.object(relrec.relational, "_TRIPLE_BLOCK_BYTES", block_bytes):
            loss, grads = relational_loss(params, triples, n_neg, seed=seed)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert set(grads) == set(expected)
        for name, grad in expected.items():
            assert grads[name].dtype == grad.dtype == dtype
            assert grads[name].shape == grad.shape
            assert grads[name].tobytes() == grad.tobytes()

    def test_peak_memory_below_a_quarter_of_one_side_tensor(self, traced_peak):
        # Large-workload dims on a fresh thread, so the stage's block
        # buffers are allocated inside the measurement.
        batch, n_neg, d, vocab_size = 256, 100, 128, 300
        params = init_params(ModelDims.square(d, 4), vocab_size, seed=0)
        rng = np.random.default_rng(0)
        triples = np.stack(
            [
                rng.integers(0, vocab_size, batch),
                rng.integers(0, 8, batch),
                rng.integers(0, vocab_size, batch),
            ],
            axis=1,
        )
        side_tensor = batch * (n_neg + 1) * d * 8
        _, peak, _ = traced_peak(
            lambda: relational_loss(params, triples, n_neg, seed=0)
        )
        assert peak < side_tensor / 4
