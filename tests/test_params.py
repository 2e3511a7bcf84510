"""Parameter initialization, Adam updates, and checkpoint persistence."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from relrec.graph import Vocab
from relrec.params import (
    AdamState,
    CheckpointError,
    CheckpointVersionError,
    ModelDims,
    ModelParams,
    TENSOR_ORDER,
    accumulate_grads,
    adam_step,
    expected_shapes,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def small_params(seed: int = 0) -> ModelParams:
    dims = ModelDims(d=3, d_p=4, d_a=2, n_rel=2)
    return init_params(dims, vocab_size=5, seed=seed)


class TestModelDims:
    def test_relation_table_layout(self):
        dims = ModelDims(d=4, d_p=4, d_a=4, n_rel=3)
        assert dims.n_rel_total == 7
        assert dims.na_index == 6
        assert dims.reverse_of(0) == 3
        assert dims.reverse_of(2) == 5

    def test_square_helper(self):
        dims = ModelDims.square(8, 2)
        assert (dims.d, dims.d_p, dims.d_a) == (8, 8, 8)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_dimensions_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            ModelDims(d=bad, d_p=1, d_a=1, n_rel=1)

    def test_expected_shapes(self):
        dims = ModelDims(d=3, d_p=4, d_a=2, n_rel=2)
        shapes = expected_shapes(dims, vocab_size=5)
        assert shapes["entity_emb"] == (5, 3)
        assert shapes["context_emb"] == (5, 3)
        assert shapes["relation_emb"] == (5, 3)  # 2 forward + 2 reverse + NA
        assert shapes["pair_weight"] == (9, 4)
        assert shapes["attn_weight"] == (2, 4)
        assert shapes["attn_vector"] == (2,)
        assert shapes["out_weight"] == (4,)
        assert shapes["out_bias"] == ()
        assert set(shapes) == set(TENSOR_ORDER)


class TestInit:
    def test_embedding_bounds(self):
        params = small_params()
        bound = 0.5 / 3
        for name in ("entity_emb", "context_emb", "relation_emb"):
            tensor = params.tensors()[name]
            assert np.all(np.abs(tensor) <= bound)
            assert np.any(tensor != 0.0)

    def test_dense_weight_bounds_follow_fan_sizes(self):
        params = small_params()
        limit = math.sqrt(6.0 / (9 + 4))
        assert np.all(np.abs(params.pair_weight) <= limit)
        limit = math.sqrt(6.0 / (4 + 2))
        assert np.all(np.abs(params.attn_weight) <= limit)

    def test_biases_start_at_zero(self):
        params = small_params()
        assert np.all(params.pair_bias == 0.0)
        assert np.all(params.attn_bias == 0.0)
        assert params.out_bias == 0.0

    def test_seed_determinism(self):
        a, b = small_params(seed=9), small_params(seed=9)
        for name, tensor in a.tensors().items():
            assert np.array_equal(tensor, b.tensors()[name])
        c = small_params(seed=10)
        assert not np.array_equal(a.entity_emb, c.entity_emb)

    def test_copy_is_deep(self):
        params = small_params()
        clone = params.copy()
        clone.entity_emb[0, 0] += 1.0
        assert params.entity_emb[0, 0] != clone.entity_emb[0, 0]


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        params = small_params()
        state = AdamState.for_params(params, lr=0.02)
        before = params.entity_emb.copy()
        grads = {"entity_emb": np.ones_like(params.entity_emb)}
        adam_step(params, grads, state)
        # With a fresh state and unit gradient, the bias-corrected update
        # is lr * 1 / (1 + eps) for every entry.
        expected = -0.02 / (1.0 + 1e-8)
        assert np.allclose(params.entity_emb - before, expected, rtol=0, atol=1e-15)
        assert state.steps["entity_emb"] == 1

    def test_constant_gradient_keeps_unit_step(self):
        params = small_params()
        state = AdamState.for_params(params, lr=0.01)
        grads = {"context_emb": np.full_like(params.context_emb, 3.0)}
        before = params.context_emb.copy()
        adam_step(params, grads, state)
        first = params.context_emb.copy()
        adam_step(params, grads, state)
        # Bias correction makes every constant-gradient step the same size.
        step1 = first - before
        step2 = params.context_emb - first
        assert np.allclose(step1, step2, rtol=0, atol=1e-12)
        assert state.steps["context_emb"] == 2

    def test_tensors_without_gradients_are_untouched(self):
        params = small_params()
        state = AdamState.for_params(params)
        before = params.relation_emb.copy()
        adam_step(params, {"entity_emb": np.ones_like(params.entity_emb)}, state)
        assert np.array_equal(params.relation_emb, before)
        assert state.steps["relation_emb"] == 0

    def test_per_tensor_step_counters(self):
        params = small_params()
        state = AdamState.for_params(params)
        g_ent = {"entity_emb": np.ones_like(params.entity_emb)}
        g_rel = {"relation_emb": np.ones_like(params.relation_emb)}
        adam_step(params, g_ent, state)
        adam_step(params, g_ent, state)
        adam_step(params, g_rel, state)
        assert state.steps["entity_emb"] == 2
        assert state.steps["relation_emb"] == 1

    def test_unknown_tensor_rejected(self):
        params = small_params()
        state = AdamState.for_params(params)
        with pytest.raises(KeyError):
            adam_step(params, {"bogus": np.zeros(3)}, state)

    def test_shape_mismatch_rejected(self):
        params = small_params()
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            adam_step(params, {"entity_emb": np.zeros(3)}, state)

    def test_non_finite_gradient_names_tensor(self):
        params = small_params()
        state = AdamState.for_params(params)
        bad = np.ones_like(params.entity_emb)
        bad[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="entity_emb"):
            adam_step(params, {"entity_emb": bad}, state)

    def test_accumulate_grads_sums(self):
        a = {"x": np.array([1.0, 2.0])}
        accumulate_grads(a, {"x": np.array([0.5, 0.5]), "y": np.array([1.0])})
        assert np.array_equal(a["x"], [1.5, 2.5])
        assert np.array_equal(a["y"], [1.0])


class TestCheckpoint:
    def roundtrip(self, tmp_path, with_state: bool):
        params = small_params(seed=4)
        vocab = Vocab([f"term{i}" for i in range(5)])
        config = {"note": "unit", "threshold": 0.5}
        state = None
        if with_state:
            state = AdamState.for_params(params, lr=0.01)
            adam_step(
                params, {"entity_emb": np.ones_like(params.entity_emb)}, state
            )
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, vocab, config, state=state)
        return params, vocab, config, state, path

    def test_round_trip_exact(self, tmp_path):
        params, vocab, config, state, path = self.roundtrip(tmp_path, True)
        loaded = load_checkpoint(str(path))
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.params.tensors()[name], tensor)
        assert loaded.vocab == vocab
        assert loaded.config == config
        assert loaded.state is not None
        assert loaded.state.steps == state.steps
        assert loaded.state.lr == state.lr
        for name in TENSOR_ORDER:
            assert np.array_equal(loaded.state.m[name], state.m[name])
            assert np.array_equal(loaded.state.v[name], state.v[name])

    def test_round_trip_without_state(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path, False)
        loaded = load_checkpoint(str(path))
        assert loaded.state is None

    def test_resave_is_byte_identical(self, tmp_path):
        params, vocab, config, state, path = self.roundtrip(tmp_path, True)
        other = tmp_path / "again.ckpt"
        save_checkpoint(str(other), params, vocab, config, state=state)
        assert path.read_bytes() == other.read_bytes()

    def test_corrupted_payload_detected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path, False)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(str(path))

    def test_truncated_file_detected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path, False)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_payload_is_float64_blocks_in_order(self, tmp_path, dtype):
        params = init_params(ModelDims(d=3, d_p=4, d_a=2, n_rel=2), 5, 4, dtype)
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, {"pair_weight": np.ones_like(params.pair_weight)}, state)
        path = tmp_path / "model.ckpt"
        vocab = Vocab([f"t{i}" for i in range(5)])
        save_checkpoint(str(path), params, vocab, {}, state)
        blocks = [params.tensors(), state.m, state.v]
        expected = b"".join(
            np.asarray(block[name], dtype="<f8").tobytes()
            for block in blocks for name in TENSOR_ORDER
        )
        data = path.read_bytes()
        newline = data.index(b"\n")
        assert data[newline + 1 :] == expected
        header = json.loads(data[:newline])
        assert header["payload_sha256"] == hashlib.sha256(expected).hexdigest()
        loaded = load_checkpoint(str(path))
        for block, loaded_block in zip(
            blocks, [loaded.params.tensors(), loaded.state.m, loaded.state.v]
        ):
            for name in TENSOR_ORDER:
                tensor = loaded_block[name]
                assert tensor.dtype == dtype and tensor.flags.writeable
                assert tensor.tobytes() == block[name].tobytes()

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda payload: payload[:-8], "truncated tensor payload"),
         (lambda payload: payload + bytes(3), "trailing bytes after tensor payload")],
        ids=["truncated", "trailing"],
    )
    def test_payload_length_checked(self, tmp_path, edit, message):
        # The checksum is recomputed, so only the length is wrong.
        _, _, _, _, path = self.roundtrip(tmp_path, True)
        data = path.read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        payload = edit(data[newline + 1 :])
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("rehash", [False, True], ids=["stale-sum", "rehashed"])
    def test_file_cut_inside_a_tensor(self, tmp_path, rehash):
        # Cut 5 bytes into the context_emb block.  The checksum is still
        # reported first; with a matching checksum, the length is.
        params, _, _, _, path = self.roundtrip(tmp_path, True)
        data = path.read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        payload = data[newline + 1 : newline + 1 + params.entity_emb.nbytes + 5]
        if rehash:
            header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        message = "truncated tensor payload" if rehash else "checksum"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    def test_oversized_dims_rejected_before_reading(self, tmp_path):
        # A header whose dims declare 8 TB of tensors, with a checksum that
        # matches its short payload: rejected from the file's length,
        # without allocating the tensors.
        _, _, _, _, path = self.roundtrip(tmp_path, False)
        data = path.read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        header["dims"]["d"] = 10**11
        header["tensors"] = [
            [name, list(shape)]
            for name, shape in expected_shapes(
                ModelDims(**header["dims"]), header["vocab_size"]
            ).items()
        ]
        path.write_bytes(json.dumps(header).encode() + data[newline:])
        with pytest.raises(CheckpointError, match="truncated tensor payload"):
            load_checkpoint(str(path))

    def test_unsupported_version_detected(self, tmp_path):
        _, _, _, _, path = self.roundtrip(tmp_path, False)
        data = path.read_bytes()
        newline = data.find(b"\n")
        header = json.loads(data[:newline])
        header["version"] = 999
        rewritten = (
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
            + data[newline + 1 :]
        )
        path.write_bytes(rewritten)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(str(path))

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "moment, name, value",
        [
            (None, "entity_emb", math.nan),
            (None, "out_bias", math.inf),
            ("m", "pair_weight", -math.inf),
            ("v", "attn_vector", math.nan),
        ],
    )
    def test_non_finite_tensor_names_it(self, tmp_path, moment, name, value):
        # Written by save_checkpoint, so every checksum matches.
        params = small_params(seed=4)
        state = AdamState.for_params(params)
        target = params.tensors()[name] if moment is None else getattr(state, moment)[name]
        target.reshape(-1)[-1] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(str(path), params, Vocab([f"t{i}" for i in range(5)]), {}, state)
        label = name if moment is None else f"adam {moment}[{name}]"
        with pytest.raises(CheckpointError, match=re.escape(f"'{label}'")):
            load_checkpoint(str(path))

    def test_first_non_finite_tensor_is_named(self, tmp_path):
        params = small_params(seed=4)
        params.attn_bias[0] = math.nan
        params.entity_emb[0, 0] = math.inf
        path = tmp_path / "bad.ckpt"
        save_checkpoint(str(path), params, Vocab([f"t{i}" for i in range(5)]), {})
        with pytest.raises(CheckpointError, match="'entity_emb' holds non-finite"):
            load_checkpoint(str(path))
