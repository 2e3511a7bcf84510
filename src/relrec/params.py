"""Model parameters, Adam optimizer, and checkpoint persistence.

All tensors are plain numpy arrays updated in place.  The gradient of a
loss is a dict mapping tensor names (a subset of TENSOR_ORDER) to arrays
of the same shape; the three training stages touch different subsets, so
Adam keeps per-tensor moment buffers and per-tensor step counters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DataError, Vocab

CHECKPOINT_FORMAT = "relrec.checkpoint"
CHECKPOINT_VERSION = 1

TENSOR_ORDER = (
    "entity_emb",
    "context_emb",
    "relation_emb",
    "pair_weight",
    "pair_bias",
    "attn_weight",
    "attn_bias",
    "attn_vector",
    "out_weight",
    "out_bias",
)
# Adam hyperparameters a checkpoint header stores beside the step counts.
_ADAM_SETTINGS = ("lr", "beta1", "beta2", "eps")


class CheckpointError(DataError):
    """Unreadable, corrupted, or wrong-format checkpoint file."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


@dataclass(frozen=True)
class ModelDims:
    """Sizes of the model.

    d      -- entity / relation embedding width
    d_p    -- pair representation width
    d_a    -- attention hidden width
    n_rel  -- number of forward relations; the relation table additionally
              holds one reverse row per forward relation plus a final
              no-relation (NA) row, giving 2*n_rel + 1 rows.
    """

    d: int
    d_p: int
    d_a: int
    n_rel: int

    def __post_init__(self):
        for name in ("d", "d_p", "d_a", "n_rel"):
            if getattr(self, name) < 1:
                raise ValueError(f"dimension {name} must be >= 1")

    @property
    def n_rel_total(self) -> int:
        return 2 * self.n_rel + 1

    @property
    def na_index(self) -> int:
        return self.n_rel_total - 1

    def reverse_of(self, relation: int) -> int:
        if not 0 <= relation < self.n_rel:
            raise ValueError(f"not a forward relation index: {relation}")
        return relation + self.n_rel

    @classmethod
    def square(cls, d: int, n_rel: int) -> "ModelDims":
        return cls(d=d, d_p=d, d_a=d, n_rel=n_rel)

    def to_dict(self) -> dict:
        return {"d": self.d, "d_p": self.d_p, "d_a": self.d_a, "n_rel": self.n_rel}


@dataclass
class ModelParams:
    """All trainable tensors.

    entity_emb   (V, d)    entity embeddings (score/assumption side)
    context_emb  (V, d)    output-side embeddings for association recall
    relation_emb (2R+1, d) forward rows, reverse rows, then the NA row
    pair_weight  (3d, d_p) pair representation projection
    pair_bias    (d_p,)
    attn_weight  (d_a, d_p) attention hidden projection
    attn_bias    (d_a,)
    attn_vector  (d_a,)     attention scoring vector
    out_weight   (d_p,)     binary prediction head
    out_bias     ()         scalar bias
    """

    dims: ModelDims
    vocab_size: int
    entity_emb: np.ndarray
    context_emb: np.ndarray
    relation_emb: np.ndarray
    pair_weight: np.ndarray
    pair_bias: np.ndarray
    attn_weight: np.ndarray
    attn_bias: np.ndarray
    attn_vector: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_ORDER}

    def copy(self) -> "ModelParams":
        kwargs = {name: getattr(self, name).copy() for name in TENSOR_ORDER}
        return ModelParams(dims=self.dims, vocab_size=self.vocab_size, **kwargs)

    @property
    def dtype(self) -> np.dtype:
        return self.entity_emb.dtype

    def expected_shapes(self) -> dict[str, tuple[int, ...]]:
        return expected_shapes(self.dims, self.vocab_size)


def expected_shapes(dims: ModelDims, vocab_size: int) -> dict[str, tuple[int, ...]]:
    return {
        "entity_emb": (vocab_size, dims.d),
        "context_emb": (vocab_size, dims.d),
        "relation_emb": (dims.n_rel_total, dims.d),
        "pair_weight": (3 * dims.d, dims.d_p),
        "pair_bias": (dims.d_p,),
        "attn_weight": (dims.d_a, dims.d_p),
        "attn_bias": (dims.d_a,),
        "attn_vector": (dims.d_a,),
        "out_weight": (dims.d_p,),
        "out_bias": (),
    }


def init_params(
    dims: ModelDims,
    vocab_size: int,
    seed: int,
    dtype: np.dtype = np.float64,
) -> ModelParams:
    """Seed-deterministic initialization.

    Embedding tables are uniform in [-0.5/d, 0.5/d].  Dense projections
    use Glorot-uniform bounds sqrt(6 / (fan_in + fan_out)).  Biases start
    at exactly zero.  Draw order is fixed, so identical seeds give
    identical parameters.
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 0.5 / dims.d

    def uniform(lo, hi, shape):
        return rng.uniform(lo, hi, size=shape).astype(dtype)

    def glorot(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return uniform(-limit, limit, shape)

    entity_emb = uniform(-bound, bound, (vocab_size, dims.d))
    context_emb = uniform(-bound, bound, (vocab_size, dims.d))
    relation_emb = uniform(-bound, bound, (dims.n_rel_total, dims.d))
    pair_weight = glorot(3 * dims.d, dims.d_p, (3 * dims.d, dims.d_p))
    attn_weight = glorot(dims.d_p, dims.d_a, (dims.d_a, dims.d_p))
    attn_vector = glorot(dims.d_a, 1, (dims.d_a,))
    out_weight = glorot(dims.d_p, 1, (dims.d_p,))
    return ModelParams(
        dims=dims,
        vocab_size=vocab_size,
        entity_emb=entity_emb,
        context_emb=context_emb,
        relation_emb=relation_emb,
        pair_weight=pair_weight,
        pair_bias=np.zeros(dims.d_p, dtype=dtype),
        attn_weight=attn_weight,
        attn_bias=np.zeros(dims.d_a, dtype=dtype),
        attn_vector=attn_vector,
        out_weight=out_weight,
        out_bias=np.zeros((), dtype=dtype),
    )


@dataclass
class AdamState:
    """Per-tensor Adam moments.  Each tensor advances its own step count,
    because the staged losses update disjoint tensor subsets.  β1, β2 and
    ε keep the defaults of Kingma & Ba (2015); checkpoints store them
    with lr."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    steps: dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams, lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        for name, tensor in params.tensors().items():
            state.m[name] = np.zeros_like(tensor)
            state.v[name] = np.zeros_like(tensor)
            state.steps[name] = 0
        return state

    def copy(self) -> "AdamState":
        return AdamState(
            **{name: getattr(self, name) for name in _ADAM_SETTINGS},
            m={k: a.copy() for k, a in self.m.items()},
            v={k: a.copy() for k, a in self.v.items()},
            steps=dict(self.steps),
        )


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState
) -> None:
    """One bias-corrected Adam update, in place, for the tensors named in
    `grads`.  Tensors without a gradient this step are untouched."""
    tensors = params.tensors()
    for name, grad in grads.items():
        if name not in tensors:
            raise KeyError(f"unknown tensor {name!r}")
        tensor = tensors[name]
        grad = np.asarray(grad)
        if grad.shape != tensor.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor "
                f"{name!r} shape {tensor.shape}"
            )
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient for tensor {name!r}")
        t = state.steps[name] + 1
        state.steps[name] = t
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        tensor -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def accumulate_grads(
    into: dict[str, np.ndarray], new: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Sum gradient dicts, adopting arrays from `new` on first sight."""
    for name, grad in new.items():
        if name in into:
            into[name] += grad
        else:
            into[name] = grad
    return into


@dataclass
class Checkpoint:
    params: ModelParams
    state: AdamState | None
    vocab: Vocab
    config: dict


def _header_bytes(header: dict) -> bytes:
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def save_checkpoint(
    path: str,
    params: ModelParams,
    vocab: Vocab,
    config: dict,
    state: AdamState | None = None,
) -> None:
    """Write a single-file checkpoint: one JSON header line describing
    dims, config, vocabulary, and tensor layout, followed by raw
    little-endian float64 tensor blocks in the declared order."""
    if len(vocab) != params.vocab_size:
        raise ValueError("vocab size does not match params")
    tensors = params.tensors()
    tensor_decl = [[name, list(tensor.shape)] for name, tensor in tensors.items()]
    blocks = list(tensors.values())
    optimizer = None
    if state is not None:
        optimizer = {name: getattr(state, name) for name in _ADAM_SETTINGS}
        optimizer["steps"] = {name: state.steps[name] for name in TENSOR_ORDER}
        blocks += [m[name] for m in (state.m, state.v) for name in TENSOR_ORDER]
    # Hashed and written through views: float64 tensors are not copied.
    views = [memoryview(np.ascontiguousarray(b, dtype="<f8")) for b in blocks]
    digest = hashlib.sha256()
    for view in views:
        digest.update(view)
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dims": params.dims.to_dict(),
        "dtype": str(np.dtype(params.dtype)),
        "vocab_size": params.vocab_size,
        "vocab_sha256": vocab.sha256(),
        "vocab": list(vocab.terms),
        "config": config,
        "tensors": tensor_decl,
        "optimizer": optimizer,
        "payload_sha256": digest.hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(_header_bytes(header))
        fh.writelines(views)


def _is_count(value, least: int = 1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_header(path: str, header: dict) -> None:
    """Raise CheckpointError naming the first header field that cannot
    describe a checkpoint; payload_sha256 does not cover the header."""
    checks = {
        "dims": lambda v: isinstance(v, dict)
        and set(v) == {"d", "d_p", "d_a", "n_rel"}
        and all(map(_is_count, v.values())),
        "dtype": lambda v: v in ("float64", "float32"),
        "vocab": lambda v: isinstance(v, list)
        and all(isinstance(term, str) for term in v)
        and len(set(v)) == len(v),
        "vocab_size": lambda v: _is_count(v) and v == len(header["vocab"]),
        "config": lambda v: isinstance(v, dict),
        "optimizer": lambda v: v is None
        or isinstance(v, dict)
        and all(isinstance(v.get(k), (int, float)) for k in _ADAM_SETTINGS)
        and isinstance(v.get("steps"), dict)
        and all(_is_count(v["steps"].get(name), 0) for name in TENSOR_ORDER),
    }
    for name, valid in checks.items():
        if not valid(header.get(name)):
            raise CheckpointError(
                f"{path}: invalid header field {name!r}: {header.get(name)!r:.80}"
            )


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {header.get('version')!r} is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    payload = memoryview(data)[newline + 1 :]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch (corrupted file)")
    _check_header(path, header)
    dims = ModelDims(**header["dims"])
    vocab = Vocab(header["vocab"])
    if vocab.sha256() != header.get("vocab_sha256"):
        raise CheckpointError(f"{path}: vocabulary checksum mismatch")
    dtype = np.dtype(header["dtype"])
    shapes = expected_shapes(dims, header["vocab_size"])
    if header.get("tensors") != [[name, list(s)] for name, s in shapes.items()]:
        raise CheckpointError(f"{path}: header field 'tensors' does not match dims")

    n_blocks = 1 if header.get("optimizer") is None else 3
    n_values = n_blocks * sum(map(math.prod, shapes.values()))
    if 8 * n_values > len(payload):
        raise CheckpointError(f"{path}: truncated tensor payload")
    if 8 * n_values < len(payload):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    values = np.frombuffer(payload, dtype="<f8", count=n_values)
    offset = 0

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        end = offset + math.prod(shape)
        arr = values[offset:end].reshape(shape).astype(dtype)
        offset = end
        return arr

    tensors = {name: take(shapes[name]) for name in TENSOR_ORDER}
    params = ModelParams(dims=dims, vocab_size=header["vocab_size"], **tensors)
    state = None
    if n_blocks == 3:
        opt = header["optimizer"]
        m = {name: take(shapes[name]) for name in TENSOR_ORDER}
        v = {name: take(shapes[name]) for name in TENSOR_ORDER}
        state = AdamState(
            **{name: opt[name] for name in _ADAM_SETTINGS},
            m=m,
            v=v,
            steps={name: int(opt["steps"][name]) for name in TENSOR_ORDER},
        )
    # The checksums cover NaN and inf too; serving them gives NaN answers.
    checked = list(tensors.items())
    if state is not None:
        checked += [(f"adam m[{name}]", m) for name, m in state.m.items()]
        checked += [(f"adam v[{name}]", v) for name, v in state.v.items()]
    for name, tensor in checked:
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
    return Checkpoint(params=params, state=state, vocab=vocab, config=header["config"])
