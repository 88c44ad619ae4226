"""Hierarchical latent-query forecaster.

One sample is a channel-major window X (C x T); every function here also
takes a (B, C, T) stack of windows and runs the same graph on all of them
at once.  The pipeline is:

  instance-normalize -> embed rows to width d -> L compression stages, each
  attending a learned bank of latent queries over the previous stage's rows
  (channel count shrinks by a factor r per stage) -> linear temporal
  alignment -> L expansion stages attending the compressed summary from the
  finer stage's rows, with skip connections -> project to the horizon ->
  undo the instance normalization.

Compression stages are layer-normalized; expansion stages are not.  The
covariance penalty -(1/C') log det((1/d) H H^T + eps I) on each compression
output pushes those rows toward full rank.

All shapes follow the row-vector convention: rows are channels (or latent
slots), columns are features, and weights multiply from the right.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import Node, Tape
from .errors import (FormatError, NumericError, ParameterError, ShapeError,
                     finite, integral, text)
from .linalg import as_stack
from .rng import Stream

VARIANTS = ("full", "no_cov", "no_hierarchical", "frozen_query", "no_upsampling")

INSTANCE_NORM_GUARD = 1e-5
DEFAULT_EPS_COV = 1e-4
DEFAULT_ALPHA = 0.01
INIT_STD = 0.02


@dataclass(frozen=True)
class UCastConfig:
    channels: int
    lookback: int
    horizon: int
    d: int = 512
    layers: int = 2
    ratio: int = 16
    heads: int = 1
    alpha: float = DEFAULT_ALPHA
    eps_cov: float = DEFAULT_EPS_COV
    variant: str = "full"
    seed: int = 0

    def __post_init__(self):
        for name in ("channels", "lookback", "horizon", "d", "layers", "ratio",
                     "heads"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layers > self.channels:
            # past log_r C every stage is one latent slot, so a deeper ladder
            # only adds cost, which a huge value would make unbounded
            raise ParameterError(
                f"layers={self.layers} exceeds channels={self.channels}")
        if self.d % self.heads != 0:
            raise ParameterError(
                f"d={self.d} must be divisible by heads={self.heads}")
        if not 0 <= self.alpha < math.inf:
            raise ParameterError(
                f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.eps_cov < math.inf:
            raise ParameterError(
                f"eps_cov must be finite and > 0, got {self.eps_cov}")
        if self.variant not in VARIANTS:
            raise ParameterError(
                f"unknown variant '{self.variant}', expected one of {VARIANTS}")

    @classmethod
    def from_dict(cls, d: dict) -> "UCastConfig":
        """Read each value by its field's declared type, with the readers a
        --config file uses: 8.0 reads as 8, while 8.7, true and "x" are
        refused.  An unknown key is a KeyError."""
        by_type = {"int": integral, "float": finite, "str": text}
        readers = {f.name: by_type[f.type] for f in fields(cls)}
        return cls(**{k: readers[k](f"config value {k}", v)
                      for k, v in d.items()})


def build_variant(config: UCastConfig, variant: str) -> UCastConfig:
    """Derive the effective config for an ablation variant.

    no_cov drops the covariance penalty; no_hierarchical collapses the ladder
    to a single stage; the remaining variants only change wiring or the
    trainable set, so they keep the architecture numbers.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant '{variant}'")
    cfg = replace(config, variant=variant)
    if variant == "no_cov":
        cfg = replace(cfg, alpha=0.0)
    if variant == "no_hierarchical":
        cfg = replace(cfg, layers=1)
    return cfg


def ladder_sizes(channels: int, ratio: int, layers: int) -> list[int]:
    """Stage widths C_l = max(1, floor(C / r^l)) for l = 1..layers."""
    if channels < 1 or ratio < 1 or layers < 1:
        raise ParameterError("channels, ratio, layers must all be >= 1")
    sizes = []
    clamped = False
    for level in range(1, layers + 1):
        raw = channels // ratio ** level
        clamped = clamped or raw < 1
        sizes.append(max(1, raw))
    if clamped:
        warnings.warn(
            f"ladder for C={channels}, r={ratio}, L={layers} clamps at one "
            "latent slot; deeper stages add no further compression",
            RuntimeWarning, stacklevel=2)
    return sizes


ModelParams = dict[str, np.ndarray]


def param_shapes(config: UCastConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order init_params draws them."""
    d = config.d
    sizes = ladder_sizes(config.channels, config.ratio, config.layers)
    shapes = {"w_in": (config.lookback, d)}
    for level, width in enumerate(sizes, start=1):
        shapes[f"enc{level}.query"] = (width, d)
        for name in ("w_q", "w_k", "w_v", "w_o"):
            shapes[f"enc{level}.{name}"] = (d, d)
        shapes[f"enc{level}.ln_gain"] = (d,)
        shapes[f"enc{level}.ln_bias"] = (d,)
    shapes["f_pred"] = (d, d)
    if config.variant == "no_upsampling":
        shapes["restore"] = (config.channels, sizes[-1])
    else:
        for level in range(config.layers, 0, -1):
            for name in ("w_q", "w_k", "w_v", "w_o"):
                shapes[f"dec{level}.{name}"] = (d, d)
    shapes["w_out"] = (d, config.horizon)
    return shapes


def init_params(config: UCastConfig) -> ModelParams:
    """Seeded initialization: weights and queries N(0, 0.02^2), LN at identity."""
    stream = Stream(config.seed, (211,))
    params: ModelParams = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".ln_gain"):
            params[name] = np.ones(shape)
        elif name.endswith(".ln_bias"):
            params[name] = np.zeros(shape)
        else:
            params[name] = stream.normal_matrix(*shape, INIT_STD)
    return params


def trainable_names(config: UCastConfig, params: ModelParams) -> list[str]:
    """Parameters the optimizer may update; frozen_query pins the query banks."""
    if config.variant == "frozen_query":
        return [k for k in params if not k.endswith(".query")]
    return list(params)


@dataclass
class InstanceStats:
    mean: np.ndarray          # per channel (per window of a stack)
    scale: np.ndarray         # std + guard, likewise


def instance_normalize(x: np.ndarray) -> tuple[np.ndarray, InstanceStats]:
    """Per-channel standardization over the lookback axis."""
    x = as_stack(x, "window")
    mean = x.mean(axis=-1)
    scale = x.std(axis=-1) + INSTANCE_NORM_GUARD
    return (x - mean[..., None]) / scale[..., None], InstanceStats(mean=mean, scale=scale)


def instance_denormalize(y_norm: np.ndarray, stats: InstanceStats) -> np.ndarray:
    y_norm = as_stack(y_norm, "normalized prediction")
    return y_norm * stats.scale[..., None] + stats.mean[..., None]


@dataclass
class ForwardTrace:
    config: UCastConfig
    h_nodes: list[Node]          # H^0 .. H^L
    attn_down: list[np.ndarray]  # per stage, head-averaged, [B x] C_l x C_{l-1}
    attn_up: list[np.ndarray]    # per stage, head-averaged, [B x] C_{l-1} x C_l
    y: Node

    @property
    def prediction(self) -> np.ndarray:
        return self.y.value


def _rows(node: Node) -> int:
    """Row count of a window, or of every window of a stack together."""
    return node.value.size // node.value.shape[-1]


def _chain(tape: Tape, a: Node, b: Node, c: Node) -> Node:
    """a @ b @ c for 2-D b and c, in the association with fewer
    multiplications: (ab)c costs m·p·(n + q), a(bc) costs n·q·(p + m)."""
    m = _rows(a)
    n, p = b.value.shape
    q = c.value.shape[1]
    if m * p * (n + q) <= n * q * (p + m):
        return tape.matmul(tape.matmul(a, b), c)
    return tape.matmul(a, tape.matmul(b, c))


def _attention(tape: Tape, query_rows: Node, key_rows: Node,
               w_q: Node, w_k: Node, w_v: Node, w_o: Node, heads: int
               ) -> tuple[Node, np.ndarray]:
    """Scaled dot-product attention of query_rows over key_rows, which are
    also the values; returns (output, head-averaged map as a plain array).

    Head h is softmax((X W_q,h)(K W_k,h)^T / sqrt(d_h)) (K W_v,h) W_o,h on
    its columns of W_q, W_k, W_v and rows of W_o; the heads sum.  The
    weights multiply only each other or the side with fewer rows: scores
    are (X W_q,h W_k,h^T) K^T or X (K W_k,h W_q,h^T)^T, the output
    (A K) W_v,h W_o,h or A (K W_v,h W_o,h), and 1/sqrt(d_h) scales W_q.
    So an encoder stage never projects the rows its latent bank reads, and
    a decoder stage never projects its skip rows.
    """
    d = w_q.value.shape[0]
    d_head = d // heads
    w_q = tape.scale(w_q, 1.0 / np.sqrt(d_head))
    if heads > 1:
        w_o = tape.transpose(w_o)
    out = None
    attn_sum = 0.0
    for h in range(heads):
        wq, wk, wv, wo = w_q, w_k, w_v, w_o
        if heads > 1:
            lo, hi = h * d_head, (h + 1) * d_head
            wq, wk, wv, wo = (tape.slice_cols(w, lo, hi)
                              for w in (w_q, w_k, w_v, w_o))
            wo = tape.transpose(wo)
        if _rows(query_rows) <= _rows(key_rows):
            folded = _chain(tape, query_rows, wq, tape.transpose(wk))
            scores = tape.matmul(folded, tape.transpose(key_rows))
        else:
            folded = _chain(tape, key_rows, wk, tape.transpose(wq))
            scores = tape.matmul(query_rows, tape.transpose(folded))
        attn = tape.softmax_rows(scores)
        if _rows(attn) <= _rows(key_rows):
            head_out = _chain(tape, tape.matmul(attn, key_rows), wv, wo)
        else:
            head_out = tape.matmul(attn, _chain(tape, key_rows, wv, wo))
        out = head_out if out is None else tape.add(out, head_out)
        attn_sum = attn_sum + attn.value
    return out, attn_sum / heads


def forward_from_nodes(nodes: dict[str, Node], config: UCastConfig,
                       x: np.ndarray, tape: Tape) -> ForwardTrace:
    """Graph construction against already-wrapped parameter leaves, for one
    window or a stack of windows."""
    x = as_stack(x, "window")
    if x.shape[-2:] != (config.channels, config.lookback):
        raise ShapeError(
            f"window shape {x.shape} vs (C={config.channels}, T={config.lookback})")
    x_norm, stats = instance_normalize(x)

    h = tape.matmul(tape.constant(x_norm), nodes["w_in"])
    h_nodes = [h]
    attn_down = []
    for level in range(1, config.layers + 1):
        out, attn = _attention(
            tape, nodes[f"enc{level}.query"], h,
            nodes[f"enc{level}.w_q"], nodes[f"enc{level}.w_k"],
            nodes[f"enc{level}.w_v"], nodes[f"enc{level}.w_o"], config.heads)
        h = tape.layer_norm(out, nodes[f"enc{level}.ln_gain"],
                            nodes[f"enc{level}.ln_bias"])
        _check_finite(h, f"compression stage {level}")
        h_nodes.append(h)
        attn_down.append(attn)

    u = tape.matmul(h_nodes[-1], nodes["f_pred"])
    attn_up = []
    if config.variant == "no_upsampling":
        u = tape.matmul(nodes["restore"], u)
        _check_finite(u, "channel restore")
    else:
        for level in range(config.layers, 0, -1):
            skip = h_nodes[level - 1]
            out, attn = _attention(
                tape, skip, u,
                nodes[f"dec{level}.w_q"], nodes[f"dec{level}.w_k"],
                nodes[f"dec{level}.w_v"], nodes[f"dec{level}.w_o"], config.heads)
            u = tape.add(out, skip)
            _check_finite(u, f"expansion stage {level}")
            attn_up.append(attn)

    y_norm = tape.matmul(tape.add(u, h_nodes[0]), nodes["w_out"])
    y = tape.row_affine_const(y_norm, stats.scale, stats.mean)
    _check_finite(y, "prediction")
    return ForwardTrace(config=config, h_nodes=h_nodes, attn_down=attn_down,
                        attn_up=attn_up, y=y)


def _check_finite(node: Node, stage: str) -> None:
    if not np.all(np.isfinite(node.value)):
        raise NumericError(f"non-finite activations after {stage}")


def total_loss(tape: Tape, trace: ForwardTrace, target: np.ndarray) -> Node:
    """Mean-squared error on the de-normalized scale plus the weighted mean
    covariance penalty over compression stages, averaged over a stack."""
    target = as_stack(target, "target")
    if target.shape != trace.y.value.shape:
        raise ShapeError(
            f"target shape {target.shape} vs prediction {trace.y.value.shape}")
    err = tape.sub(trace.y, tape.constant(target))
    loss = tape.mean(tape.square(err))
    cfg = trace.config
    if cfg.alpha > 0:
        penalties = [tape.cov_penalty(h, cfg.eps_cov) for h in trace.h_nodes[1:]]
        total_pen = penalties[0]
        for p in penalties[1:]:
            total_pen = tape.add(total_pen, p)
        loss = tape.add(loss, tape.scale(total_pen, cfg.alpha / len(penalties)))
    return loss


class Forecaster:
    """Trainable-model adapter around a config and its parameter dict."""

    def __init__(self, config: UCastConfig, params: ModelParams | None = None):
        self.config = config
        self.params = params if params is not None else init_params(config)

    def trainable(self) -> list[str]:
        return trainable_names(self.config, self.params)

    def build_loss(self, tape: Tape, nodes: dict[str, Node],
                   x: np.ndarray, y: np.ndarray) -> Node:
        trace = forward_from_nodes(nodes, self.config, x, tape)
        return total_loss(tape, trace, y)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.trace(x).prediction

    def trace(self, x: np.ndarray) -> ForwardTrace:
        """Gradient-free forward pass (nothing is recorded on the tape)."""
        tape = Tape()
        nodes = {k: tape.constant(v) for k, v in self.params.items()}
        return forward_from_nodes(nodes, self.config, x, tape)


# -- checkpoints -----------------------------------------------------------

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_FORMAT = "ucast-checkpoint-v2"


def save_checkpoint(directory, params: ModelParams, config: UCastConfig) -> None:
    """One `<name>.npy` file per parameter plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shapes = {}
    for name, value in params.items():
        arr = np.asarray(value, dtype=np.float64)
        shapes[name] = list(arr.shape)
        np.save(directory / f"{name}.npy", arr)
    manifest = {"format": CHECKPOINT_FORMAT, "config": asdict(config),
                "shapes": shapes}
    (directory / CHECKPOINT_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_checkpoint(directory) -> tuple[ModelParams, UCastConfig]:
    """Read a checkpoint written by save_checkpoint.

    Every parameter file must be a float64 `.npy` of exactly the shape the
    manifest's config gives it; anything else is a FormatError.
    """
    directory = Path(directory)
    manifest_path = directory / CHECKPOINT_MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        if manifest["format"] != CHECKPOINT_FORMAT:
            raise FormatError(
                f"{manifest_path}: format {manifest['format']!r}, expected "
                f"{CHECKPOINT_FORMAT!r}")
        config = UCastConfig.from_dict(manifest["config"])
        shapes = manifest["shapes"]
        expected = {k: list(v) for k, v in param_shapes(config).items()}
        bad = sorted(k for k in expected.keys() | shapes.keys()
                     if shapes.get(k) != expected.get(k))
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{manifest_path}: malformed checkpoint manifest") from exc
    if bad:
        raise FormatError(
            f"{manifest_path}: parameters missing, unexpected or misshapen "
            f"for its config: {', '.join(bad)}")
    params: ModelParams = {}
    for name, shape in expected.items():
        path = directory / f"{name}.npy"
        try:
            arr = np.load(path, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:
            raise FormatError(f"{path}: unreadable parameter {name}: {exc}") from exc
        # a zip archive under the .npy name loads as an NpzFile: no dtype
        if getattr(arr, "dtype", None) != np.float64 or list(arr.shape) != shape:
            raise FormatError(
                f"{path}: parameter {name} is not float64 of shape {shape}")
        params[name] = arr
    return params, config
