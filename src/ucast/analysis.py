"""Verification artifacts: latent spectra, entropy, attention maps, cost bench.

Three kinds of evidence about a trained forecaster are produced here:

  * spectrum snapshots of each encoder stage's latent row covariance:
    eigenvalues, effective rank, differential entropy, and the off-diagonal
    mass of the correlation matrix (the "density" of the covariance picture);
  * head-averaged attention-map exports for both the compression and the
    reconstruction stages;
  * a wall-clock and score-entry comparison of hierarchical latent-query
    attention against flat all-channel self-attention.

Eigenvalues of the symmetric covariance and Gram matrices come from
numpy's LAPACK-backed `eigvalsh`, reversed to descending order.
"""
from __future__ import annotations

import ctypes
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape
from .errors import ParameterError
from .linalg import as_matrix, cholesky_logdet, save_matrix_csv
from .model import ForwardTrace, _attention
from .rng import Stream

RANK_TOL_RATIO = 1e-6
BENCH_WARMUPS = 3
BENCH_REPEATS = 10

LOG_2PIE = float(np.log(2.0 * np.pi * np.e))


# -- eigenvalues -----------------------------------------------------------


def effective_rank(h: np.ndarray) -> int:
    """Number of singular values within RANK_TOL_RATIO of the largest.

    Singular values come from the eigenvalues of the smaller Gram matrix of
    h, so the cost is cubic in min(rows, cols) only.  A zero matrix has
    rank 0.
    """
    h = as_matrix(h, "effective_rank input")
    rows, cols = h.shape
    gram = h @ h.T if rows <= cols else h.T @ h
    eigs = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
    if eigs[0] == 0.0:
        return 0
    singular = np.sqrt(eigs)
    return int(np.sum(singular >= RANK_TOL_RATIO * singular[0]))


def entropy(sigma: np.ndarray) -> float:
    """Differential entropy of a Gaussian with covariance sigma.

    0.5 * log((2*pi*e)^n * det(sigma)), with the log-determinant from the
    Cholesky factorization.  sigma must be positive definite; add a ridge
    first if it may be singular.
    """
    sigma = as_matrix(sigma, "entropy input")
    n = sigma.shape[0]
    return 0.5 * (n * LOG_2PIE + cholesky_logdet(sigma))


def offdiagonal_mass(sigma: np.ndarray) -> float:
    """Mean absolute off-diagonal entry of the correlation-normalized matrix.

    The covariance-evolution claim ("dense at init, sparser after training")
    is measured with this scalar; a 1x1 matrix has mass 0.
    """
    sigma = as_matrix(sigma, "offdiagonal_mass input")
    n = sigma.shape[0]
    if n == 1:
        return 0.0
    d = np.sqrt(np.clip(np.diag(sigma), 1e-12, None))
    corr = sigma / np.outer(d, d)
    off = np.abs(corr).sum() - np.abs(np.diag(corr)).sum()
    return float(off / (n * (n - 1)))


# -- spectrum snapshots ----------------------------------------------------


@dataclass
class SpectrumSnapshot:
    """Spectral summary of one encoder stage's latent row covariance."""
    epoch: int
    layer: int
    eigenvalues: np.ndarray      # descending
    effective_rank: int
    entropy_value: float
    logdet_value: float
    offdiag_mass: float

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "layer": self.layer,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "effective_rank": self.effective_rank,
            "entropy": self.entropy_value,
            "logdet": self.logdet_value,
            "offdiag_mass": self.offdiag_mass,
        }


def snapshot(trace: ForwardTrace, epoch: int) -> list[SpectrumSnapshot]:
    """One SpectrumSnapshot per encoder stage of a forward trace.

    The covariance is H H^T / d as in the training penalty; the entropy and
    log-det use the same ridge as the penalty so trajectories line up with
    the optimized quantity.
    """
    eps = trace.config.eps_cov
    out = []
    for layer, node in enumerate(trace.h_nodes[1:], start=1):
        h = node.value
        d = h.shape[1]
        sigma = (h @ h.T) / float(d)
        ridged = sigma + eps * np.eye(sigma.shape[0])
        out.append(SpectrumSnapshot(
            epoch=epoch,
            layer=layer,
            eigenvalues=np.linalg.eigvalsh(sigma)[::-1],
            effective_rank=effective_rank(h),
            entropy_value=entropy(ridged),
            logdet_value=cholesky_logdet(ridged),
            offdiag_mass=offdiagonal_mass(sigma),
        ))
    return out


def export_snapshots(out_dir, trace: ForwardTrace, epoch: int) -> dict:
    """Write covariance and attention CSVs for one epoch; return an index.

    Files: cov_epoch{E}_layer{L}.csv (raw latent covariance), and
    attn_down/attn_up maps per stage.  The returned dict is one entry for
    the run's artifact index.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snaps = snapshot(trace, epoch)
    files = []
    for snap, node in zip(snaps, trace.h_nodes[1:]):
        h = node.value
        sigma = (h @ h.T) / float(h.shape[1])
        name = f"cov_epoch{epoch}_layer{snap.layer}.csv"
        save_matrix_csv(out_dir / name, sigma)
        files.append(name)
    for i, attn in enumerate(trace.attn_down, start=1):
        name = f"attn_down_epoch{epoch}_layer{i}.csv"
        save_matrix_csv(out_dir / name, attn)
        files.append(name)
    for i, attn in enumerate(trace.attn_up, start=1):
        name = f"attn_up_epoch{epoch}_layer{i}.csv"
        save_matrix_csv(out_dir / name, attn)
        files.append(name)
    return {
        "epoch": epoch,
        "files": files,
        "snapshots": [s.to_dict() for s in snaps],
    }


# -- attention cost benchmark ----------------------------------------------


MECHANISMS = ("HLQN", "FlatAttention")


@dataclass
class CostSample:
    channels: int
    d: int
    ratio: int
    heads: int
    mechanism: str
    seconds: float               # median wall-time, forward + backward
    score_entries: int           # analytic count, first stage, per head
    blas_threads: int | None     # BLAS threads in effect, None if unknown

    def to_dict(self) -> dict:
        return {"channels": self.channels, "d": self.d, "ratio": self.ratio,
                "heads": self.heads, "mechanism": self.mechanism,
                "seconds": self.seconds, "score_entries": self.score_entries,
                "blas_threads": self.blas_threads}


def score_entries(channels: int, ratio: int, mechanism: str) -> int:
    """Exact per-head score-matrix element count of the first stage."""
    if mechanism == "HLQN":
        return max(1, channels // ratio) * channels
    if mechanism == "FlatAttention":
        return channels * channels
    raise ParameterError(f"unknown mechanism '{mechanism}'")


# thread-count getter/setter symbol pairs of the OpenBLAS bundled with
# numpy wheels: numpy 2, then numpy 1
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _openblas_threads():
    """(get, set) ctypes functions for the thread count of numpy's bundled
    OpenBLAS, or None when this numpy build bundles none."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter = getattr(lib, get_name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


@contextmanager
def _single_thread_limit():
    """Hold numpy's bundled OpenBLAS to one thread and restore the previous
    count on exit; yields the count in effect, or None when it cannot be
    set on this numpy build."""
    threads = _openblas_threads()
    if threads is None:
        yield None
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield get()
    finally:
        set_(previous)


def _attention_pass(channels: int, d: int, queries: int, heads: int,
                    seed: int):
    """A callable timing one taped attention forward + backward pass."""
    stream = Stream(seed, (509, channels, queries))
    h_val = stream.normal_matrix(channels, d, 1.0)
    q_val = stream.normal_matrix(queries, d, 1.0)
    weights = {name: stream.normal_matrix(d, d, 0.02)
               for name in ("w_q", "w_k", "w_v", "w_o")}

    def run_once() -> float:
        tape = Tape()
        nodes = {name: tape.leaf(val, requires_grad=True)
                 for name, val in weights.items()}
        h_node = tape.constant(h_val)
        q_node = tape.leaf(q_val, requires_grad=True)
        start = time.perf_counter()
        out, _ = _attention(tape, q_node, h_node,
                            nodes["w_q"], nodes["w_k"], nodes["w_v"],
                            nodes["w_o"], heads)
        loss = tape.mean(tape.square(out))
        tape.backward(loss)
        return time.perf_counter() - start

    return run_once


def bench_attention(channel_list, d: int = 64, ratio: int = 16,
                    heads: int = 1, repeats: int = BENCH_REPEATS,
                    seed: int = 0) -> list[CostSample]:
    """Compare hierarchical first-stage attention against the flat variant.

    The hierarchical mechanism reads all C channels through C/ratio latent
    queries; the flat baseline performs full C x C self-attention with the
    same width and head count.  Timings are medians over exactly `repeats`
    taped forward+backward passes per mechanism, after discarded warm-ups;
    the two mechanisms' timed passes alternate, so a slow spell on a shared
    host lands on both and their ratio holds.  Both run on one BLAS thread
    where numpy's bundled OpenBLAS allows it; each sample records the count
    in effect.  Score-entry counts are computed, not measured.
    """
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    samples = []
    for channels in channel_list:
        if channels < 1:
            raise ParameterError(f"channel count must be positive, got {channels}")
        latent = max(1, channels // ratio)
        passes = {"HLQN": _attention_pass(channels, d, latent, heads, seed),
                  "FlatAttention": _attention_pass(channels, d, channels,
                                                   heads, seed)}
        times = {mechanism: [] for mechanism in passes}
        with _single_thread_limit() as blas_threads:
            for run_once in passes.values():
                for _ in range(BENCH_WARMUPS):
                    run_once()
            for _ in range(repeats):
                for mechanism, run_once in passes.items():
                    times[mechanism].append(run_once())
        for mechanism, seconds in times.items():
            samples.append(CostSample(
                channels=channels, d=d, ratio=ratio, heads=heads,
                mechanism=mechanism, seconds=float(np.median(seconds)),
                score_entries=score_entries(channels, ratio, mechanism),
                blas_threads=blas_threads))
    return samples
