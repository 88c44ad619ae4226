"""Linear VAR(1) processes with closed-form Bayes risks.

The process is z_{t+1} = A z_t + eps_{t+1}, eps ~ N(0, diag(noise)).  Two
coefficient structures are generated here: "independent" (diagonal A, each
channel a private AR(1)) and "anti_self" (zero diagonal, so a channel's next
value depends only on *other* channels).  Drawn matrices are rescaled toward
a target spectral radius; the default target sits below one so the closed
forms below apply, while the synthetic comparison in baselines.py asks for a
target slightly above one to obtain a slowly growing collective mode.

Closed forms use the stationary covariance S: the best p-channel predictor of
channel t's next value has risk R_p = Var(Y) - c_p S_p^{-1} c_p^T with
Y = (A z)_t + eps_t, c_p = (A S)_{t,1:p}, and the risk of the full-information
predictor collapses to the noise floor sigma_tt.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, DefinitenessError, ParameterError,
                     ShapeError, finite, integral)
from .linalg import as_matrix
from .rng import Stream

STRUCTURES = ("independent", "anti_self", "custom")

DEFAULT_TARGET_RADIUS = 0.95
RADIUS_ITERS = 200
RADIUS_TOL = 1e-8
STATIONARY_TOL = 1e-12
STATIONARY_MAX_DOUBLINGS = 64
# sample rows drawn and scored per product in monte_carlo_risks: the draws
# and the residuals are held one MC_BLOCK_ROWS x C block at a time, so its
# memory does not grow with the sample count.  At C = 128 a block is 1 MiB,
# so the draws, the residuals and the C x C weights stay in a 2 MiB L2.  In
# a sweep of 512 to 4,096 rows (BENCH_mc_blocks.json) the peak fell with the
# block, and 1,024 was the smallest block that cost no time at C = 128 and
# C = 1,024.  Rows, not a per-value budget: each product repacks the C x C
# weights, which a fixed 1,024 rows amortize at any C
MC_BLOCK_ROWS = 1024
# the risk oracles refuse a spec whose R_C rounding bound exceeds this share
# of the noise floor, the sixth digit the risk table prints
FLOOR_RESOLUTION = 1e-6


@dataclass(frozen=True, eq=False)
class VarProcessSpec:
    """An immutable VAR(1) process: A and noise_diag are private read-only
    copies, so the stationary law computed from them once stays valid."""

    structure: str
    C: int
    A: np.ndarray
    noise_diag: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ParameterError(f"unknown structure {self.structure!r}")
        a = as_matrix(np.array(self.A, dtype=np.float64, order="C"), "A")
        if a.shape != (self.C, self.C):
            raise ShapeError(f"A shape {a.shape} vs C={self.C}")
        noise = np.array(self.noise_diag, dtype=np.float64)
        if noise.shape != (self.C,):
            raise ShapeError(f"noise_diag shape {noise.shape} vs C={self.C}")
        if not np.all(np.isfinite(a)):
            raise ParameterError("A has non-finite entries")
        if not np.all((noise > 0) & np.isfinite(noise)):
            raise ParameterError("noise variances must be positive and finite")
        for name, value in (("A", a), ("noise_diag", noise)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def noise_cov(self) -> np.ndarray:
        return np.diag(self.noise_diag)

    @cached_property
    def stationary_cov(self) -> np.ndarray:
        """S from `stationary_covariance`, computed on first use only."""
        s = stationary_covariance(self)
        s.flags.writeable = False
        return s

    @cached_property
    def stationary_chol(self) -> np.ndarray:
        """L with S = L L^T.  S >= Q = diag(noise) > 0, so a failed
        factorization means S itself is wrong; it is reported as
        DefinitenessError, not numpy's LinAlgError."""
        try:
            chol = np.linalg.cholesky(self.stationary_cov)
        except np.linalg.LinAlgError as exc:
            raise DefinitenessError(
                f"stationary covariance is not positive definite: {exc}") from exc
        chol.flags.writeable = False
        return chol

    def to_dict(self) -> dict:
        return {
            "structure": self.structure,
            "C": self.C,
            "A": self.A.tolist(),
            "noise_diag": self.noise_diag.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VarProcessSpec":
        """The spec of a to_dict() object; a key to_dict() does not write,
        or an entry of A or noise_diag that is not a finite number (a
        string or a boolean, which numpy would convert), is refused."""
        if not isinstance(d, dict):
            raise ParameterError(f"a VAR spec is a JSON object, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown VAR spec keys: {sorted(unknown)}")
        return cls(structure=d["structure"], C=integral("C", d["C"]),
                   A=_numbers("A", d["A"]),
                   noise_diag=_numbers("noise_diag", d["noise_diag"]),
                   seed=integral("seed", d.get("seed", 0)))


def _numbers(name: str, value):
    """Nested lists of JSON numbers, each read by `finite`."""
    if isinstance(value, list):
        return [_numbers(name, v) for v in value]
    return finite(f"{name} entry", value)


def spectral_radius(a: np.ndarray) -> float:
    """Dominant |eigenvalue| estimate by normalized power iteration.

    The per-step growth ratio is tracked for early exit; the returned value is
    the geometric-mean growth over the completed sweeps, which stays stable
    even when a complex pair makes single-step ratios oscillate.  It is
    accurate for the nonnegative matrices make_var_spec rescales with it;
    for a signed A it can read low, so stability is not judged by it.
    """
    a = as_matrix(a, "spectral_radius input")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"spectral_radius: matrix not square, {a.shape}")
    n = a.shape[0]
    v = Stream(0, (n, 101)).normal(n)
    v /= np.linalg.norm(v)
    ratios = []
    prev_ratio = None
    for _ in range(RADIUS_ITERS):
        w = a @ v
        ratio = float(np.linalg.norm(w))
        if ratio == 0.0:
            return 0.0
        ratios.append(ratio)
        v = w / ratio
        if (prev_ratio is not None
                and abs(ratio - prev_ratio) <= RADIUS_TOL * max(1.0, ratio)):
            return ratio
        prev_ratio = ratio
    # no per-step convergence (e.g. a dominant complex pair): average the
    # growth over the tail, where the start vector's transient has died out
    tail = ratios[len(ratios) // 4:]
    return float(np.exp(np.mean(np.log(tail))))


def make_var_spec(structure: str, C: int, seed: int = 0,
                  target_radius: float = DEFAULT_TARGET_RADIUS) -> VarProcessSpec:
    """Draw a coefficient matrix for one of the named structures.

    independent: diagonal entries uniform in [0.8, 1.0].
    anti_self:   zero diagonal, off-diagonal uniform in [0.5, 1.0].
    A is rescaled to target_radius whenever its measured radius reaches it.
    With the default target the returned process is strictly stable and the
    closed-form risks apply.  Targets at or above 1 are allowed for the
    synthetic comparison, which relies on a slowly growing collective mode;
    such specs have no stationary law and the risk oracles reject them.
    Noise covariance is identity.
    """
    check_var_args(structure, C, target_radius)
    stream = Stream(seed, (_structure_id(structure), C))
    if structure == "independent":
        a = np.diag(stream.uniform(0.8, 1.0, C))
    else:
        a = stream.uniform(0.5, 1.0, (C, C))
        np.fill_diagonal(a, 0.0)
    measured = spectral_radius(a)
    if measured >= target_radius:
        a = a * (target_radius / measured)
    return VarProcessSpec(structure=structure, C=C, A=a,
                          noise_diag=np.ones(C), seed=seed)


def check_var_args(structure: str, C: int, target_radius: float) -> None:
    """Refuse what make_var_spec refuses, before anything is drawn."""
    if C < 2:
        raise ParameterError(f"C must be >= 2, got {C}")
    if not (0.0 < target_radius <= 2.0):
        raise ParameterError(f"target_radius must be in (0, 2], got {target_radius}")
    if structure not in ("independent", "anti_self"):
        raise ParameterError(f"unknown structure '{structure}'")


def _structure_id(structure: str) -> int:
    try:
        return STRUCTURES.index(structure)
    except ValueError:
        raise ParameterError(f"unknown structure '{structure}'") from None


def simulate(spec: VarProcessSpec, steps: int, burn_in: int = 0) -> np.ndarray:
    """Run the recursion for `steps` draws and drop the first `burn_in`.

    Returns a channel-major (C x kept) matrix.  z_0 ~ N(0, I); the kept block
    starts at z_{burn_in + 1}.  Bit-reproducible for a given spec.seed.
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if not (0 <= burn_in < steps):
        raise ParameterError(f"burn_in must be in [0, steps), got {burn_in}")
    stream = Stream(spec.seed, (_structure_id(spec.structure), spec.C, 7))
    z = stream.normal(spec.C)
    scale = np.sqrt(spec.noise_diag)
    noise = stream.normal((spec.C, steps)) * scale[:, None]
    out = np.empty((spec.C, steps), dtype=np.float64)
    for t in range(steps):
        z = spec.A @ z + noise[:, t]
        out[:, t] = z
    return out[:, burn_in:]


def stationary_covariance(spec: VarProcessSpec) -> np.ndarray:
    """Stationary covariance S = A S A^T + Q by Smith's doubling iteration.

    After k doublings S holds sum_{j < 2^k} A^j Q (A^j)^T; one step adds the
    next 2^k terms as A_k S A_k^T and squares A_k = A^(2^k), stopping once
    that increment falls to STATIONARY_TOL relative to min(1, max|S|)
    (R. A. Smith, SIAM J. Appl. Math. 16(1), 1968).  The series converges
    only when every eigenvalue of A lies inside the unit circle.  The
    doubling proves that itself: it returns only once ||A_k||_F < 1 too,
    since every matrix norm bounds the spectral radius, rho(A)^(2^k) <=
    ||A_k||_F.  Only when no doubling proves it (all of them run, or an
    increment turns non-finite) does numpy's eigvals, which unlike the power
    iteration holds for signed A too, name the radius in the error.
    """
    s = spec.noise_cov
    a = spec.A
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(STATIONARY_MAX_DOUBLINGS):
            step = a @ s @ a.T
            s = s + step
            change = float(np.abs(step).max())
            if not np.isfinite(change):
                break
            # S is positive semidefinite, so max|S| is on its diagonal
            if (change <= STATIONARY_TOL * min(1.0, float(s.diagonal().max()))
                    and np.linalg.norm(a) < 1.0):
                return 0.5 * (s + s.T)
            a = a @ a
    radius = float(np.abs(np.linalg.eigvals(spec.A)).max())
    if radius >= 1.0:
        raise ParameterError(
            f"stationary covariance needs spectral radius < 1, measured {radius:.4f}")
    raise ConvergenceError(
        f"stationary covariance did not reach {STATIONARY_TOL} in "
        f"{STATIONARY_MAX_DOUBLINGS} doublings; radius {radius!r} is too "
        "close to 1")


@dataclass
class RiskPair:
    r_ci: float
    r_cd: float
    var_conditional: float
    cross_coefficient: float

    @property
    def gap(self) -> float:
        return self.r_ci - self.r_cd


def bayes_risk_ci_cd(spec: VarProcessSpec, target: int = 0) -> RiskPair:
    """Closed-form one-step risks for the two-channel system.

    The channel-independent optimum conditions on the target's own history
    only; the channel-dependent optimum sees both channels and collapses to
    the noise floor.  Their gap is a_cross^2 * Var(w | x) under the
    stationary law, where w is the other channel and x the target.
    """
    if spec.C != 2:
        raise ParameterError(f"bayes_risk_ci_cd needs a 2-channel spec, got C={spec.C}")
    if target not in (0, 1):
        raise ParameterError(f"target must be 0 or 1, got {target}")
    _whitened(spec, target)  # refuses a spec whose risks float64 cannot resolve
    other = 1 - target
    s = spec.stationary_cov
    sigma_t = float(spec.noise_diag[target])
    var_cond = float(s[other, other] - s[target, other] ** 2 / s[target, target])
    a_cross = float(spec.A[target, other])
    r_cd = sigma_t
    r_ci = sigma_t + a_cross ** 2 * var_cond
    return RiskPair(r_ci=r_ci, r_cd=r_cd, var_conditional=var_cond,
                    cross_coefficient=a_cross)


@dataclass
class RiskReport:
    spec: VarProcessSpec
    target: int
    risks: np.ndarray
    var_y: float
    noise_floor: float
    gaps: np.ndarray = field(init=False)

    def __post_init__(self):
        self.gaps = self.risks[0] - self.risks


def _whitened(spec: VarProcessSpec, target: int
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """L with S = L L^T, w = L^{-1} c for c = (A S)_target, and Var(Y).

    R_C = Var(Y) - sum(w^2) equals the noise floor for any symmetric S, so
    the computed R_C misses it only by rounding: to first order at most
    8 C eps m, C eps m for each product in Var(Y), the factor and the sum
    and 2 C eps m each for c and the solve, where m = (sum_i |a_i|
    sqrt(S_ii))^2 bounds |a|^T |S| |a| because |S_ij| <= sqrt(S_ii S_jj).
    A spec whose bound is not small against the floor, or whose R_C misses
    the floor by more than it, is refused: float64 cannot resolve its risks.
    """
    if not (0 <= target < spec.C):
        raise ParameterError(f"target {target} out of range for C={spec.C}")
    s, chol = spec.stationary_cov, spec.stationary_chol
    a_t = spec.A[target]
    floor = float(spec.noise_diag[target])
    var_y = float(a_t @ s @ a_t + floor)
    w = np.linalg.solve(chol, a_t @ s)
    r_c = var_y - float(np.cumsum(w * w)[-1])
    m = float(np.abs(a_t) @ np.sqrt(s.diagonal())) ** 2
    bound = 8 * spec.C * np.finfo(np.float64).eps * (m + floor)
    if not bound <= FLOOR_RESOLUTION * floor:
        raise ParameterError(
            f"Var(Y) = {var_y:.6g} has a rounding bound of {bound:.3g}, "
            f"not small against the noise floor {floor:.6g}; A is too close "
            "to instability to resolve the risks")
    if not abs(r_c - floor) <= bound:
        raise ParameterError(
            f"R_C = {r_c!r} misses the noise floor {floor!r} by more "
            f"than its rounding bound {bound:.3g}")
    return chol, w, var_y


def bayes_risk_sequence(spec: VarProcessSpec, target: int = 0) -> RiskReport:
    """Bayes risk of predicting channel `target` from the first p channels,
    for p = 1..C, under the stationary law.

    R_p = Var(Y) - c_p S_p^{-1} c_p^T, Y = (A z)_target + eps_target.  The
    leading p x p block of L factors S_p, so with w = L^{-1} c every
    R_p = Var(Y) - sum_{i<=p} w_i^2: non-increasing by construction, and
    terminating at the noise floor.
    """
    _, w, var_y = _whitened(spec, target)
    return RiskReport(spec=spec, target=target, risks=var_y - np.cumsum(w * w),
                      var_y=var_y, noise_floor=float(spec.noise_diag[target]))


def monte_carlo_risks(spec: VarProcessSpec, n_samples: int, seed: int = 0,
                      target: int = 0) -> dict[int, float]:
    """Sampled risk of the conditional-mean predictor that sees the first p
    channels, for each p = 1..C.

    Draws (z_t, z_{t+1}) pairs from the stationary law, z_t = L g with
    g ~ N(0, I), and scores the Gaussian conditional-mean coefficients
    S_p^{-1} c_p against Y = (A z_t)_target + eps.  Column p of the
    coefficient matrix is the first p columns of the upper-triangular L^{-T}
    times w_1..p, so every residual y - z_t[:p] . coeffs_p is
    g . L^T (A_target - coeffs_p) + eps, and all subset sizes are scored by
    one product per row block.  g and eps are drawn in the same row blocks,
    so the call holds one MC_BLOCK_ROWS x C block of draws, one of
    residuals and a few C x C matrices, whatever n_samples: about 3 MiB
    traced at C = 128.  Each block is one product and one partial sum, so
    the block size moves the sampled risks in their last bits only.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    chol, w, _ = _whitened(spec, target)
    stream = Stream(seed, (_structure_id(spec.structure), spec.C, 13))
    draws = stream.normal_blocks(n_samples, spec.C, MC_BLOCK_ROWS)
    eps = stream.normal_blocks(n_samples, 1, MC_BLOCK_ROWS)
    scale = np.sqrt(spec.noise_diag[target])
    coeffs = np.cumsum(np.linalg.inv(chol).T * w, axis=1)
    weights = chol.T @ (spec.A[target][:, None] - coeffs)
    resid = np.empty((min(n_samples, MC_BLOCK_ROWS), spec.C))
    sq_sum = np.zeros(spec.C)
    for g in draws:
        block = np.matmul(g, weights, out=resid[:len(g)])
        del g  # so that one block of draws is alive at a time
        block += next(eps) * scale
        sq_sum += np.einsum("ij,ij->j", block, block)
    return {p: float(v / n_samples) for p, v in enumerate(sq_sum, start=1)}
