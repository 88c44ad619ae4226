"""VAR(1) generator and risk oracles against independent linear algebra.

The stationary covariance check uses the vectorized fixed point
vec(S) = (I - A kron A)^{-1} vec(Q), a different algorithm from the
package's doubling iteration.  The risk oracles, which work from one
Cholesky factor, are checked against one linear solve per subset size.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_stable_spec, rotation_spec, signed_unstable_spec
from ucast import varlab
from ucast.errors import DefinitenessError, ParameterError, ShapeError
from ucast.rng import BLOCK_PAIRS, Stream
from ucast.varlab import (DEFAULT_TARGET_RADIUS, MC_BLOCK_ROWS, STRUCTURES,
                          VarProcessSpec, bayes_risk_ci_cd,
                          bayes_risk_sequence, make_var_spec,
                          monte_carlo_risks, simulate, spectral_radius,
                          stationary_covariance)


def kron_stationary(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    vec_s = np.linalg.solve(np.eye(n * n) - np.kron(a, a), q.reshape(-1))
    return vec_s.reshape(n, n)


def per_p_coefficients(spec: VarProcessSpec, target: int):
    """S, c = (A S)_target, and S_p^{-1} c_p for p = 1..C, one solve per p."""
    s = stationary_covariance(spec)
    c_full = (spec.A @ s)[target]
    return s, c_full, [np.linalg.solve(s[:p, :p], c_full[:p])
                       for p in range(1, spec.C + 1)]


def per_p_risks(spec: VarProcessSpec, target: int = 0) -> np.ndarray:
    """R_p = Var(Y) - c_p S_p^{-1} c_p^T with one solve per p."""
    s, c_full, coeffs = per_p_coefficients(spec, target)
    a_t = spec.A[target]
    var_y = float(a_t @ s @ a_t + spec.noise_diag[target])
    return np.array([var_y - float(c_full[:len(k)] @ k) for k in coeffs])


def per_p_monte_carlo(spec: VarProcessSpec, n_samples: int, seed: int,
                      target: int) -> dict[int, float]:
    """The sampled risks from the same draws, scoring one p at a time on the
    explicit sample z_t = g L^T."""
    s, _, coeffs = per_p_coefficients(spec, target)
    stream = Stream(seed, (STRUCTURES.index(spec.structure), spec.C, 13))
    z_t = stream.normal((n_samples, spec.C)) @ np.linalg.cholesky(s).T
    eps = stream.normal(n_samples) * np.sqrt(spec.noise_diag[target])
    y = z_t @ spec.A[target] + eps
    return {p: float(np.mean((y - z_t[:, :p] @ coeffs[p - 1]) ** 2))
            for p in range(1, spec.C + 1)}


class TestSpectralRadius:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_eigvals_dense(self, seed):
        # arbitrary dense matrices usually have an equal-modulus complex
        # dominant pair; the growth ratio then oscillates forever and the
        # tail geometric mean is only O(1/iters) accurate.  0.5% is the
        # estimator's contract for that case and is ample for rescaling.
        a = np.random.default_rng(seed).normal(size=(9, 9))
        ref = float(np.abs(np.linalg.eigvals(a)).max())
        assert spectral_radius(a) == pytest.approx(ref, rel=5e-3)

    def test_real_dominant_eigenvalue_is_precise(self):
        # the lab's own generators have real dominant eigenvalues, where the
        # per-step ratio converges and the early exit fires
        a = np.abs(np.random.default_rng(0).normal(size=(9, 9)))
        ref = float(np.abs(np.linalg.eigvals(a)).max())
        assert spectral_radius(a) == pytest.approx(ref, rel=1e-6)

    def test_rotation_dominant_complex_pair(self):
        theta = 0.7
        rot = 1.3 * np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]])
        assert spectral_radius(rot) == pytest.approx(1.3, rel=1e-6)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, -0.9, 0.5])) == pytest.approx(0.9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            spectral_radius(np.zeros((2, 3)))


class TestMakeVarSpec:
    def test_independent_is_diagonal_at_target(self):
        spec = make_var_spec("independent", 12, seed=1)
        off = spec.A - np.diag(np.diag(spec.A))
        assert np.all(off == 0)
        # drawn diagonals sit in [0.8, 1.0], always above the default target
        assert spectral_radius(spec.A) == pytest.approx(DEFAULT_TARGET_RADIUS,
                                                        rel=1e-6)
        assert np.all(np.diag(spec.A) > 0)

    def test_anti_self_zero_diagonal(self):
        spec = make_var_spec("anti_self", 10, seed=2)
        assert np.all(np.diag(spec.A) == 0)
        assert np.all(spec.A[~np.eye(10, dtype=bool)] > 0)
        assert spectral_radius(spec.A) == pytest.approx(DEFAULT_TARGET_RADIUS,
                                                        rel=1e-5)

    def test_unit_noise(self):
        spec = make_var_spec("anti_self", 5)
        assert np.array_equal(spec.noise_diag, np.ones(5))

    def test_deterministic_in_seed(self):
        a1 = make_var_spec("anti_self", 7, seed=42).A
        a2 = make_var_spec("anti_self", 7, seed=42).A
        a3 = make_var_spec("anti_self", 7, seed=43).A
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)

    def test_explosive_target_allowed(self):
        spec = make_var_spec("anti_self", 6, seed=0, target_radius=1.05)
        assert spectral_radius(spec.A) == pytest.approx(1.05, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            make_var_spec("anti_self", 1)
        with pytest.raises(ParameterError):
            make_var_spec("anti_self", 4, target_radius=0.0)
        with pytest.raises(ParameterError):
            make_var_spec("anti_self", 4, target_radius=2.5)
        with pytest.raises(ParameterError):
            make_var_spec("unknown", 4)


class TestSpecValidation:
    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            VarProcessSpec(structure="custom", C=3, A=np.zeros((2, 2)),
                           noise_diag=np.ones(3))

    def test_noise_length_checked(self):
        with pytest.raises(ShapeError):
            VarProcessSpec(structure="custom", C=2, A=np.zeros((2, 2)),
                           noise_diag=np.ones(3))

    @pytest.mark.parametrize("noise", [np.ones((1, 1)), 1.0])
    def test_noise_is_one_entry_per_channel(self, noise):
        # a column or a scalar holds C = 1 values, but is not a diagonal
        with pytest.raises(ShapeError, match="noise_diag shape"):
            VarProcessSpec(structure="custom", C=1, A=np.zeros((1, 1)),
                           noise_diag=noise)

    def test_noise_positivity(self):
        with pytest.raises(ParameterError):
            VarProcessSpec(structure="custom", C=2, A=np.zeros((2, 2)),
                           noise_diag=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("a,noise", [
        ([[np.nan, 0.0], [0.0, 0.5]], [1.0, 1.0]),
        ([[0.5, 0.0], [0.0, 0.5]], [1.0, np.nan]),
        ([[0.5, 0.0], [0.0, 0.5]], [1.0, np.inf])])
    def test_non_finite_rejected(self, a, noise):
        with pytest.raises(ParameterError):
            VarProcessSpec(structure="custom", C=2, A=np.array(a),
                           noise_diag=np.array(noise))

    def test_unknown_structure_rejected(self):
        with pytest.raises(ParameterError, match="bogus"):
            VarProcessSpec(structure="bogus", C=2, A=np.zeros((2, 2)),
                           noise_diag=np.ones(2))

    @pytest.mark.parametrize("key,value", [
        ("C", 2.7), ("C", "2"), ("C", True), ("seed", 1.5), ("seed", None)])
    def test_from_dict_rejects_non_integral(self, key, value):
        d = make_var_spec("anti_self", 2, seed=3).to_dict()
        d[key] = value
        with pytest.raises(ParameterError, match=key):
            VarProcessSpec.from_dict(d)

    def test_from_dict_accepts_integral_float(self):
        d = make_var_spec("anti_self", 2, seed=3).to_dict()
        d["C"], d["seed"] = 2.0, 3.0
        spec = VarProcessSpec.from_dict(d)
        assert (spec.C, spec.seed) == (2, 3)
        assert type(spec.C) is int and type(spec.seed) is int

    def test_dict_round_trip(self):
        spec = make_var_spec("anti_self", 4, seed=9)
        back = VarProcessSpec.from_dict(spec.to_dict())
        assert np.array_equal(back.A, spec.A)
        assert back.structure == spec.structure and back.seed == spec.seed

    def test_immutable(self):
        a, noise = np.full((2, 2), 0.25), np.ones(2)
        spec = VarProcessSpec(structure="custom", C=2, A=a, noise_diag=noise)
        a[0, 0], noise[0] = 9.0, 9.0
        assert spec.A[0, 0] == 0.25 and spec.noise_diag[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.A[0, 1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            spec.noise_diag[1] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.A = np.zeros((2, 2))
        with pytest.raises(ValueError, match="read-only"):
            spec.stationary_chol[0, 0] = 1.0


class TestSimulate:
    def test_shape_and_burn_in(self):
        spec = make_var_spec("independent", 3, seed=0)
        out = simulate(spec, steps=50, burn_in=10)
        assert out.shape == (3, 40)

    def test_burn_in_drops_prefix(self):
        spec = make_var_spec("anti_self", 3, seed=1)
        full = simulate(spec, steps=50, burn_in=0)
        tail = simulate(spec, steps=50, burn_in=10)
        assert np.array_equal(tail, full[:, 10:])

    def test_deterministic_and_seed_override(self):
        spec = make_var_spec("anti_self", 4, seed=5)
        assert np.array_equal(simulate(spec, 30), simulate(spec, 30))
        assert not np.array_equal(
            simulate(spec, 30),
            simulate(dataclasses.replace(spec, seed=6), 30))

    def test_validation(self):
        spec = make_var_spec("anti_self", 3)
        with pytest.raises(ParameterError):
            simulate(spec, steps=0)
        with pytest.raises(ParameterError):
            simulate(spec, steps=10, burn_in=10)

    def test_follows_recursion(self):
        """Replaying the recursion from the same draws reproduces the output."""
        spec = make_var_spec("independent", 2, seed=3)
        out = simulate(spec, steps=5)
        # one-step consistency: residuals out[:, t+1] - A out[:, t] should be
        # standard-normal sized, never exploding
        resid = out[:, 1:] - spec.A @ out[:, :-1]
        assert np.all(np.abs(resid) < 6.0)


class TestStationaryCovariance:
    @pytest.mark.parametrize("c,seed,radius", [
        pytest.param(2, 0, 0.9, id="2-0"), pytest.param(3, 1, 0.9, id="3-1"),
        pytest.param(5, 2, 0.9, id="5-2"), pytest.param(8, 3, 0.9, id="8-3"),
        pytest.param(8, 3, 0.999, id="8-3-near-unit")])
    def test_matches_kronecker_solve(self, c, seed, radius):
        spec = random_stable_spec(c, seed, radius=radius)
        s = stationary_covariance(spec)
        ref = kron_stationary(spec.A, spec.noise_cov)
        assert np.allclose(s, ref, rtol=1e-8, atol=1e-10)

    def test_symmetric_positive_definite(self):
        spec = random_stable_spec(6, 11)
        s = stationary_covariance(spec)
        assert np.allclose(s, s.T)
        assert np.all(np.linalg.eigvalsh(s) > 0)

    def test_diagonal_closed_form(self):
        # private AR(1) channels: S_ii = q_i / (1 - a_ii^2)
        a = np.diag([0.5, -0.8])
        spec = VarProcessSpec(structure="custom", C=2, A=a,
                              noise_diag=np.array([1.0, 2.0]))
        s = stationary_covariance(spec)
        assert s[0, 0] == pytest.approx(1.0 / (1 - 0.25), rel=1e-9)
        assert s[1, 1] == pytest.approx(2.0 / (1 - 0.64), rel=1e-9)
        assert abs(s[0, 1]) < 1e-12

    def test_explosive_rejected(self):
        spec = make_var_spec("anti_self", 4, target_radius=1.05)
        with pytest.raises(ParameterError):
            stationary_covariance(spec)

    def test_signed_explosive_rejected(self):
        # the power iteration misses this one; the eigenvalue check does not
        spec = signed_unstable_spec()
        assert spectral_radius(spec.A) < 1.0
        with pytest.raises(ParameterError, match="1.0020"):
            stationary_covariance(spec)

    @pytest.mark.parametrize("q", [1e-20, 1e-8])
    def test_tiny_noise_matches_kronecker_solve(self, q):
        # an absolute stopping tolerance stops after one doubling here,
        # at S = 1.98 q I instead of q / (1 - 0.99^2) I = 50.25 q I
        a = 0.99 * np.eye(3)
        spec = VarProcessSpec(structure="custom", C=3, A=a,
                              noise_diag=np.full(3, q))
        s = stationary_covariance(spec)
        assert np.allclose(s, kron_stationary(a, spec.noise_cov),
                           rtol=1e-8, atol=0)
        assert np.allclose(np.diag(s), q / (1 - 0.99 ** 2), rtol=1e-9, atol=0)
        assert np.all(s[~np.eye(3, dtype=bool)] == 0.0)

    def test_success_path_makes_no_eigensolve(self, monkeypatch):
        specs = [make_var_spec("anti_self", 128, seed=0, target_radius=0.995),
                 make_var_spec("independent", 16, seed=1)]

        def refused(a):
            raise AssertionError("eigvals called on the success path")
        monkeypatch.setattr(varlab.np.linalg, "eigvals", refused)
        for spec in specs:
            report = bayes_risk_sequence(spec)
            assert np.all(np.isfinite(report.risks))


def eigvals_checked_stationary(spec: VarProcessSpec) -> np.ndarray:
    """The doubling as it stood with an up-front eigenvalue check and an
    absolute stopping tolerance, kept to pin the unit-noise bytes."""
    assert np.abs(np.linalg.eigvals(spec.A)).max() < 1.0
    s, a = spec.noise_cov, spec.A
    for _ in range(64):
        step = a @ s @ a.T
        s = s + step
        if float(np.abs(step).max()) <= 1e-12:
            return 0.5 * (s + s.T)
        a = a @ a
    raise AssertionError("reference doubling did not converge")


@pytest.mark.parametrize("structure", ["anti_self", "independent"])
@pytest.mark.parametrize("c", [2, 3, 7, 16, 64, 128, 250])
def test_unit_noise_bytes_match_eigvals_checked_doubling(structure, c):
    for seed in range(4):
        for radius in (0.5, 0.9, 0.95, 0.995, 0.9999):
            spec = make_var_spec(structure, c, seed=seed, target_radius=radius)
            assert (stationary_covariance(spec).tobytes()
                    == eigvals_checked_stationary(spec).tobytes()), (seed, radius)


class TestTwoChannelRisks:
    def test_gap_identity_exact(self):
        for seed in range(10):
            spec = random_stable_spec(2, seed)
            pair = bayes_risk_ci_cd(spec)
            assert pair.gap == pytest.approx(
                pair.cross_coefficient ** 2 * pair.var_conditional, abs=1e-12)

    def test_matches_sequence_endpoints(self):
        spec = random_stable_spec(2, 21)
        pair = bayes_risk_ci_cd(spec, target=0)
        seq = bayes_risk_sequence(spec, target=0)
        assert pair.r_ci == pytest.approx(seq.risks[0], abs=1e-10)
        assert pair.r_cd == pytest.approx(seq.risks[1], abs=1e-10)

    def test_target_one_mirrors_swapped_spec(self):
        spec = random_stable_spec(2, 22)
        swapped = VarProcessSpec(
            structure="custom", C=2, A=spec.A[::-1, ::-1].copy(),
            noise_diag=spec.noise_diag[::-1].copy())
        pair = bayes_risk_ci_cd(spec, target=1)
        mirror = bayes_risk_ci_cd(swapped, target=0)
        assert pair.r_ci == pytest.approx(mirror.r_ci, rel=1e-9)
        assert pair.r_cd == pytest.approx(mirror.r_cd, rel=1e-9)

    def test_no_cross_coefficient_no_gap(self):
        a = np.array([[0.6, 0.0], [0.3, 0.2]])
        spec = VarProcessSpec(structure="custom", C=2, A=a,
                              noise_diag=np.ones(2))
        assert bayes_risk_ci_cd(spec, target=0).gap == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            bayes_risk_ci_cd(random_stable_spec(3, 0))
        with pytest.raises(ParameterError):
            bayes_risk_ci_cd(random_stable_spec(2, 0), target=2)


class TestRiskSequence:
    @given(seed=st.integers(0, 10_000), c=st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_monotone_to_noise_floor(self, seed, c):
        spec = random_stable_spec(c, seed)
        report = bayes_risk_sequence(spec, target=0)
        risks = report.risks
        assert np.all(np.diff(risks) <= 1e-9)
        assert risks[-1] == pytest.approx(spec.noise_diag[0], abs=1e-9)
        gaps = report.gaps
        assert np.all(np.diff(gaps) >= -1e-9)
        s = stationary_covariance(spec)
        var_y = float(spec.A[0] @ s @ spec.A[0] + spec.noise_diag[0])
        assert report.var_y == pytest.approx(var_y, rel=1e-9)
        assert risks[0] <= var_y + 1e-9

    @given(seed=st.integers(0, 10_000), c=st.integers(2, 16),
           target=st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_p_solves(self, seed, c, target):
        spec = random_stable_spec(c, seed)
        target %= c
        report = bayes_risk_sequence(spec, target=target)
        risks = report.risks
        ref = per_p_risks(spec, target=target)
        # both forms subtract from Var(Y), so each carries round-off of
        # order eps * Var(Y); a risk far below Var(Y) inherits it relatively
        assert np.max(np.abs(risks - ref)) <= 1e-12 * report.var_y
        # the cumulative form makes monotonicity exact, not approximate
        assert np.all(np.diff(risks) <= 0)

    def test_zero_coefficient_channel_is_inert(self):
        spec = random_stable_spec(4, 33)
        padded_a = np.zeros((5, 5))
        padded_a[:4, :4] = spec.A
        padded = VarProcessSpec(
            structure="custom", C=5, A=padded_a,
            noise_diag=np.concatenate([spec.noise_diag, [1.0]]))
        base = bayes_risk_sequence(spec, target=0).risks
        ext = bayes_risk_sequence(padded, target=0).risks
        assert np.allclose(ext[:4], base, atol=1e-9)
        assert ext[4] == pytest.approx(base[-1], abs=1e-9)

    def test_target_validated(self):
        with pytest.raises(ParameterError):
            bayes_risk_sequence(random_stable_spec(3, 0), target=3)


class TestMonteCarlo:
    def test_matches_closed_form(self):
        spec = random_stable_spec(3, 7)
        closed = bayes_risk_sequence(spec, target=0).risks
        mc = monte_carlo_risks(spec, n_samples=400_000, target=0)
        for p in range(1, 4):
            assert mc[p] == pytest.approx(closed[p - 1], rel=0.02)

    @pytest.mark.parametrize("n_samples",
                             [1, 4 * MC_BLOCK_ROWS - 1, 4 * MC_BLOCK_ROWS + 1])
    def test_blocked_matches_per_p_reference(self, n_samples, monkeypatch):
        # the draws are the same at any block size, so the block size moves
        # only the last bits of the scored sums
        spec = random_stable_spec(5, 17)
        want = per_p_monte_carlo(spec, n_samples, seed=4, target=1)
        for block_rows in (7, 1024, 4096):
            monkeypatch.setattr(varlab, "MC_BLOCK_ROWS", block_rows)
            got = monte_carlo_risks(spec, n_samples=n_samples, seed=4,
                                    target=1)
            assert list(got) == list(want)
            for p in want:
                assert got[p] == pytest.approx(want[p], rel=1e-12), block_rows

    def test_memory_does_not_grow_with_samples(self):
        c = 128
        peaks = []
        for n_samples in (20_000, 200_000):
            spec = make_var_spec("anti_self", c, seed=1, target_radius=0.995)
            tracemalloc.start()
            try:
                monte_carlo_risks(spec, n_samples=n_samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block of draws, the residual block, the Box-Muller buffers and
        # a few C x C matrices; the 20,000 x C draws alone are 20.5 MB
        bound = 8 * (2 * MC_BLOCK_ROWS * c + 2 * BLOCK_PAIRS + 16 * c * c)
        assert max(peaks) < bound
        assert abs(peaks[1] - peaks[0]) < 2**16

    def test_validation(self):
        spec = random_stable_spec(2, 0)
        with pytest.raises(ParameterError):
            monte_carlo_risks(spec, n_samples=0)
        for target in (-1, 2):
            with pytest.raises(ParameterError, match="target"):
                monte_carlo_risks(spec, n_samples=10, target=target)


def test_stationary_law_computed_once_per_spec(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return stationary_covariance(spec)
    monkeypatch.setattr(varlab, "stationary_covariance", counted)
    spec = random_stable_spec(2, 3)
    bayes_risk_sequence(spec, target=1)
    monte_carlo_risks(spec, n_samples=10, target=0)
    bayes_risk_ci_cd(spec, target=1)
    assert calls == [spec]


@pytest.mark.parametrize("oracle", [
    lambda spec: bayes_risk_sequence(spec),
    lambda spec: monte_carlo_risks(spec, n_samples=10)],
    ids=["closed_form", "monte_carlo"])
def test_indefinite_covariance_is_definiteness_error(monkeypatch, oracle):
    spec = random_stable_spec(2, 0)
    monkeypatch.setattr(varlab, "stationary_covariance",
                        lambda spec: np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DefinitenessError):
        oracle(spec)


@pytest.mark.parametrize("oracle", [
    lambda spec: bayes_risk_sequence(spec),
    lambda spec: monte_carlo_risks(spec, n_samples=10),
    lambda spec: bayes_risk_ci_cd(spec)],
    ids=["closed_form", "monte_carlo", "two_channel"])
def test_unresolvable_noise_floor_is_refused(oracle):
    with pytest.raises(ParameterError, match="not small against the noise floor"):
        oracle(rotation_spec())


def test_risk_missing_the_noise_floor_is_refused(monkeypatch):
    # R_C equals the floor for any symmetric S; an asymmetric one (the
    # factor reads only its lower triangle) makes it miss by far more than
    # rounding
    monkeypatch.setattr(varlab, "stationary_covariance",
                        lambda spec: np.array([[2.0, 0.5], [0.1, 2.0]]))
    with pytest.raises(ParameterError, match="misses the noise floor"):
        bayes_risk_sequence(random_stable_spec(2, 0))
