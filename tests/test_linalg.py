"""Dense kernel contracts checked against numpy's own factorizations."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_spd
from ucast.autodiff import Tape
from ucast.errors import DefinitenessError, NumericError, ShapeError
from ucast.linalg import (as_matrix, cholesky_logdet, require_finite,
                          save_matrix_csv, softmax_rows)
from ucast.rng import Stream


def layer_norm(m, gain, bias):
    """The layer-norm kernel, which lives in its tape primitive."""
    tape = Tape()
    return tape.layer_norm(tape.constant(m), tape.constant(gain),
                           tape.constant(bias)).value


class TestAsMatrix:
    def test_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros(3))

    def test_rejects_cube(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_fortran_order_made_contiguous(self):
        f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        assert as_matrix(f).flags["C_CONTIGUOUS"]


def test_require_finite_flags_nan():
    with pytest.raises(NumericError):
        require_finite(np.array([1.0, np.nan]), "x")


class TestSoftmax:
    def test_rows_sum_to_one(self):
        m = Stream(3, (5,)).normal((7, 11))
        p = softmax_rows(m)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        m = Stream(4, (5,)).normal((3, 6))
        assert np.allclose(softmax_rows(m), softmax_rows(m + 123.0))

    def test_no_overflow_at_large_scores(self):
        p = softmax_rows(np.array([[1e6, 0.0], [0.0, -1e6]]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] > 0.999

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[np.nan, 0.0]]))


class TestLayerNorm:
    def test_identity_params_standardize_rows(self):
        m = Stream(5, (5,)).normal((4, 16))
        out = layer_norm(m, np.ones(16), np.zeros(16))
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        # eps inflates the denominator slightly, variance lands just below 1
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)

    def test_gain_bias_applied_per_column(self):
        m = Stream(6, (5,)).normal((4, 8))
        gain = np.arange(1.0, 9.0)
        bias = np.arange(8.0)
        base = layer_norm(m, np.ones(8), np.zeros(8))
        assert np.allclose(layer_norm(m, gain, bias), base * gain + bias)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((2, 4)), np.ones(3), np.zeros(4))


class TestCholeskyLogdet:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
    def test_matches_slogdet(self, n):
        s = random_spd(n, seed=n)
        sign, ref = np.linalg.slogdet(s)
        assert sign > 0
        assert cholesky_logdet(s) == pytest.approx(ref, rel=1e-10)

    @given(n=st.integers(1, 12), c=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scaled_identity(self, n, c):
        assert cholesky_logdet(c * np.eye(n)) == pytest.approx(
            n * np.log(c), rel=1e-12, abs=1e-12)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericError):
            cholesky_logdet(m)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            cholesky_logdet(np.diag([1.0, -1.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            cholesky_logdet(np.zeros((2, 3)))

    def test_tiny_asymmetry_tolerated(self):
        s = random_spd(4, seed=9)
        s[0, 1] += 1e-12
        assert np.isfinite(cholesky_logdet(s))


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        m = Stream(7, (5,)).normal((6, 3)) * 1e-7
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(back, m)
