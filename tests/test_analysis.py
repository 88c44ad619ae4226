"""Spectral diagnostics, covariance snapshots, and the attention cost bench."""
import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import random_spd, tiny_config
from ucast import analysis
from ucast.analysis import (LOG_2PIE, MECHANISMS, RANK_TOL_RATIO,
                            CostSample, bench_attention, effective_rank,
                            entropy, export_snapshots, offdiagonal_mass,
                            score_entries, snapshot)
from ucast.cli import write_csv, write_json
from ucast.errors import DefinitenessError, ParameterError
from ucast.linalg import cholesky_logdet
from ucast.model import Forecaster
from ucast.rng import Stream
from ucast.training import TrainConfig, train
from ucast.data import WindowBatch


class TestEffectiveRank:
    def test_orthonormal_rows_full_rank(self):
        q, _ = np.linalg.qr(Stream(3, (102,)).normal((8, 8)))
        assert effective_rank(q[:4]) == 4

    def test_rank_one_and_zero(self):
        outer = np.outer(np.arange(1.0, 4.0), np.arange(1.0, 6.0))
        assert effective_rank(outer) == 1
        assert effective_rank(np.zeros((3, 5))) == 0

    def test_tolerance_boundary(self):
        # singular values either side of RANK_TOL_RATIO times the largest
        assert effective_rank(np.diag([1.0, 0.5, 0.1 * RANK_TOL_RATIO])) == 2
        assert effective_rank(np.diag([1.0, 0.5, 10 * RANK_TOL_RATIO])) == 3

    def test_matches_svd_with_values_near_tolerance(self):
        # Gram eigenvalues 1e-12 below the top one decide the count here,
        # so they must be accurate to round-off, as an SVD of h is
        s = np.array([1.0, 2.4e-5, 9.6e-6, 4.7e-6, 3.1e-6, 1.03e-6, 5.1e-7,
                      1e-16])
        for seed in range(5):
            u, _ = np.linalg.qr(Stream(seed, (1,)).normal((8, 8)))
            v, _ = np.linalg.qr(Stream(seed, (2,)).normal((16, 8)))
            h = (u * s) @ v.T
            sv = np.linalg.svd(h, compute_uv=False)
            assert effective_rank(h) == int(np.sum(sv >= 1e-6 * sv[0])) == 6

    def test_wide_and_tall_agree(self):
        h = Stream(4, (103,)).normal((3, 9))
        assert effective_rank(h) == effective_rank(h.T)


class TestEntropy:
    def test_scaled_identity_closed_form(self):
        for n, s in [(1, 2.0), (3, 0.5), (6, 4.0)]:
            want = 0.5 * (n * LOG_2PIE + n * np.log(s))
            assert entropy(s * np.eye(n)) == pytest.approx(want, rel=1e-12)

    def test_general_spd_matches_logdet(self):
        sigma = random_spd(5, seed=11)
        want = 0.5 * (5 * LOG_2PIE + cholesky_logdet(sigma))
        assert entropy(sigma) == pytest.approx(want, rel=1e-12)

    def test_rotation_invariant(self):
        sigma = random_spd(4, seed=12)
        q, _ = np.linalg.qr(Stream(13, (104,)).normal((4, 4)))
        assert entropy(q @ sigma @ q.T) == pytest.approx(entropy(sigma),
                                                         rel=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(DefinitenessError):
            entropy(np.diag([1.0, 0.0]))


class TestOffdiagonalMass:
    def test_diagonal_is_zero(self):
        assert offdiagonal_mass(np.diag([2.0, 3.0, 0.5])) == 0.0

    def test_perfect_correlation_is_one(self):
        v = np.array([1.0, -2.0, 0.5])
        assert offdiagonal_mass(np.outer(v, v)) == pytest.approx(1.0)

    def test_known_two_by_two(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert offdiagonal_mass(sigma) == pytest.approx(0.3)

    def test_scale_invariant(self):
        sigma = random_spd(4, seed=21)
        d = np.diag([0.1, 3.0, 7.0, 0.4])
        assert offdiagonal_mass(d @ sigma @ d) == pytest.approx(
            offdiagonal_mass(sigma), rel=1e-12)

    def test_single_channel(self):
        assert offdiagonal_mass(np.array([[4.0]])) == 0.0


class TestSnapshots:
    def make_trace(self, **overrides):
        cfg = tiny_config(**overrides)
        model = Forecaster(cfg)
        x = Stream(30, (105,)).normal((cfg.channels, cfg.lookback))
        return model, model.trace(x)

    def test_one_snapshot_per_stage(self):
        model, trace = self.make_trace()
        snaps = snapshot(trace, epoch=4)
        assert [s.layer for s in snaps] == [1, 2]
        assert all(s.epoch == 4 for s in snaps)

    def test_fields_internally_consistent(self):
        model, trace = self.make_trace()
        for snap, node in zip(snapshot(trace, 0), trace.h_nodes[1:]):
            h = node.value
            n = h.shape[0]
            assert len(snap.eigenvalues) == n
            assert np.all(np.diff(snap.eigenvalues) <= 1e-12)
            sigma = h @ h.T / h.shape[1]
            assert np.sum(snap.eigenvalues) == pytest.approx(
                np.trace(sigma), rel=1e-10)
            # entropy and logdet are computed on the same ridged matrix
            want = 0.5 * (n * LOG_2PIE + snap.logdet)
            assert snap.entropy == pytest.approx(want, rel=1e-12)
            assert 0 <= snap.effective_rank <= min(h.shape)
            assert 0.0 <= snap.offdiag_mass <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("spread", [0.0, 1.0])
    def test_rank_from_covariance_eigenvalues(self, d, spread):
        # stages of 8 and 4 rows: more rows than d=4 and fewer than d=16;
        # at init the stages are rank-deficient, with O(1) weights full
        model, _ = self.make_trace(channels=16, d=d)
        for i, (name, value) in enumerate(model.params.items()):
            model.params[name] = value + spread * Stream(i, (86,)).normal(
                value.shape)
        trace = model.trace(Stream(30, (105,)).normal((16, 8)))
        for snap, node in zip(snapshot(trace, 0), trace.h_nodes[1:]):
            assert snap.effective_rank == effective_rank(node.value)

    def test_asdict_json_safe(self):
        _, trace = self.make_trace()
        payload = json.dumps([asdict(s) for s in snapshot(trace, 1)])
        assert "eigenvalues" in payload

    def test_export_writes_listed_files(self, tmp_path):
        model, trace = self.make_trace()
        entry = export_snapshots(tmp_path, trace, epoch=2)
        assert entry["epoch"] == 2
        for name in entry["files"]:
            assert (tmp_path / name).exists()
        # one cov file per stage plus down/up attention maps per stage
        layers = trace.config.layers
        assert len(entry["files"]) == 3 * layers

    def test_exported_covariance_matches_trace(self, tmp_path):
        model, trace = self.make_trace()
        export_snapshots(tmp_path, trace, epoch=0)
        assert len(trace.h_nodes) == 3
        for layer, node in enumerate(trace.h_nodes[1:], start=1):
            h = node.value
            sigma = (h @ h.T) / float(h.shape[1])
            back = np.loadtxt(tmp_path / f"cov_epoch0_layer{layer}.csv",
                              delimiter=",", ndmin=2)
            assert np.array_equal(back, sigma), layer

    def test_artifact_index_round_trip(self, tmp_path):
        # the index cmd_train writes: export_snapshots entries under "entries"
        model, trace = self.make_trace()
        entries = [export_snapshots(tmp_path, trace, epoch=0)]
        write_json(tmp_path / "artifacts.json", {"entries": entries})
        payload = json.loads((tmp_path / "artifacts.json").read_text())
        assert payload["entries"] == entries


class TestCovarianceEvolution:
    def test_offdiag_mass_drops_under_strong_penalty(self):
        # the decorrelation claim, in miniature: with a heavy covariance
        # weight a few epochs must reduce mean off-diagonal correlation
        cfg = tiny_config(alpha=1.0, channels=8, d=8, ratio=2)
        model = Forecaster(cfg)
        stream = Stream(40, (106,))
        x = stream.normal((24, cfg.channels, cfg.lookback))
        base = x.mean(axis=2, keepdims=True)
        y = np.repeat(base, cfg.horizon, axis=2)
        batch = WindowBatch(inputs=x, targets=y, starts=np.arange(24))
        probe = stream.normal((cfg.channels, cfg.lookback))

        def mass(m):
            tr = m.trace(probe)
            sigmas = [(n.value @ n.value.T) / n.value.shape[1]
                      for n in tr.h_nodes[1:]]
            return float(np.mean([offdiagonal_mass(s) for s in sigmas]))

        before = mass(model)
        train(model, batch, None, None,
              TrainConfig(lr=0.01, batch_size=8, max_epochs=12, patience=50,
                          seed=0))
        after = mass(model)
        assert after < before - 1e-4


class TestCostModel:
    def test_score_entry_formulas(self):
        for c, r in [(512, 16), (1024, 16), (2048, 16), (64, 4)]:
            assert score_entries(c, r, "HLQN") == max(1, c // r) * c
            assert score_entries(c, r, "FlatAttention") == c * c
            assert score_entries(c, r, "HLQN") / score_entries(
                c, r, "FlatAttention") == pytest.approx(1.0 / r)

    def test_small_channel_floor(self):
        # fewer channels than the ratio still leaves one latent query
        assert score_entries(8, 16, "HLQN") == 8

    def test_unknown_mechanism(self):
        with pytest.raises(ParameterError):
            score_entries(64, 16, "attention")

    def test_bench_returns_both_mechanisms(self):
        samples = bench_attention([16, 32], d=8, ratio=4, repeats=2)
        assert [s.mechanism for s in samples] == list(MECHANISMS) * 2
        for s in samples:
            assert s.seconds > 0.0
            assert s.score_entries == score_entries(s.channels, s.ratio,
                                                    s.mechanism)

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_bench_runs_exactly_repeats_timed_passes(self, monkeypatch,
                                                     repeats):
        calls = []

        def counting_pass(channels, d, queries, heads, seed):
            def run_once():
                calls.append(queries)
                return 1.0
            return run_once

        monkeypatch.setattr(analysis, "_attention_pass", counting_pass)
        bench_attention([32], d=8, ratio=4, repeats=repeats)
        # each mechanism: its warm-ups, then exactly `repeats` timed passes
        for queries in (8, 32):
            assert calls.count(queries) == analysis.BENCH_WARMUPS + repeats

    def test_bench_pass_sweeps_the_weights_backward(self, monkeypatch):
        # the timed pass is forward plus backward, so the tape it sweeps
        # must hold records to sweep
        swept = []
        sweep = analysis.Tape.backward

        def counting(tape, loss):
            swept.append(len(tape._records))
            sweep(tape, loss)

        monkeypatch.setattr(analysis.Tape, "backward", counting)
        analysis._attention_pass(16, 8, 4, 1, 0)()
        assert len(swept) == 1 and swept[0] > 0

    def test_single_thread_limit_restores_the_count(self):
        threads = analysis._openblas_threads()
        if threads is None:
            pytest.skip("numpy bundles no OpenBLAS with a settable count")
        get, set_ = threads
        before = get()
        try:
            set_(2)
            with analysis._single_thread_limit() as in_effect:
                assert in_effect == get() == 1
            assert get() == 2
        finally:
            set_(before)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_bench_rejects_bad_repeats(self, repeats):
        with pytest.raises(ParameterError):
            bench_attention([16], d=8, repeats=repeats)

    def test_bench_rejects_bad_channels(self):
        with pytest.raises(ParameterError):
            bench_attention([0], d=8, repeats=1)

    @pytest.mark.parametrize("shape, message", [
        (dict(d=0), "d must be >= 1"), (dict(ratio=0), "ratio must be >= 1"),
        (dict(heads=0), "heads must be >= 1"),
        (dict(d=8, heads=3), "d=8 must be divisible by heads=3")])
    def test_bench_rejects_bad_shape(self, shape, message):
        with pytest.raises(ParameterError, match=message):
            bench_attention([16], **{"d": 8, **shape}, repeats=1)

    def test_bench_csv_round_trip(self, tmp_path):
        sample = CostSample(channels=16, d=8, ratio=4, heads=1,
                            mechanism="HLQN", seconds=0.25, score_entries=64,
                            blas_threads=1)
        path = tmp_path / "bench.csv"
        write_csv(path, list(asdict(sample)), [asdict(sample)])
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["mechanism"] == "HLQN"
        assert float(rows[0]["seconds"]) == 0.25
        assert int(rows[0]["score_entries"]) == 64
