"""Forecaster architecture invariants and checkpoint round-trips."""
import io
import json
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import JSON_SCALARS, REFUSED, read_as, tiny_config
from ucast import model as model_module
from ucast.errors import FormatError, ParameterError, ShapeError
from ucast.model import (Forecaster, UCastConfig, VARIANTS, build_variant,
                         forward_from_nodes, init_params,
                         instance_normalize, ladder_sizes,
                         load_checkpoint, param_shapes, save_checkpoint,
                         total_loss, trainable_names)
from ucast.autodiff import Tape
from ucast.rng import Stream
from ucast.training import batch_gradients


def window(cfg, seed=0):
    return Stream(seed, (51,)).normal((cfg.channels, cfg.lookback))


def npy_header(shape, descr="<f8"):
    """The bytes of a version 1.0 .npy header, data not included."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": tuple(shape)})
    return buf.getvalue()


def logdet_penalty(h, eps):
    """-(1/C') log det((1/d) H H^T + eps I) from numpy's slogdet."""
    rows, d = h.shape
    sign, logdet = np.linalg.slogdet(h @ h.T / d + eps * np.eye(rows))
    assert sign > 0
    return -logdet / rows


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ParameterError):
            tiny_config(d=8, heads=3)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            tiny_config(variant="bogus")

    def test_positivity(self):
        with pytest.raises(ParameterError):
            tiny_config(horizon=0)

    @pytest.mark.parametrize("field", ["alpha", "eps_cov"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParameterError):
            tiny_config(**{field: value})

    def test_dict_round_trip(self):
        cfg = tiny_config(alpha=0.5, variant="no_cov")
        assert UCastConfig.from_dict(asdict(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(fields(UCastConfig)), value=JSON_SCALARS)
    def test_any_manifest_scalar_is_read_or_refused(self, field, value):
        # a ParameterError passes through load_checkpoint and exits 64
        stored = asdict(tiny_config())
        stored[field.name] = json.loads(json.dumps(value))
        expected = read_as(field.type, value)
        try:
            cfg = UCastConfig.from_dict(stored)
        except ParameterError as exc:
            assert (expected is not REFUSED
                    or f"config value {field.name}" in str(exc))
            return
        assert expected is not REFUSED
        got = getattr(cfg, field.name)
        assert got == expected and type(got) is type(expected)

    def test_build_variant(self):
        base = tiny_config()
        for name in VARIANTS:
            v = build_variant(base, name)
            assert v.variant == name
        assert build_variant(base, "no_cov").alpha == 0.0
        assert build_variant(base, "no_hierarchical").layers == 1
        with pytest.raises(ParameterError):
            build_variant(base, "missing")


class TestLadder:
    def test_sizes(self):
        assert ladder_sizes(512, 16, 2) == [32, 2]
        assert ladder_sizes(100, 4, 3) == [25, 6, 1]

    def test_clamp_warns(self):
        with pytest.warns(RuntimeWarning):
            assert ladder_sizes(8, 4, 3) == [2, 1, 1]

    def test_validation(self):
        with pytest.raises(ParameterError):
            ladder_sizes(0, 4, 2)


class TestInitParams:
    def test_full_variant_blocks(self):
        cfg = tiny_config()
        params = init_params(cfg)
        assert params["w_in"].shape == (cfg.lookback, cfg.d)
        assert params["w_out"].shape == (cfg.d, cfg.horizon)
        assert params["enc1.query"].shape == (3, cfg.d)
        assert params["enc2.query"].shape == (1, cfg.d)
        assert "dec1.w_q" in params and "dec2.w_o" in params
        assert "restore" not in params

    def test_no_upsampling_blocks(self):
        params = init_params(tiny_config(variant="no_upsampling"))
        assert params["restore"].shape == (6, 1)
        assert not any(k.startswith("dec") for k in params)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_walks_param_shapes_in_order(self, variant):
        cfg = tiny_config(variant=variant)
        assert ([(k, v.shape) for k, v in init_params(cfg).items()]
                == list(param_shapes(cfg).items()))

    def test_deterministic(self):
        cfg = tiny_config()
        p1, p2 = init_params(cfg), init_params(cfg)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_frozen_query_excluded_from_training(self):
        cfg = tiny_config(variant="frozen_query")
        params = init_params(cfg)
        names = trainable_names(cfg, params)
        assert "enc1.query" not in names and "enc2.query" not in names
        assert "w_in" in names


def denormalize(normed, mean, scale):
    """The forward pass's de-normalization, Tape.row_affine_const."""
    tape = Tape()
    return tape.row_affine_const(tape.constant(normed), scale, mean).value


class TestInstanceNorm:
    def test_round_trip(self):
        x = Stream(3, (52,)).normal((5, 12)) * 7.0 + 3.0
        normed, mean, scale = instance_normalize(x)
        assert np.allclose(denormalize(normed, mean, scale), x, atol=1e-10)

    def test_rows_standardized(self):
        x = Stream(4, (52,)).normal((4, 16)) * 5.0
        normed, _, _ = instance_normalize(x)
        assert np.allclose(normed.mean(axis=1), 0.0, atol=1e-12)
        # the divide-by-zero guard leaves variance just under one
        assert np.allclose(normed.std(axis=1), 1.0, atol=1e-3)

    def test_constant_channel_guarded(self):
        x = np.vstack([np.full(8, 2.0), np.arange(8.0)])
        normed, mean, scale = instance_normalize(x)
        assert np.all(np.isfinite(normed))
        assert np.allclose(denormalize(normed, mean, scale), x, atol=1e-10)


class TestForward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_shape(self, variant):
        cfg = tiny_config(variant=variant,
                          layers=1 if variant == "no_hierarchical" else 2,
                          alpha=0.0 if variant == "no_cov" else 0.1)
        model = Forecaster(cfg)
        y = model.predict(window(cfg))
        assert y.shape == (cfg.channels, cfg.horizon)
        assert np.all(np.isfinite(y))

    def test_bad_window_shape(self):
        cfg = tiny_config()
        with pytest.raises(ShapeError):
            Forecaster(cfg).predict(np.zeros((3, 3)))

    def test_attention_rows_normalized(self):
        cfg = tiny_config()
        trace = Forecaster(cfg).trace(window(cfg))
        sizes = ladder_sizes(cfg.channels, cfg.ratio, cfg.layers)
        prev = cfg.channels
        for level, attn in enumerate(trace.attn_down):
            assert attn.shape == (sizes[level], prev)
            assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-10)
            prev = sizes[level]
        for attn in trace.attn_up:
            assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-10)

    def test_trace_stages_present(self):
        cfg = tiny_config()
        trace = Forecaster(cfg).trace(window(cfg))
        assert len(trace.h_nodes) == cfg.layers + 1
        assert len(trace.attn_up) == cfg.layers
        assert trace.prediction.shape == (cfg.channels, cfg.horizon)

    def test_deterministic(self):
        cfg = tiny_config()
        x = window(cfg)
        assert np.array_equal(Forecaster(cfg).predict(x),
                              Forecaster(cfg).predict(x))

    def test_multi_head_shapes(self):
        cfg = tiny_config(d=8, heads=2)
        y = Forecaster(cfg).predict(window(cfg))
        assert y.shape == (cfg.channels, cfg.horizon)


class TestPermutationEquivariance:
    """Shared channel processing must commute with channel reordering."""

    @pytest.mark.parametrize("variant", ["full", "no_cov", "frozen_query",
                                         "no_hierarchical"])
    def test_equivariant_variants(self, variant):
        cfg = tiny_config(channels=8, variant=variant,
                          layers=1 if variant == "no_hierarchical" else 2)
        model = Forecaster(cfg)
        x = window(cfg, seed=9)
        base = model.predict(x)
        for pseed in range(5):
            perm = Stream(pseed, (61,)).permutation(cfg.channels)
            assert np.allclose(model.predict(x[perm]), base[perm], atol=1e-8)

    def test_restore_matrix_breaks_equivariance(self):
        # the fixed channel-restoring projection is channel-indexed, so
        # reordering input channels must NOT reorder its output; this guards
        # the test above against passing vacuously
        cfg = tiny_config(channels=8, variant="no_upsampling")
        model = Forecaster(cfg)
        # at the 0.02-std init the restore path is numerically negligible;
        # O(1) weights along it make its channel-indexing visible
        for name in ("restore", "f_pred"):
            model.params[name] = Stream(2, (62,)).normal(
                model.params[name].shape)
        x = window(cfg, seed=9)
        base = model.predict(x)
        perm = Stream(1, (61,)).permutation(cfg.channels)
        violation = np.abs(model.predict(x[perm]) - base[perm]).max()
        assert violation > 1e-4

    def test_outputs_vary_across_channels(self):
        cfg = tiny_config(channels=8)
        y = Forecaster(cfg).predict(window(cfg, seed=9))
        assert np.std(y[:, 0]) > 1e-8


class TestLoss:
    def test_alpha_zero_is_pure_mse(self):
        cfg = tiny_config(alpha=0.0)
        model = Forecaster(cfg)
        x = window(cfg)
        target = Stream(8, (53,)).normal((cfg.channels, cfg.horizon))
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in model.params.items()}
        loss = model.build_loss(tape, nodes, x, target)
        pred = model.predict(x)
        assert float(loss.value) == pytest.approx(
            float(np.mean((pred - target) ** 2)), rel=1e-12)

    def test_penalty_added_per_stage_mean(self):
        cfg = tiny_config(alpha=0.3)
        model = Forecaster(cfg)
        x = window(cfg)
        target = np.zeros((cfg.channels, cfg.horizon))
        trace = model.trace(x)
        pens = [logdet_penalty(h.value, cfg.eps_cov)
                for h in trace.h_nodes[1:]]
        expected = float(np.mean((trace.prediction - target) ** 2)
                         + cfg.alpha * np.mean(pens))
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in model.params.items()}
        loss = model.build_loss(tape, nodes, x, target)
        assert float(loss.value) == pytest.approx(expected, rel=1e-12)

    def test_target_shape_checked(self):
        cfg = tiny_config()
        model = Forecaster(cfg)
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in model.params.items()}
        with pytest.raises(ShapeError):
            model.build_loss(tape, nodes, window(cfg), np.zeros((2, 2)))


def reference_attention(tape, query_rows, key_rows, w_q, w_k, w_v, w_o,
                        heads):
    """Attention in its textbook association: project every query and key
    row through W_q and W_k, every value row through W_v, per-head column
    slices of those activations, and the concatenated heads through W_o.
    The concatenation is a sum of products with 0/1 placement matrices,
    which moves every value unchanged.  Returns the output and the map, as
    the model's _attention does: the heads' mean, or None when taped."""
    d = w_q.value.shape[0]
    d_head = d // heads
    q = tape.matmul(query_rows, w_q)
    k = tape.matmul(key_rows, w_k)
    v = tape.matmul(key_rows, w_v)
    merged = map_sum = None
    for h in range(heads):
        lo, hi = h * d_head, (h + 1) * d_head
        q_h, k_h, v_h = (tape.slice(m, lo, hi) if heads > 1 else m
                         for m in (q, k, v))
        scores = tape.scale(tape.matmul(q_h, tape.transpose(k_h)),
                            1.0 / np.sqrt(d_head))
        attn = tape.softmax_rows(scores)
        head_out = tape.matmul(attn, v_h)
        if heads > 1:
            place = np.zeros((d_head, d))
            place[:, lo:hi] = np.eye(d_head)
            head_out = tape.matmul(head_out, tape.constant(place))
        merged = head_out if merged is None else tape.add(merged, head_out)
        if not attn.requires_grad:
            map_sum = attn.value if map_sum is None else map_sum + attn.value
    return (tape.matmul(merged, w_o),
            None if map_sum is None else map_sum / heads)


def o1_model(variant, heads):
    """O(1) weights, so the attention maps are far from uniform and the
    query and key gradients are more than round-off."""
    model = Forecaster(build_variant(tiny_config(d=8, heads=heads), variant))
    for i, (name, value) in enumerate(model.params.items()):
        model.params[name] = value + Stream(i, (86,)).normal(value.shape) * 0.5
    return model


class TestReassociation:
    """The model's attention against the textbook association."""

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("stacked", [True, False])
    def test_gradients_match_reference(self, variant, heads, stacked,
                                       monkeypatch):
        model = o1_model(variant, heads)
        cfg = model.config
        stream = Stream(4, (54,))
        x = stream.normal((5, cfg.channels, cfg.lookback))
        y = stream.normal((5, cfg.channels, cfg.horizon))
        if not stacked:
            x, y = x[0], y[0]
        loss, grads = batch_gradients(model, x, y)
        monkeypatch.setattr(model_module, "_attention", reference_attention)
        ref_loss, ref_grads = batch_gradients(model, x, y)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert set(grads) == set(ref_grads)
        # one bound over all parameters: a block whose gradient is itself
        # round-off has no meaningful relative error of its own
        scale = max(float(np.abs(g).max()) for g in ref_grads.values())
        worst = max(float(np.abs(grads[k] - ref_grads[k]).max())
                    for k in grads)
        assert worst <= 1e-10 * scale

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_trace_maps_match_reference(self, heads, monkeypatch):
        model = o1_model("full", heads)
        x = window(model.config)
        trace = model.trace(x)
        monkeypatch.setattr(model_module, "_attention", reference_attention)
        ref = model.trace(x)
        assert np.allclose(trace.prediction, ref.prediction, rtol=1e-12,
                           atol=1e-14)
        for got, want in zip(trace.attn_down + trace.attn_up,
                             ref.attn_down + ref.attn_up):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_maps_only_from_untaped_passes(self, heads, monkeypatch):
        # a taped pass returns no map, as its tape holds every head's
        # softmax array for the sweep; an untaped one the heads' mean
        model = o1_model("full", heads)
        x = window(model.config)
        for attention in (model_module._attention, reference_attention):
            monkeypatch.setattr(model_module, "_attention", attention)
            tape = Tape()
            nodes = {name: tape.leaf(value, requires_grad=True)
                     for name, value in model.params.items()}
            taped = forward_from_nodes(nodes, model.config, x, tape)
            assert taped.attn_down + taped.attn_up == [None] * 4
            untaped = model.trace(x)
            maps = untaped.attn_down + untaped.attn_up
            assert len(maps) == 4
            for attn in maps:
                assert isinstance(attn, np.ndarray)
                assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def weight_products_over_wide_rows(attention, heads, monkeypatch):
    """Run one stacked forward with `attention` recording the tape's
    matmuls; list every product, per stage, of a d x d weight (or a head
    slice of one) with an activation of more rows per window than the
    smaller of that stage's two row sets."""
    cfg = UCastConfig(channels=16, lookback=10, horizon=3, d=12, layers=2,
                      ratio=4, heads=heads)
    d, d_head = cfg.d, cfg.d // heads
    weight_shapes = {(d, d), (d, d_head), (d_head, d)}
    found = []
    calls = []

    def recording(tape, query_rows, key_rows, *rest):
        products = []
        matmul = tape.matmul

        def recorded(a, b):
            products.append((a.value.shape, b.value.shape))
            return matmul(a, b)

        tape.matmul = recorded
        try:
            result = attention(tape, query_rows, key_rows, *rest)
        finally:
            del tape.matmul
        fewer = min(query_rows.value.shape[-2], key_rows.value.shape[-2])
        calls.append(products)
        found.extend((a, b) for a, b in products
                     if b in weight_shapes and a not in weight_shapes
                     and a[-2] > fewer)
        return result

    monkeypatch.setattr(model_module, "_attention", recording)
    x = Stream(5, (55,)).normal((3, cfg.channels, cfg.lookback))
    Forecaster(cfg).trace(x)
    assert len(calls) == 2 * cfg.layers and all(calls)
    return found


@pytest.mark.parametrize("heads", [1, 2])
def test_no_attention_stage_projects_its_wider_row_set(heads, monkeypatch):
    assert weight_products_over_wide_rows(model_module._attention, heads,
                                          monkeypatch) == []
    # the textbook association does, so the check is not vacuous
    assert weight_products_over_wide_rows(reference_attention, heads,
                                          monkeypatch)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = tiny_config(variant="frozen_query", alpha=0.07)
        model = Forecaster(cfg)
        save_checkpoint(tmp_path / "ckpt", model.params, cfg)
        params, config = load_checkpoint(tmp_path / "ckpt")
        assert config == cfg
        assert set(params) == set(model.params)
        for k in params:
            assert np.array_equal(params[k], model.params[k]), k
        x = window(cfg)
        assert np.array_equal(Forecaster(config, params).predict(x),
                              model.predict(x))

    def test_load_draws_no_random_matrices(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        model = Forecaster(cfg)
        save_checkpoint(tmp_path / "ckpt", model.params, cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")
        monkeypatch.setattr(Stream, "normal", no_draws)
        params, _ = load_checkpoint(tmp_path / "ckpt")
        assert all(np.array_equal(params[k], model.params[k]) for k in params)

    def test_vector_params_restore_shape(self, tmp_path):
        cfg = tiny_config()
        model = Forecaster(cfg)
        save_checkpoint(tmp_path / "ckpt", model.params, cfg)
        params, _ = load_checkpoint(tmp_path / "ckpt")
        assert params["enc1.ln_gain"].shape == model.params["enc1.ln_gain"].shape

    def test_integral_float_in_manifest_reads_as_integer(self, tmp_path):
        path, manifest = self._saved_manifest(tmp_path)
        manifest["config"]["d"] = 8.0
        path.write_text(json.dumps(manifest))
        assert '"d": 8.0' in path.read_text()
        _, cfg = load_checkpoint(path.parent)
        assert cfg.d == 8 and type(cfg.d) is int

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nothing")

    def _saved_manifest(self, tmp_path):
        cfg = tiny_config()
        save_checkpoint(tmp_path / "ckpt", Forecaster(cfg).params, cfg)
        path = tmp_path / "ckpt" / "manifest.json"
        return path, json.loads(path.read_text())

    def test_manifest_missing_a_parameter(self, tmp_path):
        path, manifest = self._saved_manifest(tmp_path)
        del manifest["shapes"]["f_pred"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="f_pred"):
            load_checkpoint(path.parent)

    def test_manifest_shape_disagrees_with_config(self, tmp_path):
        path, manifest = self._saved_manifest(tmp_path)
        manifest["shapes"]["w_out"] = [4, 8]
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="w_out"):
            load_checkpoint(path.parent)

    @pytest.mark.parametrize("fmt", ["ucast-checkpoint-v1", "bogus", None])
    def test_old_or_unknown_format(self, tmp_path, fmt):
        path, manifest = self._saved_manifest(tmp_path)
        manifest["format"] = fmt
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="format"):
            load_checkpoint(path.parent)

    def test_missing_parameter_file(self, tmp_path):
        path, _ = self._saved_manifest(tmp_path)
        (path.parent / "w_out.npy").unlink()
        with pytest.raises(FormatError, match="w_out"):
            load_checkpoint(path.parent)

    @pytest.mark.parametrize("case", ["truncated", "empty", "csv_text",
                                      "object_array", "npz_archive",
                                      "zip_magic", "empty_zip", "huge_header"])
    def test_unreadable_parameter_file(self, tmp_path, case):
        path, _ = self._saved_manifest(tmp_path)
        target = path.parent / "w_out.npy"
        if case == "zip_magic":
            # numpy's own loader raises zipfile.BadZipFile here
            target.write_bytes(b"PK\x03\x04 no zip archive")
        elif case == "empty_zip":
            target.write_bytes(b"PK\x05\x06" + bytes(18))
        elif case == "huge_header":
            # refused from the header alone: nothing of 8 TB is allocated
            target.write_bytes(npy_header((10 ** 12,)) + bytes(64))
        elif case == "truncated":
            target.write_bytes(target.read_bytes()[:-8])
        elif case == "empty":
            target.write_bytes(b"")
        elif case == "csv_text":
            target.write_text("1.0,2.0\n")
        elif case == "object_array":
            np.save(target, np.array([[1.0], [None]], dtype=object),
                    allow_pickle=True)
        else:
            value = np.load(target)
            with target.open("wb") as fh:
                np.savez(fh, w_out=value)
        with pytest.raises(FormatError, match="w_out"):
            load_checkpoint(path.parent)

    @given(prefix=st.sampled_from(["none", "zip", "empty_zip", "npy_v1",
                                   "npy_v2", "right_header", "huge_header",
                                   "float32_header"]),
           tail=st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_parameter_bytes_load_or_refuse(self, tmp_path_factory,
                                                      prefix, tail):
        cfg = tiny_config()
        directory = tmp_path_factory.mktemp("ckpt")
        save_checkpoint(directory, Forecaster(cfg).params, cfg)
        shape = param_shapes(cfg)["w_out"]
        head = {"none": b"", "zip": b"PK\x03\x04", "empty_zip": b"PK\x05\x06",
                "npy_v1": b"\x93NUMPY\x01\x00", "npy_v2": b"\x93NUMPY\x02\x00",
                "right_header": npy_header(shape),
                "huge_header": npy_header((10 ** 12,)),
                "float32_header": npy_header(shape, "<f4")}[prefix]
        (directory / "w_out.npy").write_bytes(head + tail)
        try:
            params, _ = load_checkpoint(directory)
        except FormatError as exc:
            assert "w_out" in str(exc)
            return
        # only a well-formed header of the right shape with enough data loads
        assert prefix == "right_header"
        assert params["w_out"].dtype == np.float64
        assert params["w_out"].shape == tuple(shape)

    def test_fortran_ordered_parameter_file(self, tmp_path):
        # np.save keeps a Fortran-ordered array's layout in its header
        path, _ = self._saved_manifest(tmp_path)
        target = path.parent / "w_out.npy"
        value = np.load(target)
        np.save(target, np.asfortranarray(value))
        params, _ = load_checkpoint(path.parent)
        assert np.array_equal(params["w_out"], value)

    def test_parameter_of_the_wrong_dtype(self, tmp_path):
        path, _ = self._saved_manifest(tmp_path)
        target = path.parent / "w_out.npy"
        np.save(target, np.load(target).astype(np.float32))
        with pytest.raises(FormatError, match="w_out"):
            load_checkpoint(path.parent)

    @pytest.mark.parametrize("reshape", [np.transpose, np.ravel,
                                         lambda a: a[:1]],
                             ids=["transposed", "flattened", "fewer_rows"])
    def test_parameter_of_the_wrong_shape(self, tmp_path, reshape):
        # a transposed or flattened file has the right number of values;
        # only the shape in its .npy header is wrong
        path, _ = self._saved_manifest(tmp_path)
        target = path.parent / "w_out.npy"
        np.save(target, np.ascontiguousarray(reshape(np.load(target))))
        with pytest.raises(FormatError, match="w_out"):
            load_checkpoint(path.parent)

    def test_malformed_manifest(self, tmp_path):
        d = tmp_path / "ckpt"
        d.mkdir()
        (d / "manifest.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_checkpoint(d)

    def test_non_utf8_manifest(self, tmp_path):
        d = tmp_path / "ckpt"
        d.mkdir()
        (d / "manifest.json").write_bytes(b'{"format": "\xff"}')
        with pytest.raises(FormatError, match="malformed"):
            load_checkpoint(d)


def test_cov_loss_matches_logdet():
    h = Stream(11, (54,)).normal((4, 9))
    tape = Tape()
    penalty = tape.cov_penalty(tape.constant(h), 1e-3)
    assert float(penalty.value) == pytest.approx(logdet_penalty(h, 1e-3),
                                                 rel=1e-10)
