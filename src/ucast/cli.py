"""Command-line entry point: every workflow as a subcommand.

Subcommands: synth, risk, train, eval, ablate, bench, sweep.  Each run
writes its resolved configuration, the seed, and a content hash of its
inputs into the output directory next to the artifacts, so a run can be
reproduced from the directory alone.  Wall-clock numbers go to a separate
timing file; all other artifacts are byte-deterministic for a fixed
invocation.

Exit codes: 0 success; 2 a --assert-paper expectation failed; 64 usage
error; 66 missing dataset or checkpoint; 70 training diverged or another
numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import baselines as bl
from . import analysis
from .data import (TimeSeriesDataset, WindowBatch, load_csv, sliding_windows,
                   split_chronological, zscore_apply, zscore_fit)
from .errors import (DataError, FormatError, ParameterError, ShapeError,
                     UcastError, finite, integral, text)
from .model import (Forecaster, UCastConfig, VARIANTS, build_variant,
                    load_checkpoint, save_checkpoint)
from .training import TrainConfig, evaluate, train
from .varlab import (VarProcessSpec, bayes_risk_ci_cd, bayes_risk_sequence,
                     make_var_spec, monte_carlo_risks, simulate)

EXIT_OK = 0
EXIT_ASSERT_FAILED = 2
EXIT_USAGE = 64
EXIT_MISSING_DATA = 66
EXIT_DIVERGED = 70

_FIT = ("train", "ablate", "sweep")

# every run setting once: its published default, the reader a flag or a
# config value goes through, and the commands that read it (and so take its
# flag, and its config key where --config exists); ablate sets the variant
# itself, and the split stays text until the series is cut
SETTINGS = {
    "d": (512, integral, _FIT),
    "layers": (2, integral, _FIT),
    "ratio": (16, integral, _FIT),
    "heads": (1, integral, _FIT),
    "alpha": (0.01, finite, _FIT),
    "eps_cov": (1e-4, finite, _FIT),
    "variant": ("full", text, ("train", "sweep")),
    "horizon": (8, integral, _FIT),
    "lookback": (None, integral, _FIT),    # 4 * horizon when absent
    "lr": (1e-3, finite, _FIT),
    "batch_size": (128, integral, _FIT),
    "max_epochs": (100, integral, _FIT),
    "patience": (5, integral, _FIT),
    "clip_norm": (5.0, finite, _FIT),
    "split": ("0.7,0.1,0.2", text, (*_FIT, "eval")),
    "steps": (400, integral, (*_FIT, "eval")),
    "snapshot_epochs": ("", text, ("train",)),
}

_FLAG_HELP = {
    "split": "train,val,test fractions",
    "steps": "generated series length for var: data",
    "snapshot_epochs": "comma list of epochs to export spectra, e.g. 0,final",
}

# published model/training defaults; CLI flags and config files override
TABLE_DEFAULTS = {name: default for name, (default, _, _) in SETTINGS.items()}

# ablate/sweep shrink width and batch to desk scale so a five-way comparison
# finishes in minutes on one core; 600 steps keep the 10% validation segment
# wide enough for a lookback+horizon window
DESK_DEFAULTS = dict(TABLE_DEFAULTS, d=32, ratio=4, batch_size=32, steps=600)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def blob_sha1(data: bytes) -> str:
    """Content hash in git blob style."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def _resolve(args, defaults: dict) -> dict:
    """The settings args.command reads, each through its reader, then the
    run's seed and data.  Precedence: CLI flag > config file > defaults."""
    resolved = {name: defaults[name] for name, (_, _, commands)
                in SETTINGS.items() if args.command in commands}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except ValueError as exc:
            # bad JSON, bad encoding, or an integer too long to convert
            raise FormatError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError(
                f"config file must hold a JSON object, got {loaded!r}")
        unknown = set(loaded) - set(resolved)
        if unknown:
            raise ParameterError(
                f"unknown config keys for {args.command}: {sorted(unknown)}")
        resolved.update(loaded)
    for name, value in resolved.items():
        if getattr(args, name) is not None:
            value = getattr(args, name)
        if name == "lookback" and value is None:
            # SETTINGS lists horizon first, so it has been read already
            resolved[name] = 4 * resolved["horizon"]
        else:
            resolved[name] = SETTINGS[name][1](f"config value {name}", value)
    return {**resolved, "seed": args.seed, "data": args.data}


def prepare_run_dir(out, force: bool) -> Path:
    """Create the output directory; refuse to reuse one without --force."""
    out = Path(out)
    marker = out / "config.json"
    if marker.exists() and not force:
        raise ParameterError(
            f"output directory {out} already holds a run; pass --force to "
            "overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> None:
    """Header plus one line per row; csv writes floats as their repr, so
    every value reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# -- dataset resolution ----------------------------------------------------


def resolve_data(data_arg: str, steps: int, seed: int
                 ) -> tuple[TimeSeriesDataset, dict]:
    """Load a CSV path or generate `var:<structure>:<channels>` data.

    Returns the dataset and a provenance record (source string plus content
    hash) for the run config.
    """
    if data_arg.startswith("var:"):
        parts = data_arg.split(":")
        if len(parts) not in (3, 4):
            raise ParameterError(
                f"--data var spec must be var:<structure>:<channels>"
                f"[:steps], got '{data_arg}'")
        structure = parts[1]
        try:
            channels = int(parts[2])
            gen_steps = int(parts[3]) if len(parts) == 4 else steps
        except ValueError as exc:
            raise ParameterError(f"bad --data numbers in '{data_arg}'") from exc
        spec = make_var_spec(structure, channels, seed=seed)
        series = simulate(spec, gen_steps, bl.SERIES_BURN_IN)
        ds = TimeSeriesDataset(
            values=series,
            channel_names=[f"ch{i}" for i in range(channels)],
            source=data_arg)
        payload = ds.values.tobytes()
        return ds, {"source": data_arg, "steps": gen_steps,
                    "input_sha1": blob_sha1(payload)}
    path = Path(data_arg)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    ds = load_csv(path)
    return ds, {"source": str(path),
                "input_sha1": blob_sha1(path.read_bytes())}


def windows_from_dataset(ds: TimeSeriesDataset, cfg: dict
                         ) -> tuple[WindowBatch, WindowBatch | None, WindowBatch]:
    """Chronological split, train-statistics z-score, per-segment windows."""
    try:
        fractions = tuple(float(f) for f in cfg["split"].split(","))
    except ValueError:
        fractions = ()
    if len(fractions) != 3:
        raise ParameterError(
            f"--split needs three fractions, got {cfg['split']!r}")
    lookback = cfg["lookback"]
    horizon = cfg["horizon"]
    train_seg, val_seg, test_seg = split_chronological(
        ds, fractions, min_rows=lookback + horizon)
    stats = zscore_fit(train_seg)
    train_w = sliding_windows(zscore_apply(train_seg, stats), lookback, horizon)
    val_w = None
    if val_seg is not None:
        val_w = sliding_windows(zscore_apply(val_seg, stats), lookback, horizon)
    test_w = sliding_windows(zscore_apply(test_seg, stats), lookback, horizon)
    return train_w, val_w, test_w


def model_config(cfg: dict, channels: int) -> UCastConfig:
    base = UCastConfig(
        channels=channels,
        lookback=cfg["lookback"],
        horizon=cfg["horizon"],
        d=cfg["d"],
        layers=cfg["layers"],
        ratio=cfg["ratio"],
        heads=cfg["heads"],
        alpha=cfg["alpha"],
        eps_cov=cfg["eps_cov"],
        seed=cfg["seed"],
    )
    return build_variant(base, cfg["variant"])


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        lr=cfg["lr"],
        batch_size=cfg["batch_size"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        clip_norm=cfg["clip_norm"],
        seed=cfg["seed"],
    )


# -- argument plumbing -----------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="allow writing into an existing run directory")


def _add_settings(p: _Parser, command: str) -> None:
    """--data plus one flag per setting the command reads; the fitting
    commands also take --config."""
    p.add_argument("--data", required=True,
                   help="CSV path or var:<structure>:<channels>[:steps]")
    for name, (_, read, commands) in SETTINGS.items():
        if command in commands:
            p.add_argument("--" + name.replace("_", "-"), default=None,
                           type={integral: int, finite: float, text: str}[read],
                           choices=VARIANTS if name == "variant" else None,
                           help=_FLAG_HELP.get(name))
    if command in _FIT:
        p.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="ucast", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="CI-vs-CD synthetic table")
    p.add_argument("--settings", choices=("default", "full"), default=None,
                   help="preset cell grid; full adds the C=2000 cell")
    p.add_argument("--structure", default=None,
                   help="custom single cell: structure name")
    p.add_argument("--channels", type=int, default=None,
                   help="custom single cell: channel count")
    p.add_argument("--pooled", type=int, default=8,
                   help="sequences pooled for a custom cell")
    p.add_argument("--assert-paper", action="store_true",
                   help="fail (exit 2) when the published orderings break")
    _add_common(p)

    p = sub.add_parser("risk", help="closed-form Bayes risks of a VAR spec")
    p.add_argument("--spec-file", default=None,
                   help="VarProcessSpec JSON file")
    p.add_argument("--structure", default=None)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--target-radius", dest="target_radius", type=float,
                   default=None)
    p.add_argument("--target", type=int, default=0,
                   help="target channel index")
    p.add_argument("--mc", type=int, default=0,
                   help="Monte-Carlo cross-check sample count")
    _add_common(p)

    p = sub.add_parser("train", help="fit a forecaster variant")
    _add_settings(p, "train")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    _add_settings(p, "eval")
    _add_common(p)

    p = sub.add_parser("ablate", help="train every variant on one dataset")
    _add_settings(p, "ablate")
    p.add_argument("--assert-paper", action="store_true",
                   help="fail (exit 2) unless full beats each ablation "
                        "within 5%% slack")
    _add_common(p)

    p = sub.add_parser("bench", help="hierarchical vs flat attention cost")
    p.add_argument("--channels", default="512,1024,2048",
                   help="comma list of channel counts")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--ratio", type=int, default=16)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--repeats", type=int, default=analysis.BENCH_REPEATS)
    _add_common(p)

    p = sub.add_parser("sweep", help="grid over alpha, ratio, or layers")
    _add_settings(p, "sweep")
    p.add_argument("--param", choices=("alpha", "ratio", "layers"),
                   required=True)
    p.add_argument("--values", default=None,
                   help="comma list; defaults to the published range")
    _add_common(p)
    return parser


SWEEP_RANGES = {
    "alpha": "0,0.001,0.01,0.1,1",
    "ratio": "2,4,8,16",
    "layers": "1,2,3",
}


# -- subcommands -----------------------------------------------------------


def cmd_synth(args) -> int:
    if args.structure is not None or args.channels is not None:
        if args.settings is not None:
            raise ParameterError(
                "--settings and --structure/--channels are exclusive")
        if args.structure is None or args.channels is None:
            raise ParameterError(
                "custom cell needs both --structure and --channels")
        settings = ((args.structure, args.channels, args.pooled),)
    else:
        preset = args.settings or "default"
        settings = bl.FULL_SETTINGS if preset == "full" else bl.QUICK_SETTINGS
    result = bl.run_ci_cd_experiment(settings=settings, seed=args.seed)
    violations = bl.assert_paper_orderings(result)
    for cell in result.cells:
        print(f"{cell.structure:12s} C={cell.channels:5d}  "
              f"ci {cell.test_mse['ci']:.6f}  cd {cell.test_mse['cd']:.6f}  "
              f"cd/ci {cell.ratio_cd_over_ci:.4f}")
    for v in violations:
        print(f"ordering violation: {v}")
    if args.out:
        out = prepare_run_dir(args.out, args.force)
        write_csv(out / "table.csv", ["structure", "C", "model", "test_mse"],
                  result.rows())
        summary = result.to_dict()
        if args.assert_paper:
            summary["ordering_violations"] = violations
        write_json(out / "summary.json", summary)
        write_json(out / "config.json", {
            "command": "synth", "seed": args.seed,
            "settings": [list(s) for s in settings],
            "assert_paper": bool(args.assert_paper),
        })
    if args.assert_paper and violations:
        return EXIT_ASSERT_FAILED
    return EXIT_OK


def _risk_spec(args) -> VarProcessSpec:
    if args.spec_file:
        path = Path(args.spec_file)
        if not path.exists():
            raise DataError(f"spec file not found: {path}")
        try:
            return VarProcessSpec.from_dict(json.loads(path.read_text()))
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError covers bad JSON or encoding, non-numbers, and the
            # spec's own ShapeError and ParameterError
            raise FormatError(f"{path}: malformed VAR spec: {exc!r}") from exc
    if args.structure is None or args.channels is None:
        raise ParameterError(
            "risk needs either --spec-file or --structure with --channels")
    kwargs = {}
    if args.target_radius is not None:
        kwargs["target_radius"] = args.target_radius
    return make_var_spec(args.structure, args.channels, seed=args.seed,
                         **kwargs)


def cmd_risk(args) -> int:
    try:
        spec = _risk_spec(args)
        report = bayes_risk_sequence(spec, target=args.target)
        pair = bayes_risk_ci_cd(spec, target=args.target) if spec.C == 2 else None
        mc = (monte_carlo_risks(spec, n_samples=args.mc, target=args.target)
              if args.mc > 0 else None)
    except MemoryError as exc:
        # the oracles hold a few C x C matrices and one block of samples,
        # so only the channel count can exhaust memory
        raise ParameterError(
            "risk: the VAR spec's C x C matrices do not fit in memory; "
            "use fewer channels") from exc
    print(f"structure {spec.structure}  C={spec.C}  target channel "
          f"{args.target}")
    print(f"Var(Y) = {report.var_y:.6f}  noise floor = "
          f"{report.noise_floor:.6f}")
    print("  p      risk       gap")
    for p, (risk, gap) in enumerate(zip(report.risks, report.gaps), start=1):
        print(f"{p:4d}  {risk:10.6f}  {gap:9.6f}")
    if pair is not None:
        print(f"two-channel closed form: r_ci {pair.r_ci:.6f}  "
              f"r_cd {pair.r_cd:.6f}  gap {pair.gap:.6f}")
    mc_rows = None
    if mc is not None:
        mc_rows = []
        print("  p   closed      sampled     |delta|")
        for p, risk in enumerate(report.risks, start=1):
            est = mc[p]
            delta = abs(risk - est)
            mc_rows.append({"p": p, "closed": float(risk),
                            "sampled": float(est), "delta": float(delta)})
            print(f"{p:4d}  {risk:10.6f}  {est:10.6f}  {delta:9.6f}")
    if args.out:
        out = prepare_run_dir(args.out, args.force)
        write_csv(out / "risks.csv", ["p", "risk", "gap"], [
            {"p": p, "risk": float(r), "gap": float(g)}
            for p, (r, g) in enumerate(zip(report.risks, report.gaps),
                                       start=1)])
        payload = {
            "command": "risk", "seed": args.seed, "target": args.target,
            "var_y": report.var_y, "noise_floor": report.noise_floor,
            "spec_sha1": blob_sha1(
                json.dumps(spec.to_dict(), sort_keys=True).encode()),
        }
        if mc_rows is not None:
            payload["monte_carlo"] = mc_rows
        write_json(out / "config.json", payload)
        write_json(out / "spec.json", spec.to_dict())
    return EXIT_OK


def _parse_snapshot_epochs(text: str) -> tuple[set[int], bool]:
    """Parse "0,5,final" into (epoch set, include final flag)."""
    epochs: set[int] = set()
    include_final = False
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "final":
            include_final = True
        else:
            try:
                epochs.add(int(token))
            except ValueError as exc:
                raise ParameterError(
                    f"bad snapshot epoch '{token}'") from exc
    return epochs, include_final


def cmd_train(args) -> int:
    cfg = _resolve(args, TABLE_DEFAULTS)
    out = prepare_run_dir(args.out, args.force) if args.out else None
    ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
    train_w, val_w, test_w = windows_from_dataset(ds, cfg)
    model = Forecaster(model_config(cfg, ds.n_channels))
    snap_epochs, snap_final = _parse_snapshot_epochs(cfg["snapshot_epochs"])
    index_entries: list[dict] = []
    probe = train_w.inputs[0]

    callback = None
    if (snap_epochs or snap_final) and out is not None:
        def callback(epoch: int, m) -> None:
            if epoch in snap_epochs:
                entry = analysis.export_snapshots(
                    out / "snapshots", m.trace(probe), epoch)
                index_entries.append(entry)

    report = train(model, train_w, val_w, test_w, train_config(cfg),
                   epoch_callback=callback)
    if snap_final and out is not None and not report.diverged:
        entry = analysis.export_snapshots(
            out / "snapshots", model.trace(probe), report.stopped_epoch)
        index_entries.append(entry)
    summary = report.summary()
    if out is not None:
        write_json(out / "config.json",
                   {"command": "train", **cfg, **provenance})
        with open(out / "train_log.jsonl", "w") as fh:
            for row in report.epoch_dicts():
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        write_json(out / "report.json", summary)
        write_json(out / "timing.json", report.timing())
        if index_entries:
            write_json(out / "snapshots" / "artifacts.json",
                       {"entries": index_entries})
        if not report.diverged:
            save_checkpoint(out / "checkpoint", model.params, model.config)
    for key, value in summary.items():
        print(f"{key}: {value}")
    if report.diverged:
        print(f"training diverged: {report.divergence_note}")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise DataError(f"checkpoint not found: {ckpt}")
    params, ucfg = load_checkpoint(ckpt)
    cfg = {**_resolve(args, TABLE_DEFAULTS), "lookback": ucfg.lookback,
           "horizon": ucfg.horizon}
    ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
    if ds.n_channels != ucfg.channels:
        raise ShapeError(
            f"checkpoint expects {ucfg.channels} channels, dataset has "
            f"{ds.n_channels}")
    _, _, test_w = windows_from_dataset(ds, cfg)
    model = Forecaster(ucfg, params)
    mse, mae = evaluate(model, test_w)
    print(f"test_mse: {mse}")
    print(f"test_mae: {mae}")
    if args.out:
        out = prepare_run_dir(args.out, args.force)
        write_json(out / "config.json", {
            "command": "eval", "seed": args.seed,
            "checkpoint": str(ckpt), "data": args.data, **provenance,
        })
        write_json(out / "report.json", {"test_mse": mse, "test_mae": mae})
    return EXIT_OK


def _train_grid(args, command: str, csv_name: str, columns: list[str],
                runs: list[tuple[str, dict, dict]], **config_extra
                ) -> list[dict] | None:
    """Train one forecaster per run on one dataset, desk profile by default.

    A run is (label, row, overrides): overrides patch the resolved config,
    label names the run on stdout, and row fills `columns` of its CSV line,
    which test_mse and test_mae complete.  With --out the CSV and
    config.json are written.  Returns the rows, or None once a run diverges.
    """
    cfg = _resolve(args, DESK_DEFAULTS)
    out = prepare_run_dir(args.out, args.force) if args.out else None
    ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
    train_w, val_w, test_w = windows_from_dataset(ds, cfg)
    # every run's config is checked before the first run trains
    configs = [model_config({**cfg, **overrides}, ds.n_channels)
               for _, _, overrides in runs]
    rows = []
    for (label, row, _), ucfg in zip(runs, configs):
        model = Forecaster(ucfg)
        report = train(model, train_w, val_w, test_w, train_config(cfg))
        if report.diverged:
            print(f"{label}: diverged ({report.divergence_note})")
            return None
        rows.append({**row, "test_mse": report.test_mse,
                     "test_mae": report.test_mae})
        print(f"{label:16s}  test_mse {report.test_mse:.6f}  "
              f"test_mae {report.test_mae:.6f}")
    if out is not None:
        write_csv(out / csv_name, [*columns, "test_mse", "test_mae"], rows)
        write_json(out / "config.json", {
            "command": command, **config_extra, **cfg, **provenance})
    return rows


def cmd_ablate(args) -> int:
    rows = _train_grid(args, "ablate", "ablation.csv", ["variant"], [
        (variant, {"variant": variant}, {"variant": variant})
        for variant in VARIANTS])
    if rows is None:
        return EXIT_DIVERGED
    full_mse = next(r["test_mse"] for r in rows if r["variant"] == "full")
    violations = [
        f"full {full_mse:.6f} above {row['variant']} "
        f"{row['test_mse']:.6f} + 5%"
        for row in rows
        if row["variant"] != "full" and full_mse > row["test_mse"] * 1.05]
    for v in violations:
        print(f"ablation violation: {v}")
    if args.assert_paper and violations:
        return EXIT_ASSERT_FAILED
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        channels = [int(c) for c in args.channels.split(",") if c.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --channels list '{args.channels}'") from exc
    samples = analysis.bench_attention(channels, d=args.d, ratio=args.ratio,
                                       heads=args.heads, repeats=args.repeats,
                                       seed=args.seed)
    print("channels  mechanism      seconds     score_entries")
    for s in samples:
        print(f"{s.channels:8d}  {s.mechanism:13s}  {s.seconds:.6f}  "
              f"{s.score_entries:13d}")
    for c in channels:
        h = next(s for s in samples
                 if s.channels == c and s.mechanism == "HLQN")
        f = next(s for s in samples
                 if s.channels == c and s.mechanism == "FlatAttention")
        print(f"C={c}: analytic ratio {h.score_entries / f.score_entries:.6f}"
              f"  time ratio {h.seconds / f.seconds:.4f}")
    if args.out:
        out = prepare_run_dir(args.out, args.force)
        write_csv(out / "bench.csv",
                  ["channels", "d", "ratio", "heads", "mechanism", "seconds",
                   "score_entries", "blas_threads"],
                  [s.to_dict() for s in samples])
        write_json(out / "config.json", {
            "command": "bench", "seed": args.seed,
            "channels": channels, "d": args.d, "ratio": args.ratio,
            "heads": args.heads, "repeats": args.repeats,
        })
    return EXIT_OK


def cmd_sweep(args) -> int:
    values_text = args.values or SWEEP_RANGES[args.param]
    cast = float if args.param == "alpha" else int
    try:
        values = [cast(v) for v in values_text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --values list '{values_text}'") from exc
    rows = _train_grid(args, "sweep", "sweep.csv", ["param", "value"], [
        (f"{args.param}={value}", {"param": args.param, "value": value},
         {args.param: value}) for value in values],
        param=args.param, values=values)
    return EXIT_DIVERGED if rows is None else EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "risk": cmd_risk,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except (ParameterError, FormatError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UcastError as exc:
        # a numeric failure: NumericError (non-finite values, or a matrix
        # that is not positive definite) or ConvergenceError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    raise SystemExit(main())
