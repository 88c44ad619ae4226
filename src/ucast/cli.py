"""Command-line entry point: every workflow as a subcommand.

Subcommands: synth, risk, train, eval, ablate, bench, sweep.  Each run
writes its resolved configuration, the seed, and a content hash of its
inputs into the output directory next to the artifacts, so a run can be
reproduced from the directory alone.  Wall-clock numbers go to a separate
timing file; all other artifacts are byte-deterministic for a fixed
invocation.

Exit codes: 0 success; 2 a --assert-paper expectation failed; 64 usage
error; 66 a file or directory the command cannot open, read or create,
missing or too-short data, or a missing checkpoint, in one line such as
"error: series.csv: No such file or directory"; 70 training diverged or
another numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import shutil
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import baselines as bl
from . import analysis
from .data import (TimeSeriesDataset, WindowBatch, check_split_ratios,
                   load_csv, sliding_windows, split_chronological,
                   zscore_apply, zscore_fit)
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

# every run setting once: its published default (the field default of the
# config dataclass that declares it, where one does), the reader a flag or a
# config value goes through, and the commands that read it (and so take its
# flag, and its config key where --config exists); ablate sets the variant
# itself, and the split stays text until the series is cut
SETTINGS = {
    "d": (UCastConfig.d, integral, _FIT),
    "layers": (UCastConfig.layers, integral, _FIT),
    "ratio": (UCastConfig.ratio, integral, _FIT),
    "heads": (UCastConfig.heads, integral, _FIT),
    "alpha": (UCastConfig.alpha, finite, _FIT),
    "eps_cov": (UCastConfig.eps_cov, finite, _FIT),
    "variant": (UCastConfig.variant, text, ("train", "sweep")),
    "horizon": (8, integral, _FIT),
    "lookback": (None, integral, _FIT),    # 4 * horizon when absent
    "lr": (TrainConfig.lr, finite, _FIT),
    "batch_size": (TrainConfig.batch_size, integral, _FIT),
    "max_epochs": (TrainConfig.max_epochs, integral, _FIT),
    "patience": (TrainConfig.patience, integral, _FIT),
    "clip_norm": (TrainConfig.clip_norm, finite, _FIT),
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


def blob_sha1(fh) -> str:
    """Content hash in git blob style of a seekable binary file, read in
    fixed-size chunks so that a large dataset is never held whole."""
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    h = hashlib.sha1(b"blob %d\0" % size)
    while chunk := fh.read(1 << 20):
        h.update(chunk)
    return h.hexdigest()


def _resolve(args, defaults: dict) -> dict:
    """The settings args.command reads, each through its reader, then the
    run's seed and data.  Precedence: CLI flag > config file > defaults."""
    resolved = {name: defaults[name] for name, (_, _, commands)
                in SETTINGS.items() if args.command in commands}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (RecursionError, ValueError) as exc:
            # bad JSON, bad encoding, an integer too long to convert, or
            # nesting deeper than the decoder's recursion limit
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


def prepare_run_dir(out: Path, force: bool, made: list[Path]) -> None:
    """Create out and any missing parents, refusing a run directory unless
    force is set; each level made goes first in `made` as it is made."""
    if (out / "config.json").exists() and not force:
        raise ParameterError(
            f"output directory {out} already holds a run; pass --force to "
            "overwrite")
    for path in reversed([p for p in (out, *out.parents) if not p.exists()]):
        try:
            path.mkdir()
        except FileExistsError:
            continue        # there all along, as y in x/../y once x is made
        made.insert(0, path)
    out.mkdir(exist_ok=True)        # refuses an out that is a file


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
        if gen_steps <= bl.SERIES_BURN_IN:
            # simulate discards the first SERIES_BURN_IN steps as burn-in
            raise ParameterError(
                f"--data {data_arg}: {gen_steps} steps, need at least "
                f"{bl.SERIES_BURN_IN + 1} to outlast the "
                f"{bl.SERIES_BURN_IN}-step burn-in")
        try:
            spec = make_var_spec(structure, channels, seed=seed)
            series = simulate(spec, gen_steps, bl.SERIES_BURN_IN)
        except MemoryError as exc:
            raise ParameterError(
                f"--data {data_arg}: {channels} channels over {gen_steps} "
                "steps do not fit in memory; use fewer channels or steps"
            ) from exc
        ds = TimeSeriesDataset(
            values=series,
            channel_names=[f"ch{i}" for i in range(channels)])
        return ds, {"source": data_arg, "steps": gen_steps,
                    "input_sha1": blob_sha1(io.BytesIO(ds.values.tobytes()))}
    path = Path(data_arg)
    ds = load_csv(path)
    with path.open("rb") as fh:
        return ds, {"source": str(path), "input_sha1": blob_sha1(fh)}


def split_fractions(text: str) -> tuple[float, float, float]:
    """--split as (train, val, test) fractions, refused unless some series
    could be cut by them; every command that cuts a series reads it once
    before any data is built, and again where it cuts."""
    try:
        fractions = tuple(float(f) for f in text.split(","))
    except ValueError:
        fractions = ()
    if len(fractions) != 3:
        raise ParameterError(f"--split needs three fractions, got {text!r}")
    check_split_ratios(fractions)
    return fractions


def split_segments(ds: TimeSeriesDataset, cfg: dict):
    """The train, val and test column views of ds under cfg's split (val is
    None at a zero fraction), and the train segment's z-score statistics."""
    segments = split_chronological(ds.values, split_fractions(cfg["split"]),
                                   cfg["lookback"] + cfg["horizon"])
    return segments, zscore_fit(segments[0])


def windows_from_dataset(ds: TimeSeriesDataset, cfg: dict
                         ) -> tuple[WindowBatch, WindowBatch | None, WindowBatch]:
    """Chronological split, train-statistics z-score, per-segment windows."""
    segments, (mean, scale) = split_segments(ds, cfg)
    return tuple(
        None if seg is None else sliding_windows(
            zscore_apply(seg, mean, scale), cfg["lookback"], cfg["horizon"])
        for seg in segments)


def model_config(cfg: dict, channels: int) -> UCastConfig:
    base = UCastConfig(channels=channels, **{
        f.name: cfg[f.name] for f in fields(UCastConfig) if f.name != "channels"})
    return build_variant(base, cfg["variant"])


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})


# -- argument plumbing -----------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="output directory")
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
    p.add_argument("--ratio", type=int, default=UCastConfig.ratio)
    p.add_argument("--heads", type=int, default=UCastConfig.heads)
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
    if args.out is not None:
        write_csv(args.out / "table.csv", ["structure", "C", "model", "test_mse"],
                  result.rows())
        summary = result.to_dict()
        if args.assert_paper:
            summary["ordering_violations"] = violations
        write_json(args.out / "summary.json", summary)
        write_json(args.out / "config.json", {
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
        try:
            return VarProcessSpec.from_dict(json.loads(path.read_text()))
        except (KeyError, RecursionError, TypeError, ValueError) as exc:
            # ValueError covers bad JSON or encoding, non-numbers, and the
            # spec's own ShapeError and ParameterError; RecursionError,
            # nesting deeper than the decoder's recursion limit
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
    if args.mc < 0:
        raise ParameterError(f"--mc must be >= 0 (0: no check), got {args.mc}")
    try:
        spec = _risk_spec(args)
        report = bayes_risk_sequence(spec, target=args.target)
        pair = bayes_risk_ci_cd(spec, target=args.target) if spec.C == 2 else None
        mc = (monte_carlo_risks(spec, n_samples=args.mc, seed=args.seed,
                                target=args.target)
              if args.mc > 0 else None)
    except MemoryError as exc:
        # the oracles hold a few C x C matrices and one block of samples,
        # so only the channel count can exhaust memory
        raise ParameterError(
            "risk: the VAR spec's C x C matrices do not fit in memory; "
            "use fewer channels") from exc
    rows = [{"p": p, "risk": float(risk), "gap": float(gap)}
            for p, (risk, gap) in enumerate(zip(report.risks, report.gaps),
                                            start=1)]
    print(f"structure {spec.structure}  C={spec.C}  target channel "
          f"{args.target}")
    print(f"Var(Y) = {report.var_y:.6f}  noise floor = "
          f"{report.noise_floor:.6f}")
    print("  p      risk       gap")
    for row in rows:
        print(f"{row['p']:4d}  {row['risk']:10.6f}  {row['gap']:9.6f}")
    if pair is not None:
        print(f"two-channel closed form: r_ci {pair.r_ci:.6f}  "
              f"r_cd {pair.r_cd:.6f}  gap {pair.gap:.6f}")
    mc_rows = None if mc is None else [
        {"p": row["p"], "closed": row["risk"], "sampled": mc[row["p"]],
         "delta": abs(row["risk"] - mc[row["p"]])} for row in rows]
    if mc_rows is not None:
        print("  p   closed      sampled     |delta|")
        for row in mc_rows:
            print(f"{row['p']:4d}  {row['closed']:10.6f}  "
                  f"{row['sampled']:10.6f}  {row['delta']:9.6f}")
    if args.out is not None:
        write_csv(args.out / "risks.csv", ["p", "risk", "gap"], rows)
        spec_dict = spec.to_dict()
        payload = {
            "command": "risk", "seed": args.seed, "target": args.target,
            "var_y": report.var_y, "noise_floor": report.noise_floor,
            "spec_sha1": blob_sha1(io.BytesIO(
                json.dumps(spec_dict, sort_keys=True).encode())),
        }
        if mc_rows is not None:
            payload["mc"], payload["monte_carlo"] = args.mc, mc_rows
        write_json(args.out / "config.json", payload)
        write_json(args.out / "spec.json", spec_dict)
    return EXIT_OK


def _parse_snapshot_epochs(text: str, max_epochs: int
                           ) -> tuple[set[int], bool]:
    """Parse "0,5,final" into (epoch set, include final flag); an epoch
    outside 0..max_epochs, which no run reaches, is refused."""
    epochs: set[int] = set()
    include_final = False
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "final":
            include_final = True
            continue
        try:
            epoch = int(token)
        except ValueError as exc:
            raise ParameterError(f"bad snapshot epoch '{token}'") from exc
        if not 0 <= epoch <= max_epochs:
            raise ParameterError(
                f"snapshot epoch {epoch} outside 0..{max_epochs}: no run "
                f"with max_epochs={max_epochs} reaches it")
        epochs.add(epoch)
    return epochs, include_final


def cmd_train(args) -> int:
    cfg = _resolve(args, TABLE_DEFAULTS)
    # its own rules refuse a max_epochs below 1 before the epochs are read
    tcfg = train_config(cfg)
    snap_epochs, snap_final = _parse_snapshot_epochs(cfg["snapshot_epochs"],
                                                     tcfg.max_epochs)
    split_fractions(cfg["split"])
    ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
    # built before windowing, so its own rules refuse a zero lookback or
    # horizon before any window is cut
    ucfg = model_config(cfg, ds.n_channels)
    train_w, val_w, test_w = windows_from_dataset(ds, cfg)
    model = Forecaster(ucfg)
    if args.out is not None and args.force:
        # every check has passed: an earlier run's checkpoint and snapshots
        # go, so none is left beside a config that does not describe it
        for stale in (args.out / "checkpoint", args.out / "snapshots"):
            if stale.exists():
                shutil.rmtree(stale)
    index_entries: list[dict] = []
    probe = train_w.inputs[0]

    callback = None
    if (snap_epochs or snap_final) and args.out is not None:
        def callback(epoch: int, m) -> None:
            if epoch in snap_epochs:
                entry = analysis.export_snapshots(
                    args.out / "snapshots", m.trace(probe), epoch)
                index_entries.append(entry)

    report = train(model, train_w, val_w, test_w, tcfg,
                   epoch_callback=callback)
    # the model now holds the best validated epoch's parameters, which the
    # callback has exported already if that epoch was listed
    if (snap_final and args.out is not None and not report.diverged
            and report.best_epoch not in snap_epochs):
        entry = analysis.export_snapshots(
            args.out / "snapshots", model.trace(probe), report.best_epoch)
        index_entries.append(entry)
    summary = report.summary()
    if args.out is not None:
        write_json(args.out / "config.json",
                   {"command": "train", **cfg, **provenance})
        with open(args.out / "train_log.jsonl", "w") as fh:
            for record in report.epochs:
                fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
        write_json(args.out / "report.json", summary)
        write_json(args.out / "timing.json", report.timing())
        if index_entries:
            write_json(args.out / "snapshots" / "artifacts.json",
                       {"entries": index_entries})
        if not report.diverged:
            save_checkpoint(args.out / "checkpoint", model.params, model.config)
    for key, value in summary.items():
        print(f"{key}: {value}")
    if report.diverged:
        print(f"training diverged: {report.divergence_note}")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    params, ucfg = load_checkpoint(ckpt)
    cfg = {**_resolve(args, TABLE_DEFAULTS), "lookback": ucfg.lookback,
           "horizon": ucfg.horizon}
    split_fractions(cfg["split"])
    ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
    if ds.n_channels != ucfg.channels:
        raise ShapeError(
            f"checkpoint expects {ucfg.channels} channels, dataset has "
            f"{ds.n_channels}")
    # the test segment alone is windowed; train gives the z-score statistics
    (_, _, test), (mean, scale) = split_segments(ds, cfg)
    mse, mae = evaluate(Forecaster(ucfg, params), sliding_windows(
        zscore_apply(test, mean, scale), ucfg.lookback, ucfg.horizon))
    print(f"test_mse: {mse}")
    print(f"test_mae: {mae}")
    if args.out is not None:
        write_json(args.out / "config.json", {
            "command": "eval", **cfg, "checkpoint": str(ckpt), **provenance})
        write_json(args.out / "report.json", {"test_mse": mse, "test_mae": mae})
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
    split_fractions(cfg["split"])
    ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
    # every run's config is built before windowing: its own rules refuse a
    # zero lookback or horizon, or a bad --values entry, before any run trains
    configs = [model_config({**cfg, **overrides}, ds.n_channels)
               for _, _, overrides in runs]
    train_w, val_w, test_w = windows_from_dataset(ds, cfg)
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
    if args.out is not None:
        write_csv(args.out / csv_name, [*columns, "test_mse", "test_mae"], rows)
        write_json(args.out / "config.json", {
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
    if not channels:
        raise ParameterError("--channels lists no channel count")
    samples = analysis.bench_attention(channels, d=args.d, ratio=args.ratio,
                                       heads=args.heads, repeats=args.repeats,
                                       seed=args.seed)
    print("channels  mechanism      seconds     score_entries")
    for s in samples:
        print(f"{s.channels:8d}  {s.mechanism:13s}  {s.seconds:.6f}  "
              f"{s.score_entries:13d}")
    by_cell = {(s.channels, s.mechanism): s for s in samples}
    for c in channels:
        h, f = by_cell[c, "HLQN"], by_cell[c, "FlatAttention"]
        print(f"C={c}: analytic ratio {h.score_entries / f.score_entries:.6f}"
              f"  time ratio {h.seconds / f.seconds:.4f}")
    if args.out is not None:
        write_csv(args.out / "bench.csv",
                  ["channels", "d", "ratio", "heads", "mechanism", "seconds",
                   "score_entries", "blas_threads"],
                  [asdict(s) for s in samples])
        write_json(args.out / "config.json", {
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
    if not values:
        raise ParameterError("--values lists no value")
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
    made: list[Path] = []
    try:
        # every command takes --seed; a negative one is refused before any
        # command begins, whether or not it draws
        if args.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {args.seed}")
        if args.out is not None:
            prepare_run_dir(args.out, args.force, made)
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except OSError as exc:
        # every refused open, read, mkdir or write of a named file; the
        # error itself carries the path and the reason
        print(f"error: {exc.filename or args.command}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except (ParameterError, FormatError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy refuses an oversized request up front and names it, e.g.
        # "Unable to allocate 238. GiB for an array with shape ..."
        print(f"error: {args.command}: out of memory: "
              f"{str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_USAGE
    except UcastError as exc:
        # a numeric failure: NumericError (non-finite values, or a matrix
        # that is not positive definite) or ConvergenceError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    finally:
        # however the command ended, what it made and left empty goes again
        for path in made:
            try:
                path.rmdir()
            except OSError:
                break


if __name__ == "__main__":
    raise SystemExit(main())
