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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import baselines as bl
from . import analysis
from .data import (TimeSeriesDataset, WindowBatch, check_split_ratios,
                   csv_channels, load_csv, sliding_windows,
                   split_chronological, zscore_apply, zscore_fit)
from .errors import (DataError, FormatError, ParameterError, ShapeError,
                     UcastError, finite, integral, text)
from .model import (Forecaster, UCastConfig, VARIANTS, build_variant,
                    load_checkpoint, save_checkpoint)
from .training import TrainConfig, evaluate, train
from .varlab import (DEFAULT_TARGET_RADIUS, VarProcessSpec, bayes_risk_ci_cd,
                     bayes_risk_sequence, check_var_args, make_var_spec,
                     monte_carlo_risks, simulate)

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
# itself, and the split stays text, as config.json records it
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
    """Load a CSV path or generate `var:<structure>:<channels>` data; return
    the dataset and its provenance record (source and content hash)."""
    if data_arg.startswith("var:"):
        structure, channels, gen_steps = _var_source(data_arg, steps)
        try:
            spec = make_var_spec(structure, channels, seed=seed)
            series = simulate(spec, gen_steps, bl.SERIES_BURN_IN)
        except MemoryError as exc:
            raise ParameterError(
                f"--data {data_arg}: {channels} channels over {gen_steps} "
                "steps do not fit in memory; use fewer channels or steps"
            ) from exc
        ds = TimeSeriesDataset(series, [f"ch{i}" for i in range(channels)])
        return ds, {"source": data_arg, "steps": gen_steps,
                    "input_sha1": blob_sha1(io.BytesIO(ds.values.tobytes()))}
    path = Path(data_arg)
    ds = load_csv(path)
    with path.open("rb") as fh:
        return ds, {"source": str(path), "input_sha1": blob_sha1(fh)}


def _var_source(data_arg: str, steps: int) -> tuple[str, int, int]:
    """A `var:<structure>:<channels>[:steps]` spec as (structure, channels,
    steps), refused unless make_var_spec and the burn-in accept it."""
    parts = data_arg.split(":")
    if len(parts) not in (3, 4):
        raise ParameterError(f"--data var spec must be var:<structure>:"
                             f"<channels>[:steps], got '{data_arg}'")
    try:
        channels = int(parts[2])
        steps = int(parts[3]) if len(parts) == 4 else steps
    except ValueError as exc:
        raise ParameterError(f"bad --data numbers in '{data_arg}'") from exc
    if steps <= bl.SERIES_BURN_IN:
        # simulate discards the first SERIES_BURN_IN steps as burn-in
        raise ParameterError(
            f"--data {data_arg}: {steps} steps, need at least "
            f"{bl.SERIES_BURN_IN + 1} to outlast the "
            f"{bl.SERIES_BURN_IN}-step burn-in")
    check_var_args(parts[1], channels, DEFAULT_TARGET_RADIUS)
    return parts[1], channels, steps


def split_fractions(text: str) -> tuple[float, float, float]:
    """--split as (train, val, test) fractions some series can be cut by."""
    try:
        fractions = tuple(float(f) for f in text.split(","))
    except ValueError:
        fractions = ()
    if len(fractions) != 3:
        raise ParameterError(f"--split needs three fractions, got {text!r}")
    check_split_ratios(fractions)
    return fractions


def windows_from_dataset(ds: TimeSeriesDataset, cfg: dict
                         ) -> tuple[WindowBatch, WindowBatch | None, WindowBatch]:
    """Chronological split, train-statistics z-score, per-segment windows."""
    segments = split_chronological(ds.values, split_fractions(cfg["split"]),
                                   cfg["lookback"] + cfg["horizon"])
    mean, scale = zscore_fit(segments[0])
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


# -- run plan --------------------------------------------------------------

SWEEP_RANGES = {"alpha": "0,0.001,0.01,0.1,1", "ratio": "2,4,8,16",
                "layers": "1,2,3"}


@dataclass(frozen=True)
class RunPlan:
    """A train, eval, ablate or sweep run, checked before any series is
    built: `settings` is its config.json less the data's provenance, and
    `models` one model config per run (eval: the checkpoint's)."""
    settings: dict
    models: tuple[UCastConfig, ...]
    train: TrainConfig | None
    split: tuple[float, float, float]
    snapshot_epochs: frozenset[int]
    snapshot_final: bool
    params: dict | None             # eval: the checkpoint's parameters

    def series(self) -> tuple[TimeSeriesDataset, dict]:
        """The series and its provenance, as resolve_data builds them."""
        cfg = self.settings
        ds, provenance = resolve_data(cfg["data"], cfg["steps"], cfg["seed"])
        if ds.n_channels != self.models[0].channels:
            raise DataError(f"{cfg['data']}: changed while it was read")
        return ds, provenance


def plan_run(args) -> RunPlan:
    """Resolve a train, eval, ablate or sweep command into its plan, running
    every check that needs no series: a var: source gives its channel count
    from its spec, and a CSV from its first rows."""
    settings, overrides, params = {"command": args.command}, [{}], None
    if args.command == "eval":
        ckpt = Path(args.checkpoint)
        params, checkpointed = load_checkpoint(ckpt)
        settings.update(checkpoint=str(ckpt), lookback=checkpointed.lookback,
                        horizon=checkpointed.horizon)
    elif args.command == "ablate":
        overrides = [{"variant": variant} for variant in VARIANTS]
    elif args.command == "sweep":
        values_text = (SWEEP_RANGES[args.param] if args.values is None
                       else args.values)
        cast = float if args.param == "alpha" else int
        try:
            values = [cast(v) for v in values_text.split(",") if v.strip()]
        except ValueError as exc:
            raise ParameterError(f"bad --values list '{values_text}'") from exc
        if not values:
            raise ParameterError("--values lists no value")
        settings.update(param=args.param, values=values)
        overrides = [{args.param: value} for value in values]
    settings = {**_resolve(args, TABLE_DEFAULTS if args.command in
                           ("train", "eval") else DESK_DEFAULTS), **settings}
    # its own rules refuse a max_epochs below 1 before the epochs are read
    tcfg = None if args.command == "eval" else train_config(settings)
    tokens = [token.strip() for token in
              settings.get("snapshot_epochs", "").split(",") if token.strip()]
    snap_epochs = set()
    for token in tokens:
        if token != "final":
            try:
                epoch = int(token)
            except ValueError as exc:
                raise ParameterError(f"bad snapshot epoch '{token}'") from exc
            if not 0 <= epoch <= tcfg.max_epochs:
                raise ParameterError(
                    f"snapshot epoch {epoch} outside 0..{tcfg.max_epochs}: no "
                    f"run with max_epochs={tcfg.max_epochs} reaches it")
            snap_epochs.add(epoch)
    split = split_fractions(settings["split"])
    data = settings["data"]
    channels = (_var_source(data, settings["steps"])[1]
                if data.startswith("var:") else csv_channels(data))
    if args.command != "eval":
        models = tuple(model_config({**settings, **override}, channels)
                       for override in overrides)
    elif channels != checkpointed.channels:
        raise ShapeError(f"checkpoint expects {checkpointed.channels} "
                         f"channels, dataset has {channels}")
    else:
        models = (checkpointed,)
    return RunPlan(settings, models, tcfg, split, frozenset(snap_epochs),
                   "final" in tokens, params)


# -- argument plumbing -----------------------------------------------------


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
        p.add_argument("--config", help="JSON config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="ucast", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="CI-vs-CD synthetic table")
    p.add_argument("--settings", choices=("default", "full"),
                   help="preset cell grid; full adds the C=2000 cell")
    p.add_argument("--structure", help="custom single cell: structure name")
    p.add_argument("--channels", type=int,
                   help="custom single cell: channel count")
    p.add_argument("--pooled", type=int, default=8,
                   help="sequences pooled for a custom cell")
    p.add_argument("--assert-paper", action="store_true",
                   help="fail (exit 2) when the published orderings break")

    p = sub.add_parser("risk", help="closed-form Bayes risks of a VAR spec")
    p.add_argument("--spec-file", help="VarProcessSpec JSON file")
    p.add_argument("--structure")
    p.add_argument("--channels", type=int)
    p.add_argument("--target-radius", type=float,
                   default=DEFAULT_TARGET_RADIUS)
    p.add_argument("--target", type=int, default=0,
                   help="target channel index")
    p.add_argument("--mc", type=int, default=0,
                   help="Monte-Carlo cross-check sample count")

    p = sub.add_parser("train", help="fit a forecaster variant")
    _add_settings(p, "train")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    _add_settings(p, "eval")

    p = sub.add_parser("ablate", help="train every variant on one dataset")
    _add_settings(p, "ablate")
    p.add_argument("--assert-paper", action="store_true",
                   help="fail (exit 2) unless full beats each ablation "
                        "within 5%% slack")

    p = sub.add_parser("bench", help="hierarchical vs flat attention cost")
    p.add_argument("--channels", default="512,1024,2048",
                   help="comma list of channel counts")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--ratio", type=int, default=UCastConfig.ratio)
    p.add_argument("--heads", type=int, default=UCastConfig.heads)
    p.add_argument("--repeats", type=int, default=analysis.BENCH_REPEATS)

    p = sub.add_parser("sweep", help="grid over alpha, ratio, or layers")
    _add_settings(p, "sweep")
    p.add_argument("--param", choices=("alpha", "ratio", "layers"),
                   required=True)
    p.add_argument("--values", help="comma list; default: the published range")
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="allow writing into an existing run directory")
    return parser


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
        settings = (bl.FULL_SETTINGS if args.settings == "full"
                    else bl.QUICK_SETTINGS)
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
    return EXIT_ASSERT_FAILED if args.assert_paper and violations else EXIT_OK


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
    return make_var_spec(args.structure, args.channels, seed=args.seed,
                         target_radius=args.target_radius)


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


def cmd_train(args) -> int:
    plan = plan_run(args)
    ds, provenance = plan.series()
    train_w, val_w, test_w = windows_from_dataset(ds, plan.settings)
    model = Forecaster(plan.models[0])
    if args.out is not None and args.force:
        # every check has passed: each file an earlier run wrote goes, so
        # none is left beside records that do not describe this run
        for name in ("config.json", "report.json", "train_log.jsonl",
                     "timing.json", "checkpoint", "snapshots"):
            if (args.out / name).is_dir():
                shutil.rmtree(args.out / name)
            else:
                (args.out / name).unlink(missing_ok=True)
    index_entries: list[dict] = []
    probe = train_w.inputs[0]
    callback = None
    if (plan.snapshot_epochs or plan.snapshot_final) and args.out is not None:
        def callback(epoch: int, m) -> None:
            if epoch in plan.snapshot_epochs:
                index_entries.append(analysis.export_snapshots(
                    args.out / "snapshots", m.trace(probe), epoch))

    try:
        report = train(model, train_w, val_w, test_w, plan.train,
                       epoch_callback=callback)
    except BaseException:
        # a refusal, such as a first batch that does not fit in memory,
        # writes no record, so no snapshot it exported is left undescribed;
        # only the files its index entries list go, and snapshots/ if empty
        for entry in index_entries:
            for name in entry["files"]:
                (args.out / "snapshots" / name).unlink(missing_ok=True)
        if index_entries and not any((args.out / "snapshots").iterdir()):
            (args.out / "snapshots").rmdir()
        raise
    # the model now holds the best validated epoch's parameters, which the
    # callback has exported already if that epoch was listed
    if (plan.snapshot_final and args.out is not None and not report.diverged
            and report.best_epoch not in plan.snapshot_epochs):
        index_entries.append(analysis.export_snapshots(
            args.out / "snapshots", model.trace(probe), report.best_epoch))
    summary = report.summary()
    if args.out is not None:
        write_json(args.out / "config.json", {**plan.settings, **provenance})
        (args.out / "train_log.jsonl").write_text("".join(
            json.dumps(asdict(r), sort_keys=True) + "\n" for r in report.epochs))
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
    plan = plan_run(args)
    ds, provenance = plan.series()
    ucfg = plan.models[0]
    # the test segment alone is windowed; train gives the z-score statistics
    train_seg, _, test = split_chronological(ds.values, plan.split,
                                             ucfg.lookback + ucfg.horizon)
    mean, scale = zscore_fit(train_seg)
    mse, mae = evaluate(Forecaster(ucfg, plan.params), sliding_windows(
        zscore_apply(test, mean, scale), ucfg.lookback, ucfg.horizon))
    print(f"test_mse: {mse}\ntest_mae: {mae}")
    if args.out is not None:
        write_json(args.out / "config.json", {**plan.settings, **provenance})
        write_json(args.out / "report.json", {"test_mse": mse, "test_mae": mae})
    return EXIT_OK


def _train_grid(args, plan: RunPlan, csv_name: str,
                runs: list[tuple[str, dict]]) -> list[dict] | None:
    """Train one forecaster per model config of the plan on one dataset.
    A run is (label, row): label names it on stdout, and row begins its CSV
    line, which test_mse and test_mae complete.  Returns the rows, or None
    once a run diverges."""
    ds, provenance = plan.series()
    train_w, val_w, test_w = windows_from_dataset(ds, plan.settings)
    rows = []
    for (label, row), ucfg in zip(runs, plan.models):
        report = train(Forecaster(ucfg), train_w, val_w, test_w, plan.train)
        if report.diverged:
            print(f"{label}: diverged ({report.divergence_note})")
            return None
        rows.append({**row, "test_mse": report.test_mse,
                     "test_mae": report.test_mae})
        print(f"{label:16s}  test_mse {report.test_mse:.6f}  "
              f"test_mae {report.test_mae:.6f}")
    if args.out is not None:
        write_csv(args.out / csv_name, list(rows[0]), rows)
        write_json(args.out / "config.json", {**plan.settings, **provenance})
    return rows


def cmd_ablate(args) -> int:
    rows = _train_grid(args, plan_run(args), "ablation.csv", [
        (variant, {"variant": variant}) for variant in VARIANTS])
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
    return EXIT_ASSERT_FAILED if args.assert_paper and violations else EXIT_OK


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
    plan = plan_run(args)
    rows = _train_grid(args, plan, "sweep.csv", [
        (f"{args.param}={value}", {"param": args.param, "value": value})
        for value in plan.settings["values"]])
    return EXIT_DIVERGED if rows is None else EXIT_OK


_COMMANDS = {"synth": cmd_synth, "risk": cmd_risk, "train": cmd_train,
             "eval": cmd_eval, "ablate": cmd_ablate, "bench": cmd_bench,
             "sweep": cmd_sweep}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    made: list[Path] = []
    try:
        # every command takes --seed; a negative one is refused before any
        # command begins, whether or not it draws
        if args.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {args.seed}")
        if args.out is not None:
            if not args.out:
                # Path("") would name the working directory
                raise ParameterError("--out must name a directory, got ''")
            args.out = Path(args.out)
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
