"""Command-line interface.

Every subcommand is a pure function of the config file (plus its own flags)
to its output files. Logs go to stderr only, so stdout and the artifact
files stay pipe-safe. Exit codes: 0 success, 1 validation error (bad flags,
bad config, missing files, contract violations), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from recfuse import harness
from recfuse.data import write_fused, write_matrix, write_splits
from recfuse.fusion import FoldFuser
from recfuse.harness import ExperimentConfig

log = logging.getLogger("recfuse")


class _UsageError(Exception):
    """Argument or config problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="recfuse",
        description="Weighted rank fusion and ensemble selection for "
                    "top-N recommenders.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--config", required=True,
                       help="experiment config JSON file")
        p.add_argument("--out", default=None,
                       help="override the config's output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="ignored: the pipeline runs on one thread; "
                            "still accepted so existing scripts keep working")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="debug logging")
        return p

    add("split", "write the fold assignment CSV per dataset")
    add("fit", "fit the built-in models and print a summary")
    add("predict", "write the built-in models' prediction matrix per dataset")
    add("weights", "write validation-NDCG fusion weights per dataset and n")

    fuse = add("fuse", "write fused top-n lists for a member subset")
    fuse.add_argument("--dataset", required=True, help="dataset name")
    fuse.add_argument("--members", required=True,
                      help="model ids joined with '+'")
    fuse.add_argument("--k", type=int, required=True,
                      help="per-model truncation depth")
    fuse.add_argument("--n", type=int, required=True, help="output length")

    add("select", "run ensemble selection and write the trace CSV")
    add("sweep", "write the k-sweep aggregate CSV per dataset and n")
    add("report", "write the per-model score tables per dataset and n")
    add("run", "full pipeline: all artifacts plus manifest")
    return parser


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    if not path.exists():
        raise _UsageError(f"config file not found: {path}")
    try:
        config = ExperimentConfig.from_file(path)
    except ValueError as exc:
        raise _UsageError(f"invalid config {path}: {exc}") from exc
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    return config


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _per_n_command(prefix):
    """A command that writes, for every dataset and n, the file `run`
    writes under `prefix`, through the same harness.CELL_ARTIFACTS entry."""
    def command(config, args):
        out = _outdir(config)
        for ds in config.datasets:
            bundle = harness.prepare_dataset(config, ds)
            for n in config.n_values:
                path = out / harness.cell_artifact(prefix, ds.name, n)
                harness.CELL_ARTIFACTS[prefix](path, bundle, n)
                log.info("wrote %s", path)
        return 0
    return command


def _cmd_split(config, args):
    out = _outdir(config)
    for ds in config.datasets:
        path = out / f"splits_{ds.name}.csv"
        write_splits(harness.split_dataset(config, ds), path)
        log.info("wrote %s", path)
    return 0


def _cmd_fit(config, args):
    roster = [m for m in config.models if m.kind is not None]
    for ds in config.datasets:
        for split in harness.split_dataset(config, ds):
            for model in harness.fit_roster(split, roster):
                # A line per model as it is fitted; none is kept.
                print(f"{ds.name} fold={split.fold_index} "
                      f"model={model.model_id} users={len(model.users)} "
                      f"items={len(model.items)}")
                del model
    return 0


def _cmd_predict(config, args):
    out = _outdir(config)
    for ds in config.datasets:
        path = out / f"matrix_{ds.name}.csv"
        write_matrix(harness.prepare_dataset(config, ds).raw, path)
        log.info("wrote %s", path)
    return 0


def _cmd_fuse(config, args):
    if args.n < 1:
        raise _UsageError("n must be >= 1")
    if args.n not in config.n_values:
        raise _UsageError(f"n={args.n} is not in the configured n_values")
    if args.k < args.n:
        raise _UsageError("k must be ≥ N")
    members = sorted(set(args.members.split("+")))
    roster = {m.model_id for m in config.models}
    missing = [m for m in members if m not in roster]
    if missing:
        raise _UsageError(f"unknown member model(s): {', '.join(missing)}")
    ds = next((d for d in config.datasets if d.name == args.dataset), None)
    if ds is None:
        raise _UsageError(f"unknown dataset {args.dataset!r}")
    if args.k > config.max_k():
        log.warning("--k %d is above the largest scored k %d, so it fuses "
                    "the same lists as --k %d", args.k, config.max_k(),
                    config.max_k())
    out = _outdir(config)
    bundle = harness.prepare_dataset(config, ds)
    fused = {s.fold_index: FoldFuser(bundle.norm, s.fold_index, args.k).top_n(
        members, bundle.weights[args.n], args.n) for s in bundle.splits}
    path = out / f"fused_{ds.name}_{args.n}.csv"
    write_fused(fused, bundle.norm.user_index, bundle.norm.item_index, path)
    log.info("wrote %s", path)
    return 0


def _cmd_run(config, args):
    result = harness.run_experiment(config)
    for name in result.artifacts:
        log.info("wrote %s", result.output_dir / name)
    if result.failed_cells:
        for cell in result.failed_cells:
            log.error("failed cell: %s", cell)
        return 2
    return 0


_COMMANDS = {
    "split": _cmd_split,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "weights": _per_n_command("weights"),
    "fuse": _cmd_fuse,
    "select": _per_n_command("trace"),
    "sweep": _per_n_command("sweep"),
    "report": _per_n_command("tables"),
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("recfuse: a command is required "
                              "(see recfuse --help)")
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")
        config = _load_config(args)
        return _COMMANDS[args.command](config, args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # Contract violations surfaced by the pipeline are user-fixable.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
