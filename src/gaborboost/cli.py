"""Command-line interface.

Subcommands cover the whole pipeline: generate, tabularize, fit-physics,
train, explain, evaluate, cv. Any deliberate failure prints a single
``error: ...`` line to stderr and exits 1; argparse keeps its usual
exit code 2 for unknown flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataio, ebm, harness, render, synthgen
from .errors import ConfigError, GaborboostError
from .features import tabularize
from .physfit import fit_image
from .util import parse_config_file


def _add_train_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--learning-rate", type=float, default=0.05)
    sp.add_argument("--max-rounds", type=int, default=1000)
    sp.add_argument("--patience", type=int, default=50)
    sp.add_argument("--val-fraction", type=float, default=0.15)
    sp.add_argument("--max-pairs", type=int, default=10)
    sp.add_argument("--max-bins", type=int, default=64)
    sp.add_argument("--balance", action="store_true",
                    help="inverse-frequency sample weights in the loss")


def _train_config(args: argparse.Namespace) -> ebm.TrainConfig:
    return ebm.TrainConfig(
        learning_rate=args.learning_rate,
        max_rounds=args.max_rounds,
        patience=args.patience,
        val_fraction=args.val_fraction,
        max_pairs=args.max_pairs,
        max_bins=args.max_bins,
        seed=args.seed,
        balance=args.balance,
    )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="gaborboost",
        description="Gabor-transform tabular features and explainable boosted models",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    sp = subs.add_parser("generate", help="render a synthetic labeled dataset")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--width", type=int, default=128)
    sp.add_argument("--height", type=int, default=64)
    sp.add_argument("--longitudinal", type=int, default=400)
    sp.add_argument("--partial", type=int, default=150)
    sp.add_argument("--vortex", type=int, default=50)
    sp.add_argument("--noise", type=float, default=0.02)
    sp.add_argument("--seed", type=int, default=7)
    by_name["generate"] = sp

    sp = subs.add_parser("tabularize", help="extract a feature table from images")
    sp.add_argument("--data", required=True, help="directory with labels.csv")
    sp.add_argument("--out", required=True, help="feature table CSV to write")
    sp.add_argument("--mode", choices=("two_step", "full_grid"), default="two_step")
    sp.add_argument("--with-physics", action="store_true",
                    help="also fit the dip profile model per image")
    sp.add_argument("--merge", action="append", default=[], metavar="OLD=NEW",
                    help="relabel a class before extraction (repeatable)")
    sp.add_argument("--flip", action="append", default=[], metavar="CLASS",
                    help="mirror images of a class horizontally (repeatable)")
    by_name["tabularize"] = sp

    sp = subs.add_parser("fit-physics", help="add profile-fit columns to a table")
    sp.add_argument("--data", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--out", required=True)
    by_name["fit-physics"] = sp

    sp = subs.add_parser("train", help="train a one-vs-rest model on a table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--features", choices=sorted(harness.FEATURE_SETS), default="GF+EGF")
    sp.add_argument("--out", required=True, help="model JSON to write")
    sp.add_argument("--seed", type=int, default=0)
    _add_train_flags(sp)
    by_name["train"] = sp

    sp = subs.add_parser("explain", help="dump global explanations of a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True, help="explanation JSON to write")
    sp.add_argument("--svg-dir", help="also render SVG charts here")
    by_name["explain"] = sp

    sp = subs.add_parser("evaluate", help="score a trained model on a table")
    sp.add_argument("--model", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--out", help="metrics JSON to write")
    by_name["evaluate"] = sp

    sp = subs.add_parser("cv", help="repeated stratified k-fold cross-validation")
    sp.add_argument("--table", required=True)
    sp.add_argument("--features", choices=sorted(harness.FEATURE_SETS), default="GF+EGF")
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--k", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="report JSON to write")
    _add_train_flags(sp)
    by_name["cv"] = sp

    for sp in by_name.values():
        sp.add_argument("--config", help="key=value file with option defaults")
    return parser, by_name


def _apply_config_defaults(
    argv: list[str],
    parser: argparse.ArgumentParser,
    by_name: dict[str, argparse.ArgumentParser],
) -> None:
    """Load --config key=value pairs as subcommand defaults.

    Runs before the real parse so explicit flags still win.
    """
    if "--config" not in argv:
        return
    probe, _ = parser.parse_known_args(argv)
    if not getattr(probe, "config", None):
        return
    values = parse_config_file(probe.config)
    sp = by_name[probe.command]
    actions = {a.dest: a for a in sp._actions}
    defaults = {}
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest in ("help", "config"):
            raise ConfigError(f"{probe.config}: unknown config key {key!r}")
        action = actions[dest]
        if isinstance(action, argparse._StoreTrueAction):
            defaults[dest] = raw.strip().lower() in ("1", "true", "yes", "on")
        elif isinstance(action, argparse._AppendAction):
            defaults[dest] = [v for v in raw.split() if v]
        elif action.type is not None:
            try:
                defaults[dest] = action.type(raw)
            except ValueError as exc:
                raise ConfigError(f"{probe.config}: bad value for {key!r}: {raw!r}") from exc
        else:
            defaults[dest] = raw
        if action.choices and defaults[dest] not in action.choices:
            raise ConfigError(
                f"{probe.config}: {key!r} must be one of {sorted(action.choices)}"
            )
    sp.set_defaults(**defaults)


def _cmd_generate(args: argparse.Namespace) -> None:
    spec = synthgen.SynthSpec(
        width=args.width,
        height=args.height,
        n_longitudinal=args.longitudinal,
        n_partial=args.partial,
        n_vortex=args.vortex,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    ds, truths = synthgen.generate(spec)
    synthgen.write_dataset(ds, truths, args.out)
    print(f"wrote {len(ds.images)} images to {args.out}")


def _cmd_tabularize(args: argparse.Namespace) -> None:
    ds = dataio.load_dataset(args.data)
    if args.merge or args.flip:
        merge_map = {label: label for label in ds.classes}
        for item in args.merge:
            if "=" not in item:
                raise ConfigError(f"--merge expects OLD=NEW, got {item!r}")
            old, new = item.split("=", 1)
            merge_map[old] = new
        ds = dataio.reduce_classes(ds, merge_map, set(args.flip))
    fitter = (lambda img: fit_image(img).params) if args.with_physics else None
    rows = tabularize(ds, mode=args.mode, profile_fitter=fitter)
    dataio.write_feature_table(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")


def _cmd_fit_physics(args: argparse.Namespace) -> None:
    rows = dataio.read_feature_table(args.table)
    ds = dataio.load_dataset(args.data)
    index = {name: i for i, name in enumerate(ds.names)}
    import math as _math
    from dataclasses import replace

    failed = 0
    out_rows = []
    for row in rows:
        if row.id not in index:
            raise ConfigError(f"{args.table}: image {row.id!r} not found in {args.data}")
        try:
            amp, center, width, skew, offset = fit_image(ds.images[index[row.id]]).params
        except GaborboostError:
            amp = center = width = skew = offset = _math.nan
            failed += 1
        out_rows.append(
            replace(row, pf_amp=amp, pf_center=center, pf_width=width,
                    pf_skew=skew, pf_offset=offset)
        )
    dataio.write_feature_table(out_rows, args.out)
    print(f"wrote {len(out_rows)} rows to {args.out} ({failed} fits failed)")


def _cmd_train(args: argparse.Namespace) -> None:
    config = _train_config(args)
    rows = dataio.read_feature_table(args.table)
    ens, dropped = harness.train_final(rows, args.features, config)
    ebm.save_model(ens, args.out)
    note = f" ({dropped} rows dropped)" if dropped else ""
    print(f"trained {len(ens.classes)}-class model on {len(rows) - dropped} rows{note}; "
          f"saved to {args.out}")


def _cmd_explain(args: argparse.Namespace) -> None:
    model = ebm.load_model(args.model)
    bundle = ebm.explain_global(model)
    Path(args.out).write_text(json.dumps(bundle, sort_keys=True, indent=2) + "\n")
    message = f"wrote explanation to {args.out}"
    if args.svg_dir:
        written = render.write_explanation_svgs(bundle, args.svg_dir)
        message += f" and {len(written)} SVG files to {args.svg_dir}"
    print(message)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    model = ebm.load_model(args.model)
    if not isinstance(model, ebm.OvrEnsemble):
        raise ConfigError(f"{args.model}: evaluate needs a one-vs-rest model")
    rows = dataio.read_feature_table(args.table)
    names = model.models[0].feature_names
    matrix, labels, dropped = harness.matrix_from_names(rows, names)
    predicted, _ = ebm.predict_ovr(model, matrix)
    classes = model.classes
    unknown = sorted(set(labels) - set(classes))
    if unknown:
        raise ConfigError(f"{args.table}: labels {unknown} not covered by the model")
    confusion = [[0] * len(classes) for _ in classes]
    pos = {c: i for i, c in enumerate(classes)}
    for true, pred in zip(labels, predicted):
        confusion[pos[true]][pos[pred]] += 1
    import numpy as np

    accuracy, precision, recall, flags = harness.metrics(np.asarray(confusion))
    summary = {
        "accuracy": accuracy,
        "precision": {c: precision[i] for i, c in enumerate(classes)},
        "recall": {c: recall[i] for i, c in enumerate(classes)},
        "confusion": confusion,
        "classes": list(classes),
        "dropped_rows": dropped,
        "zero_division": flags,
    }
    print(f"accuracy {accuracy:.1f}% on {len(labels)} rows"
          + (f" ({dropped} dropped)" if dropped else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _cmd_cv(args: argparse.Namespace) -> None:
    config = _train_config(args)
    rows = dataio.read_feature_table(args.table)
    report = harness.run_cv(
        rows, args.features, repeats=args.repeats, k=args.k,
        seed=args.seed, config=config,
    )
    print(harness.format_report_table(report))
    if args.out:
        harness.write_report(report, args.out)


_HANDLERS = {
    "generate": _cmd_generate,
    "tabularize": _cmd_tabularize,
    "fit-physics": _cmd_fit_physics,
    "train": _cmd_train,
    "explain": _cmd_explain,
    "evaluate": _cmd_evaluate,
    "cv": _cmd_cv,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    try:
        _apply_config_defaults(argv, parser, by_name)
        args = parser.parse_args(argv)
        _HANDLERS[args.command](args)
    except GaborboostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
