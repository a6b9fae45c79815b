"""Command-line interface.

Subcommands cover the whole pipeline: generate, tabularize, train,
explain, evaluate, cv. Any deliberate failure prints a single
``error: ...`` line to stderr and exits 1; argparse keeps its usual
exit code 2 for unknown flags and bad values.

``--config FILE`` reads ``key = value`` lines whose keys are the long
flags, required ones included. Each value is parsed as its flag would
be, so a bad one is argparse's usage error; unknown keys, mistyped
booleans, empty values and a flag set twice, under one spelling of its
key or both (``max-rounds`` and ``max_rounds``), are errors naming the
file. Numbers, in flags and config values alike, are plain ASCII
(``dataio.plain_number``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import dataio, ebm, harness, render, synthgen
from .errors import ConfigError, GaborboostError, ParseError
from .features import tabularize
from .physfit import fit_rows


def _number(kind: type):
    """An argparse type reading ``kind`` by the CSV cells' rule, named after
    ``kind`` so that a bad value is argparse's "invalid int value" error."""
    def parse(text: str) -> int | float:
        return dataio.plain_number(text, kind)
    parse.__name__ = kind.__name__
    return parse


def _add_train_flags(sp: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, with the field's default."""
    for f in fields(ebm.TrainConfig):
        flag, help_text = "--" + f.name.replace("_", "-"), f.metadata.get("help")
        if isinstance(f.default, bool):
            sp.add_argument(flag, action="store_true", default=f.default, help=help_text)
        else:
            sp.add_argument(flag, type=_number(type(f.default)), default=f.default, help=help_text)


def _train_config(args: argparse.Namespace) -> ebm.TrainConfig:
    return ebm.TrainConfig(**{f.name: getattr(args, f.name) for f in fields(ebm.TrainConfig)})


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="gaborboost",
        description="Gabor-transform tabular features and explainable boosted models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("generate", help="render a synthetic labeled dataset")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--width", type=_number(int), default=128)
    sp.add_argument("--height", type=_number(int), default=64)
    sp.add_argument("--longitudinal", type=_number(int), default=400)
    sp.add_argument("--partial", type=_number(int), default=150)
    sp.add_argument("--vortex", type=_number(int), default=50)
    sp.add_argument("--noise", type=_number(float), default=0.02)
    sp.add_argument("--seed", type=_number(int), default=7)
    sp.set_defaults(handler=_cmd_generate)

    sp = subs.add_parser("tabularize", help="extract a feature table from images")
    sp.add_argument("--data", required=True, help="directory with labels.csv")
    sp.add_argument("--out", required=True, help="feature table CSV to write")
    sp.add_argument("--with-physics", action="store_true",
                    help="also fit the dip profile model to each image as extracted, "
                         "after --merge and --flip")
    sp.add_argument("--merge", action="append", default=[], metavar="OLD=NEW",
                    help="relabel a class before extraction (repeatable)")
    sp.add_argument("--flip", action="append", default=[], metavar="CLASS",
                    help="mirror images of a class horizontally (repeatable)")
    sp.set_defaults(handler=_cmd_tabularize)

    sp = subs.add_parser("train", help="train a one-vs-rest model on a table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--features", choices=sorted(harness.FEATURE_SETS), default="GF+EGF")
    sp.add_argument("--out", required=True, help="model JSON to write")
    _add_train_flags(sp)
    sp.set_defaults(handler=_cmd_train)

    sp = subs.add_parser("explain", help="dump global explanations of a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True, help="explanation JSON to write")
    sp.add_argument("--svg-dir", help="also render SVG charts here")
    sp.set_defaults(handler=_cmd_explain)

    sp = subs.add_parser("evaluate", help="score a trained model on a table")
    sp.add_argument("--model", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--out", help="metrics JSON to write")
    sp.set_defaults(handler=_cmd_evaluate)

    sp = subs.add_parser("cv", help="repeated stratified k-fold cross-validation")
    sp.add_argument("--table", required=True)
    sp.add_argument("--features", choices=sorted(harness.FEATURE_SETS), default="GF+EGF")
    sp.add_argument("--repeats", type=_number(int), default=5)
    sp.add_argument("--k", type=_number(int), default=6)
    sp.add_argument("--out", help="report JSON to write")
    _add_train_flags(sp)
    sp.set_defaults(handler=_cmd_cv)

    for sp in subs.choices.values():
        sp.add_argument("--config", help="key=value file with option defaults")
    return parser, subs.choices


_CONFIG_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                 **dict.fromkeys(("0", "false", "no", "off"), False)}


def _config_argv(argv: list[str], by_name: dict[str, argparse.ArgumentParser]) -> list[str]:
    """argv with the --config file's ``key = value`` pairs spliced in as flags.

    A flag is set once per file, under either spelling of its key; the
    whole file is checked for that before any key is matched to a flag.
    The flags go right after the subcommand name, so explicit flags, which
    come later, still win; a repeatable flag (``--merge``, ``--flip``) adds
    to the config's list instead. Each value is then parsed as its flag.
    """
    if not argv or argv[0] not in by_name:  # the top-level parser has no options but --help
        return argv
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv[1:])[0].config
    if not path:
        return argv
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from None
    first = {}  # dest -> the (key, line, value) that sets it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        if not raw:
            raise ConfigError(f"{path}: line {lineno}: empty value for {key!r}")
        dest = key.replace("-", "_")
        seen, at, _ = first.setdefault(dest, (key, lineno, raw))
        if at != lineno:
            if seen == key:
                raise ConfigError(f"{path}: {key!r} set twice, at lines {at} and {lineno}")
            raise ConfigError(f"{path}: {seen!r} and {key!r} both set --{dest.replace('_', '-')}")
    actions = {a.dest: a for a in by_name[argv[0]]._actions}
    flags = []
    for dest, (key, _, raw) in first.items():
        if dest not in actions or dest in ("help", "config"):
            raise ConfigError(f"{path}: unknown config key {key!r}")
        action = actions[dest]
        flag = action.option_strings[0]
        if action.nargs == 0:
            word = raw.lower()
            if word not in _CONFIG_BOOLS:
                raise ConfigError(f"{path}: {key!r} must be true or false, got {raw!r}")
            flags += [flag] if _CONFIG_BOOLS[word] else []
        elif isinstance(action.default, list):
            flags += [f"{flag}={v}" for v in raw.split()]
        else:
            flags.append(f"{flag}={raw}")
    return argv[:1] + flags + argv[1:]


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
            if not old or not new:
                raise ConfigError(f"--merge expects non-empty OLD and NEW, got {item!r}")
            merge_map[old] = new
        ds = dataio.reduce_classes(ds, merge_map, set(args.flip))
    rows = tabularize(ds)
    note = ""
    if args.with_physics:
        rows, failed = fit_rows(rows, ds.images)
        note = f" ({failed} fits failed)"
    dataio.write_feature_table(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}{note}")


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
    rows = dataio.read_feature_table(args.table)
    names = model.models[0].feature_names
    matrix, labels, dropped = harness.matrix_from_names(rows, names)
    predicted, _ = ebm.predict_ovr(model, matrix)
    summary = harness.score(model.classes, labels, predicted)
    summary.update(classes=list(model.classes), dropped_rows=dropped)
    print(f"accuracy {summary['accuracy']:.1f}% on {len(labels)} rows"
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    try:
        args = parser.parse_args(_config_argv(argv, by_name))
        args.handler(args)
    except (GaborboostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
