"""Command-line interface.

Subcommands: ``validate``, ``run``, ``presets list``, ``presets show``.
Exit codes: 0 ok, 2 validation error, 3 capacity error, 4 horizon guard
triggered.  Progress goes to stderr; data artifacts are files only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import parse_config, validate_config
from .errors import CapacityError, SchemaError
from .presets import preset_config, preset_description, preset_names
from .runner import run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_GUARD = 4


def _status(msg: str):
    print(msg, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="srrw-lab",
        description="Step-reinforced random walk experiments on finite groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a config without running it")
    v.add_argument("--config", required=True)

    r = sub.add_parser("run", help="run an experiment config")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int, default=None, help="override the config seed")
    r.add_argument("--threads", type=int, default=None, help="worker thread count")

    pr = sub.add_parser("presets", help="list or show built-in desk-scale presets")
    psub = pr.add_subparsers(dest="preset_command", required=True)
    psub.add_parser("list", help="list preset names")
    ps = psub.add_parser("show", help="print a preset config as JSON")
    ps.add_argument("name")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "presets":
        if args.preset_command == "list":
            for name in preset_names():
                print(f"{name}: {preset_description(name)}")
            return EXIT_OK
        if args.name not in preset_names():
            _status(f"unknown preset {args.name!r}")
            return EXIT_VALIDATION
        print(json.dumps(preset_config(args.name), indent=2, sort_keys=True))
        return EXIT_OK

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _status(f"cannot read config: {exc}")
        return EXIT_VALIDATION

    if args.command == "validate":
        problems = validate_config(doc)
        if problems:
            for prob in problems:
                _status(f"invalid: {prob}")
            return EXIT_VALIDATION
        _status("config ok")
        return EXIT_OK

    # overrides are validated with the rest; parse_config reports a non-object doc
    if isinstance(doc, dict):
        overrides = {"seed": args.seed, "threads": args.threads}
        doc.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = parse_config(doc)
        result = run(cfg)
    except CapacityError as exc:
        _status(f"capacity error: {exc}")
        return EXIT_CAPACITY
    except SchemaError as exc:
        for prob in exc.problems:
            _status(f"invalid: {prob}")
        return EXIT_VALIDATION
    _status(f"wrote {len(result.outputs)} artifact(s) to {cfg.output_dir}")
    if result.guard_triggered:
        _status("horizon guard triggered: increase the grid horizon")
        return EXIT_GUARD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
