"""Command-line entry point.

    sghmc <kind> --config PATH [--seed N] [--out DIR] [--replicas N] [--strict]

``sghmc --help`` lists the kinds. Flags override the corresponding config fields.
Exit codes: 0 success, 2 validation failure, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .errors import ConfigurationError, DivergenceError, SghmcError
from .harness import _KINDS, ExperimentConfig, load_config, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


@functools.cache  # one parser per process: main may run many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sghmc",
        description="Langevin sampler experiments with certified constants",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, run in _KINDS.items():
        sp = sub.add_parser(kind, help=run.__doc__)
        sp.add_argument("--config", required=False, help="JSON config (or manifest) path")
        sp.add_argument("--seed", type=int, default=None, help="override every sampler's seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--replicas", type=int, default=None, help="override replica count")
        sp.add_argument("--strict", action="store_true", help="escalate findings to errors")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config, kind=args.kind)
        else:
            cfg = ExperimentConfig.from_dict({"kind": args.kind})
        over = {}
        if args.seed is not None:
            over.update({name: dataclasses.replace(s, seed=args.seed)
                         for name in ("sampler", "sampler_b") if (s := getattr(cfg, name))})
        if args.out is not None:
            over["out"] = args.out
        if args.replicas is not None:
            over["replicas"] = args.replicas
        if args.strict:
            over["strict"] = True
        cfg = dataclasses.replace(cfg, **over)  # re-validates the overridden config
        manifest = run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except SghmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    summary = {
        "kind": cfg.kind,
        "out": cfg.out,
        "outputs": manifest.outputs,
        "findings": [f for f in manifest.findings if f["level"] != "info"],
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
