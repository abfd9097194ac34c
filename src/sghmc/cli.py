"""Command-line entry point.

    sghmc <kind> --config PATH [--seed N] [--out DIR] [--replicas N] [--strict]

Kinds: audit, constants, sample, couple, rate-study, gibbs-check,
risk-bound, validate. Flags override the corresponding config fields.
Exit codes: 0 success, 2 validation failure, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigurationError, DivergenceError, SghmcError
from .harness import KINDS, ExperimentConfig, load_config, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sghmc",
        description="Langevin sampler experiments with certified constants",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=False, help="JSON config (or manifest) path")
        sp.add_argument("--seed", type=int, default=None, help="override the sampler seed")
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
            over["sampler"] = dataclasses.replace(cfg.sampler, seed=args.seed)
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
