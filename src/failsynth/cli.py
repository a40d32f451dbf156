"""Command-line front end for the failure-synthesis pipeline.

Stages: generate -> perturb -> calibrate -> verify -> label -> recover /
evaluate -> report. Exit codes: 0 ok, 2 schema error, 3 transport error,
4 validation error or a path that is missing or not a file. Any other
exception is a bug: it exits 1 and prints its traceback.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import pipeline
from .config import load_config
from .errors import SchemaError, TransportError, ValidationError
from .metrics import read_report, render_report
from .rollout_io import dumps_json


def _config(args) -> "pipeline.PipelineConfig":
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.endpoint:
        overrides["semantic_endpoint"] = args.endpoint
    return load_config(args.config, overrides)


def _stage(p: argparse.ArgumentParser, call, show=dumps_json) -> None:
    """Give a stage command the common flags, and run it as
    show(call(config, args))."""
    p.add_argument("--config", help="JSON config file (all keys optional)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--endpoint", help="override the semantic verifier endpoint "
                                      "(mock | pipe:<cmd> | http(s)://<url>)")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(call=lambda args: call(_config(args), args), show=show)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="failsynth",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="script successful demonstrations")
    p.add_argument("-n", type=int, default=10, help="number of demonstrations")
    p.add_argument("-o", "--out", required=True, help="output rollout JSONL")
    p.add_argument("--manifest", help="manifest JSON path")
    _stage(p, lambda cfg, a: pipeline.cmd_generate(cfg, a.n, a.out, a.manifest))

    p = sub.add_parser("perturb", help="inject failures into demonstrations")
    p.add_argument("-i", "--input", required=True, help="success rollout JSONL")
    p.add_argument("-o", "--out", required=True, help="candidate rollout JSONL")
    p.add_argument("--manifest", help="manifest JSON path")
    _stage(p, lambda cfg, a: pipeline.cmd_perturb(cfg, a.input, a.out, a.manifest))

    p = sub.add_parser("calibrate", help="calibrate verifier thresholds on demos")
    p.add_argument("-i", "--input", required=True, help="success rollout JSONL")
    p.add_argument("-o", "--out", required=True, help="calibration JSON")
    _stage(p, lambda cfg, a: pipeline.cmd_calibrate(cfg, a.input, a.out))

    p = sub.add_parser("verify", help="run the four-verifier retention gate")
    p.add_argument("-i", "--input", required=True, help="candidate rollout JSONL")
    p.add_argument("--calibration", required=True, help="calibration JSON")
    p.add_argument("-o", "--out", required=True, help="retained rollout JSONL")
    p.add_argument("--manifest", help="manifest JSON path")
    _stage(p, lambda cfg, a: pipeline.cmd_verify(cfg, a.input, a.calibration, a.out,
                                                 a.manifest))

    p = sub.add_parser("label", help="attach deterministic paired fix labels")
    p.add_argument("-i", "--input", required=True, help="retained rollout JSONL")
    p.add_argument("-o", "--out", required=True, help="labeled rollout JSONL")
    p.add_argument("--manifest", help="manifest JSON path")
    _stage(p, lambda cfg, a: pipeline.cmd_label(cfg, a.input, a.out, a.manifest))

    p = sub.add_parser("recover", help="replay corrections and score recovery")
    p.add_argument("-i", "--input", required=True, help="labeled rollout JSONL")
    p.add_argument("-o", "--out", required=True, help="per-case result JSONL")
    p.add_argument("--predictions", help="optional prediction JSONL "
                                         "({id, pred_text} per line)")
    p.add_argument("--manifest", help="manifest JSON path")
    _stage(p, lambda cfg, a: pipeline.cmd_recover(cfg, a.input, a.out, a.predictions,
                                                  a.manifest))

    p = sub.add_parser("evaluate", help="score predicted labels against GT")
    p.add_argument("-i", "--input", required=True, help="labeled rollout JSONL")
    p.add_argument("--predictions", required=True, help="prediction JSONL")
    p.add_argument("-o", "--out", help="report JSON path")
    _stage(p, lambda cfg, a: pipeline.cmd_evaluate(cfg, a.input, a.predictions, a.out),
           show=render_report)

    p = sub.add_parser("report", help="render an evaluation report as text")
    p.add_argument("-i", "--input", required=True, help="report JSON path")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(call=lambda a: read_report(a.input), show=render_report)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    print(args.show(args.call(args)))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 4
    except (IsADirectoryError, NotADirectoryError) as exc:
        print(f"bad path: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
