"""Command-line surface binding the library into reproducible runs.

Each invocation runs one command against input files and emits one
machine-readable document (JSON for kernels, certificates, realizations
and reports; a tabular text export for sample batches).  Exit status 0
means pass/valid, 1 a mathematical failure (not PSD, verification fail),
2 an input or validation error.  Errors print a single ``Code: message``
line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import InvalidParameterError, KernelGlueError
from .fileio import (
    certificate_to_document,
    document_text,
    kernel_to_document,
    load_kernel,
    load_tree,
    realization_to_document,
    report_to_document,
    sample_text,
)
from .kernels import (
    DEFAULT_BASEPOINT_TOL,
    DEFAULT_PSD_TOL,
    _check_tolerance,
    markov_product,
    psd_check_eigen,
)
from .realization import realize_process, sample_blocks, verify_realization
from .trees import glue_tree

COMMANDS = ("glue", "check", "realize", "sample", "verify", "glue-tree")

# Commands that read two kernel files; the rest read one file.
_TWO_INPUT = {"glue", "verify"}
_SAMPLING = {"sample", "verify"}


@dataclass
class RunConfig:
    """One CLI invocation: command, input paths, and knobs."""

    command: str
    inputs: list[str] = field(default_factory=list)
    output: str | None = None
    tol: float = DEFAULT_PSD_TOL
    basepoint_tol: float = DEFAULT_BASEPOINT_TOL
    seed: int = 0
    samples: int = 10**6
    mc_tol: float | None = None
    glue_label: str | None = None
    real_mode: bool = False
    timestamp: bool = True


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise InvalidParameterError(f"unknown command {config.command!r}")
    expected = 2 if config.command in _TWO_INPUT else 1
    if len(config.inputs) != expected:
        raise InvalidParameterError(
            f"{config.command} takes {expected} input file(s), got {len(config.inputs)}"
        )
    _check_tolerance("tol", config.tol)
    _check_tolerance("basepoint_tol", config.basepoint_tol)
    if config.mc_tol is not None:
        _check_tolerance("mc_tol", config.mc_tol)
    if config.command in _SAMPLING and config.samples < 1:
        raise InvalidParameterError(
            f"sample count must be >= 1, got {config.samples}"
        )
    if not 0 <= config.seed < 2**64:
        raise InvalidParameterError(f"seed must fit in 64 unsigned bits, got {config.seed}")


def _require_glue_label(config: RunConfig) -> str:
    if not config.glue_label:
        raise InvalidParameterError(f"{config.command} requires --glue-label")
    return config.glue_label


def _execute(config: RunConfig) -> tuple[int, dict | Iterable[str]]:
    _validate(config)
    cmd = config.command

    if cmd == "glue":
        k1, k2 = map(load_kernel, config.inputs)
        product = markov_product(
            k1, k2, _require_glue_label(config), basepoint_tol=config.basepoint_tol
        )
        return 0, kernel_to_document(product)

    if cmd == "check":
        cert = psd_check_eigen(load_kernel(config.inputs[0]), config.tol)
        return (0 if cert.verdict else 1), certificate_to_document(cert)

    if cmd in ("realize", "sample"):
        kernel = load_kernel(config.inputs[0])
        # The basepoint defaults to the kernel's first label.
        spec = realize_process(
            kernel,
            config.glue_label or kernel.labels[0],
            config.tol,
            basepoint_tol=config.basepoint_tol,
        )
        if cmd == "realize":
            return 0, realization_to_document(spec)
        blocks = sample_blocks(spec, config.samples, config.seed, real_mode=config.real_mode)
        return 0, sample_text(spec.full_labels, config.seed, blocks)

    if cmd == "verify":
        k1, k2 = map(load_kernel, config.inputs)
        report = verify_realization(
            k1,
            k2,
            _require_glue_label(config),
            config.samples,
            config.seed,
            config.mc_tol,
            tol=config.tol,
            basepoint_tol=config.basepoint_tol,
            real_mode=config.real_mode,
        )
        return (0 if report.passed else 1), report_to_document(report)

    # glue-tree
    tree = load_tree(config.inputs[0])
    kernel = glue_tree(tree, basepoint_tol=config.basepoint_tol)
    return 0, kernel_to_document(kernel)


def _failure(exc: Exception) -> tuple[int, dict]:
    """The exit status and error document of a library, file or parse error."""
    if isinstance(exc, KernelGlueError):
        return exc.exit_status, {"error": exc.code, "message": str(exc)}
    if isinstance(exc, OSError):
        code = "FileNotFound" if isinstance(exc, FileNotFoundError) else "FileError"
        return 2, {"error": code, "message": str(exc)}
    # invalid JSON or undecodable text; fileio.load_document names the file
    return 2, {"error": "ParseError", "message": f"{exc.filename}: {exc}"}


def run(config: RunConfig) -> tuple[int, dict | Iterable[str]]:
    """Execute one command; map every failure to (exit status, error doc).
    ``sample`` returns its checked text export as lazily drawn pieces."""
    try:
        status, document = _execute(config)
    except (KernelGlueError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _failure(exc)
    if isinstance(document, dict) and config.timestamp:
        document = dict(document)
        document["timestamp"] = datetime.now(timezone.utc).isoformat()
    return status, document


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be a decimal or 0x-hex integer, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    # options not given stay out of the namespace: RunConfig holds the defaults
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("inputs", nargs="+", metavar="FILE", help="input document(s)")
    common.add_argument("--tol", type=float,
                        help="relative PSD tolerance (default 1e-9)")
    common.add_argument("--basepoint-tol", type=float,
                        help="allowed |K(x0,x0) - 1| (default 1e-12)")
    common.add_argument("--seed", type=_parse_seed,
                        help="64-bit unsigned seed, decimal or 0x-hex (default 0)")
    common.add_argument("--samples", type=int,
                        help="Monte Carlo sample count (default 1000000)")
    common.add_argument("--mc-tol", type=float,
                        help="override the Monte Carlo pass threshold")
    common.add_argument("--glue-label",
                        help="shared label x0 (glue/verify) or basepoint (realize/sample)")
    common.add_argument("--output",
                        help="write the document here instead of stdout")
    common.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                        help="omit the timestamp field for byte-identical reruns")
    common.add_argument("--real-mode", action="store_true",
                        help="sample real Gaussians (real-valued kernels only)")

    parser = argparse.ArgumentParser(
        prog="kernelglue",
        description="Glue positive definite kernels at a shared point and verify "
                    "positivity by certification and by sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "glue": "Markov product of two kernel files at --glue-label",
        "check": "PSD certificate of one kernel file",
        "realize": "mean/covariance realization of one kernel at a basepoint",
        "sample": "draw realization samples as a tabular export",
        "verify": "sample the glued process and compare moments to the product",
        "glue-tree": "glue a tree of kernels into one kernel",
    }
    for name in COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit status.  A document is
    written a row at a time, ``sample`` text a block at a time as it is
    drawn; a reader that closes stdout early ends the output quietly."""
    config = RunConfig(**vars(_build_parser().parse_args(argv)))
    status, document = run(config)
    if not (isinstance(document, dict) and "error" in document):
        pieces = document_text(document) if isinstance(document, dict) else document
        if not config.output:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except BrokenPipeError:
                # the rest would go nowhere; devnull keeps the exit flush from failing too
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return status
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
            return status
        except OSError as exc:
            status, document = _failure(exc)
    print(f"{document['error']}: {document['message']}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
