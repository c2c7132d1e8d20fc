"""Per-layer tracing of one kernelglue CLI command, inside its process.

    PYTHONPATH=src python3 perfbench/tracing.py --op 0 --memory 0 \
        --out spans.json check kernel.json --no-timestamp

runs the command through ``cli.main`` and writes its spans and counts to
``--out``; the exit status is the command's.

The layers are the kernelglue modules cli, fileio, kernels, realization
and trees (errors does no work).  Every public function one module
imports from another is wrapped in place, so each call across a layer
boundary records a span: name, start, end, parent span and op id.  The
stages that ``verify_realization`` runs one after another inside
realization get spans too, so that what remains of it (the variance
estimate and the comparison) is its self time.  No library file
changes.  Spans stay in memory until the command ends.

A span's self time is its duration minus that of its child spans.  The
memory pass (``--memory 1``) runs under tracemalloc and records, for
each span, its peak minus the traced level when it started; tracemalloc
slows allocation-heavy code severalfold, so no time comes from it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict, dataclass

LAYERS = ("cli", "fileio", "kernels", "realization", "trees")

# Calls within one module are not layer boundaries, except these stages.
STAGES = {
    "realization": ("realize_process", "glue_realizations", "sample_glued", "estimate_second_moments"),
}

# The covariance factor is computed on its first access, inside sampling;
# touching it here bills it to the realize_process span that defines it.
AFTER = {"realization.realize_process": lambda spec: spec.factor}


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    peak_bytes: int | None = None


class Tracer:
    """Spans and counts of one command, kept in memory until it ends."""

    def __init__(self, op: int, track_memory: bool):
        self.op = op
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._memory: list[list[int]] = []  # [level at start, highest peak seen]

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, self._open[-1] if self._open else None, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        if self.track_memory:
            self._enter_memory()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name in AFTER:
                AFTER[name](result)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if self.track_memory:
                span.peak_bytes = self._exit_memory()
        self._count(name, args, result)
        return result

    def _enter_memory(self) -> None:
        level, peak = tracemalloc.get_traced_memory()
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], peak)
        tracemalloc.reset_peak()
        self._memory.append([level, level])

    def _exit_memory(self) -> int:
        level, high = self._memory.pop()
        high = max(high, tracemalloc.get_traced_memory()[1])
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], high)
        return high - level

    def _count(self, name: str, args: tuple, result) -> None:
        self.counts[name.partition(".")[0] + ".calls"] += 1
        if name == "realization.sample_glued":
            self.counts["realization.samples_drawn"] += result.n
        elif name == "trees.glue_tree":
            self.counts["trees.labels_out"] += len(result.labels)
        elif name in ("fileio.load_kernel", "fileio.load_tree"):
            self.counts["fileio.bytes_read"] += os.path.getsize(args[0])
        elif name == "fileio.dump_document":
            self.counts["fileio.bytes_written"] += len(result.encode())


def _boundaries():
    for home in LAYERS:
        module = importlib.import_module(f"kernelglue.{home}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            owner = value.__module__.rpartition(".")[2]
            if owner in LAYERS and (owner != home or attr in STAGES.get(home, ())):
                yield module, attr, value, f"{owner}.{attr}"


def run_pass(argv: list[str], op: int, track_memory: bool) -> tuple[Tracer, int]:
    """Run one command through ``cli.main`` in this process, traced.

    Its spans hang under a root ``cli.main`` span and carry ``op``.
    Returns the tracer and the command's exit status.
    """
    tracer = Tracer(op, track_memory)
    for module, attr, fn, name in list(_boundaries()):
        setattr(module, attr, functools.partial(tracer.call, name, fn))
    if track_memory:
        tracemalloc.start()
    status = tracer.call("cli.main", importlib.import_module("kernelglue.cli").main, argv)
    return tracer, status


SELF_TIME = {
    "realization.sample_glued_s": ("realization.sample_glued",),
    "realization.estimate_second_moments_s": ("realization.estimate_second_moments",),
    "realization.verify_rest_s": ("realization.verify_realization",),
    "realization.realize_process_s": ("realization.realize_process",),
    "kernels.markov_product_s": ("kernels.markov_product",),
    "kernels.psd_check_eigen_s": ("kernels.psd_check_eigen",),
    "trees.glue_tree_s": ("trees.glue_tree",),
    "fileio.encode_s": (
        "fileio.kernel_to_document",
        "fileio.report_to_document",
        "fileio.certificate_to_document",
        "fileio.realization_to_document",
        "fileio.dump_document",
    ),
    "fileio.load_s": ("fileio.load_kernel", "fileio.load_tree"),
}

PEAK = {
    "realization.sample_glued_peak_mb": "realization.sample_glued",
    "realization.estimate_second_moments_peak_mb": "realization.estimate_second_moments",
    "trees.glue_tree_peak_mb": "trees.glue_tree",
}

COUNTS = (
    "realization.samples_drawn",
    "trees.labels_out",
    "fileio.bytes_read",
    "fileio.bytes_written",
    *(f"{layer}.calls" for layer in LAYERS),
)


def layer_metrics(timed: list[dict], memory: list[dict], untraced_s: dict[str, float],
                  setup_wall_s: float) -> dict[str, float]:
    """Per-layer values from one timed and one memory pass of an operation.

    Each pass holds, per command, the ``spans`` and ``counts`` its traced
    child wrote and the ``wall`` time of that child.  ``cli.rest_s`` is
    that wall less ``setup_wall_s``, the median wall time of an interpreter
    start-up, and the layer spans, all from one process:
    taken from the untraced median instead, it would carry the 20% swings
    between single runs of one command on a shared 2-core machine.
    ``trace.overhead_s`` compares the traced wall with ``untraced_s``, the
    median wall time of each command with tracing off.
    """
    values = dict.fromkeys([*SELF_TIME, "cli.rest_s", "trace.overhead_s"], 0.0)
    counts: Counter[str] = Counter()
    for command in timed:
        spans = command["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, below in zip(spans, covered):
            for metric, names in SELF_TIME.items():
                if span["name"] in names:
                    values[metric] += span["end"] - span["start"] - below
        (root,) = [i for i, s in enumerate(spans) if s["parent"] is None]
        values["cli.rest_s"] += command["wall"] - setup_wall_s - covered[root]
        values["trace.overhead_s"] += command["wall"] - untraced_s[command["command"]]
        counts.update(command["counts"])
    for metric, name in PEAK.items():
        peaks = [s["peak_bytes"] for c in memory for s in c["spans"] if s["name"] == name]
        values[metric] = max(peaks, default=0) / 2**20
    for metric in COUNTS:
        values[metric] = counts[metric]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one kernelglue CLI command, traced.")
    parser.add_argument("--op", type=int, required=True, help="op id recorded on every span")
    parser.add_argument("--memory", type=int, choices=(0, 1), required=True,
                        help="1 for the tracemalloc pass")
    parser.add_argument("--out", required=True, help="file to write spans and counts to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the CLI command and its arguments")
    args = parser.parse_args()
    tracer, status = run_pass(args.argv, args.op, bool(args.memory))
    origin = tracer.spans[0].start
    spans = [dict(asdict(s), start=s.start - origin, end=s.end - origin) for s in tracer.spans]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "counts": tracer.counts}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
