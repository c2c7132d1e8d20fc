"""Benchmark of the kernelglue command line on one seeded workload.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 30 --trace 0

The workloads, the metric names and their units are declared in
BENCHMARK.json at the root.  One process drives the CLI from the
checkout's ``src`` as subprocesses, started through spawner.py, in a
closed loop: one client, and each invocation starts only after the
previous one has exited.  The first operation of a run is a warm-up and
is not timed.  The timed figures are each child's CPU time, user plus
system, from ``os.wait4``; wall times go to the run record.  Every
output is checked (see workloads.py), and repeated same-seed
invocations must write byte-identical outputs.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics.  With ``--trace 1`` the same loop runs, then a traced pass and
a memory pass in which each command runs in a child that traces itself
(see tracing.py), and the last line carries the per-layer metrics.  A
record of the run, and the spans of a traced run, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TRACER = ROOT / "perfbench" / "tracing.py"

# BLAS fixes its thread count when numpy loads, so set it before any
# import of numpy, here and in every child.  One thread: an idle
# OpenBLAS worker spins and adds CPU time that is not the program's
# work.  With two threads on the reference machine, a ``sample`` took
# 0.23 s more CPU time, an interpreter start-up 0.15 s more, and the
# spread of ``sample`` CPU times grew by half.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Interpreter start-ups timed in a burst at the start of a run, after one
# untimed one.  One more follows every operation: on a shared 2-core VM
# the CPU speed swings in phases of seconds, and start-ups spread over
# the whole run average over them where a burst lands in one.
#
# The metrics are CPU times because on such a VM the wall time also
# counts the time the host runs other guests: in 50 back-to-back
# ``sample`` runs on the reference machine, medians of six spread
# (IQR/median) 0.11 in wall time and 0.05 in CPU time.
SETUP_BURST = 4


class Spawner:
    """The small process that starts every command (see spawner.py)."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def run(self, argv: list[str], log: Path) -> tuple[float, float, int, int]:
        """Run one command to completion: wall seconds, CPU seconds, exit
        status and peak RSS in KiB."""
        self.process.stdin.write(json.dumps({"argv": argv, "stderr": str(log)}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with status {self.process.wait()}")
        reply = json.loads(line)
        return reply["wall"], reply["cpu"], reply["status"], reply["maxrss_kib"]

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


class Run:
    """Counts, timings and reference outputs of one benchmark run."""

    def __init__(self, workload, workdir: Path, spawner: Spawner):
        self.workload = workload
        self.workdir = workdir
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: dict[str, list[float]] = {c.name: [] for c in workload.commands}
        self.cpus: dict[str, list[float]] = {c.name: [] for c in workload.commands}
        self.op_walls: list[float] = []
        self.op_cpus: list[float] = []
        self.peak_rss_kib = 0
        self.reference: dict[str, tuple[str, bytes]] = {}

    def judge(self, command, status: int) -> str | None:
        """Check a command's output, in full the first time it passes and
        by sha256 against that first output afterwards."""
        data = command.output.read_bytes() if command.output.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        if command.name not in self.reference:
            error = self.check(command.name, status, data)
            if error is None:
                self.reference[command.name] = (digest, data)
            return error
        if status != 0:
            return f"exit status {status}, expected 0"
        if digest != self.reference[command.name][0]:
            return "output differs from the first run with the same seed"
        return None

    def check(self, name: str, status: int, data: bytes) -> str | None:
        """The workload's check, with a malformed output as one more failure."""
        try:
            return self.workload.check(name, status, data)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    def fail(self, command, error: str) -> None:
        self.failed += 1
        self.failures.append(f"{command.name}: {error}")

    def start_up(self) -> tuple[float, float]:
        """Wall and CPU time of an interpreter that only imports kernelglue.cli."""
        argv = [sys.executable, "-c", "import kernelglue.cli"]
        wall, cpu, status, rss = self.spawner.run(argv, self.workdir / "setup.stderr")
        if status != 0:
            raise SystemExit(f"perfbench: importing kernelglue.cli failed with exit status {status}")
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return wall, cpu

    def operation(self, timed: bool) -> None:
        """Run the workload's commands once, as subprocesses."""
        self.attempted += 1
        walls, cpus = {}, {}
        for command in self.workload.commands:
            command.output.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "kernelglue.cli", *command.argv()]
            wall, cpu, status, rss = self.spawner.run(argv, self.workdir / f"{command.name}.stderr")
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            error = self.judge(command, status)
            if error:
                self.fail(command, error)
                return
            walls[command.name] = wall
            cpus[command.name] = cpu
        if timed:
            for name in walls:
                self.walls[name].append(walls[name])
                self.cpus[name].append(cpus[name])
            self.op_walls.append(sum(walls.values()))
            self.op_cpus.append(sum(cpus.values()))

    def traced_operation(self, track_memory: bool) -> list[dict]:
        """Run the commands once, each in a child that traces itself."""
        self.attempted += 1
        passes = []
        for op, command in enumerate(self.workload.commands):
            command.output.unlink(missing_ok=True)
            spans = self.workdir / f"{command.name}.spans.json"
            argv = [sys.executable, str(TRACER), "--op", str(op), "--memory", str(int(track_memory)),
                    "--out", str(spans), *command.argv()]
            wall, _, status, _ = self.spawner.run(argv, self.workdir / f"{command.name}.stderr")
            error = self.judge(command, status)
            if error:
                self.fail(command, f"traced: {error}")
                return []
            passes.append(dict(json.loads(spans.read_text()), command=command.name, wall=wall))
        return passes

    def negative_controls(self) -> dict[str, str | None]:
        """The check's verdict on each corruption of a good output: the
        error it reports, or None if it let the corruption pass."""
        verdicts = {}
        for description, name, corrupt in self.workload.controls:
            good = self.reference.get(name)
            verdicts[description] = None if good is None else self.check(name, 0, corrupt(good[1]))
        return verdicts


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def result_line(run: Run, values: dict[str, float], units: dict[str, str], correct: bool) -> str:
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    return json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kernelglue" / "cli.py").is_file():
        print(f"perfbench: no kernelglue source under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    spawner = Spawner()
    try:
        return measure(args, Run(workload, workdir, spawner), end_to_end, per_layer)
    finally:
        spawner.close()
        shutil.rmtree(workdir)


def measure(args, run: Run, end_to_end: dict[str, str], per_layer: dict[str, str]) -> int:
    workload = run.workload
    run.start_up()
    setup = [run.start_up() for _ in range(SETUP_BURST)]
    run.operation(timed=False)
    setup.append(run.start_up())
    controls = run.negative_controls()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        run.operation(timed=True)
        setup.append(run.start_up())
    if not run.op_cpus:
        print(f"perfbench: every operation failed: {run.failures[:3]}", file=sys.stderr)
        return 1
    setup_s = statistics.median(cpu for _, cpu in setup)
    setup_wall_s = statistics.median(wall for wall, _ in setup)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": workload.sizes,
        "setup_s": {"median": setup_s, "wall_median": setup_wall_s, "samples": len(setup)},
        "cpu_s": {"median": statistics.median(run.op_cpus), "samples": len(run.op_cpus)},
        "wall_s": {"median": statistics.median(run.op_walls), "samples": len(run.op_walls)},
        "commands": {
            name: {"cpu_median": statistics.median(run.cpus[name]), "cpu": run.cpus[name],
                   "wall_median": statistics.median(walls), "wall": walls, "samples": len(walls)}
            for name, walls in run.walls.items()
        },
        "peak_rss_mb": run.peak_rss_kib / 1024,
        "sha256": {name: ref[0] for name, ref in run.reference.items()},
        "negative_controls": controls,
    }
    values = {"cpu_s": record["cpu_s"]["median"], "peak_rss_mb": record["peak_rss_mb"], "setup_s": setup_s}
    units = end_to_end
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        timed = run.traced_operation(track_memory=False)
        memory = run.traced_operation(track_memory=True)
        if not (timed and memory):
            print(f"perfbench: a traced command failed: {run.failures[-1]}", file=sys.stderr)
            return 1
        untraced_s = {name: c["wall_median"] for name, c in record["commands"].items()}
        values = tracing.layer_metrics(timed, memory, untraced_s, setup_wall_s)
        units = per_layer
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"timed": timed, "memory": memory}))
    record.update(attempted=run.attempted, failed=run.failed,
                  error_rate=run.failed / run.attempted, failures=run.failures)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(json.dumps({k: record[k] for k in ("workload", "seed", "environment", "inputs", "sha256",
                                            "negative_controls", "error_rate", "failures")}))
    print(", ".join(f"{n}: median CPU {c['cpu_median']:.4f} s, wall {c['wall_median']:.4f} s of {c['samples']}"
                    for n, c in record["commands"].items()))
    print(result_line(run, values, units, run.failed == 0 and None not in controls.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
