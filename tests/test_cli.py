"""Command-line behavior: documents, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelglue
from helpers import (
    count_solver_calls,
    edge_kernel_tree,
    json_native,
    random_glued_pair,
    random_gluing_tree,
    random_gram_kernel,
)
from kernelglue import cli, make_kernel, markov_product
from kernelglue.cli import RunConfig, _build_parser, main, run
from kernelglue.fileio import dump_document, kernel_to_document, tree_to_document


@pytest.fixture
def workdir(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(dump_document(doc) if isinstance(doc, dict) else doc)
        return str(path)

    k1 = {"labels": ["x0", "a"], "entries": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]}
    k2 = {
        "labels": ["x0", "b"],
        "entries": [[[1, 0], [0.5, 0.5]], [[0.5, -0.5], [1, 0]]],
    }
    paths = {
        "k1": write("k1.json", k1),
        "k2": write("k2.json", k2),
        "indefinite": write(
            "indefinite.json",
            {"labels": ["a", "b"], "entries": [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]},
        ),
        "notunit": write(
            "notunit.json",
            {"labels": ["x0", "a"], "entries": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ),
        "overlap": write(
            "overlap.json",
            {"labels": ["x0", "a"], "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ),
        "garbage": write("garbage.json", "{broken"),
        "tree": write(
            "tree.json",
            {
                "nodes": [
                    k1,
                    {"labels": ["a", "b"], "entries": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]},
                    {"labels": ["b", "c"], "entries": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]},
                ],
                "edges": [[0, 1, "a"], [1, 2, "b"]],
            },
        ),
        "dir": tmp_path,
    }
    return paths


def _cli_env(**extra) -> dict:
    """The environment of a CLI subprocess that imports this kernelglue."""
    return dict(os.environ, PYTHONPATH=str(Path(kernelglue.__file__).parents[1]), **extra)


def _peak_rss(argv: list[str]) -> tuple[int, int]:
    """Exit status and peak RSS in KiB of a CLI subprocess, one BLAS thread.

    It is started from a small interpreter: a child's ru_maxrss counts the
    RSS of the process that started it, and pytest's can be hundreds of MB.
    """
    spawner = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", spawner, sys.executable, "-m", "kernelglue.cli", *argv],
        capture_output=True, text=True, env=_cli_env(OPENBLAS_NUM_THREADS="1"), timeout=300,
    )
    status, maxrss_kib = map(int, done.stdout.split())
    return status, maxrss_kib


@pytest.fixture(scope="module")
def glued_400(tmp_path_factory) -> tuple[Path, int, int]:
    """A 400-label Haagerup edge tree glued by the CLI: the output path,
    and the exit status and peak RSS in KiB of ``glue-tree``."""
    tmp = tmp_path_factory.mktemp("glued_400")
    rng = np.random.default_rng(400)
    parents = [int(rng.integers(0, c)) for c in range(1, 400)]
    path = tmp / "tree.json"
    path.write_text(dump_document(tree_to_document(edge_kernel_tree(parents, 0.9 * np.exp(0.25j)))))
    out = tmp / "glued.json"
    return (out, *_peak_rss(["glue-tree", str(path), "--output", str(out)]))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRun:
    def test_glue_document_matches_library(self, workdir):
        config = RunConfig(
            "glue", [workdir["k1"], workdir["k2"]], glue_label="x0", timestamp=False
        )
        status, doc = run(config)
        assert status == 0
        k1 = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        k2 = make_kernel(["x0", "b"], [[1, 0.5 + 0.5j], [0.5 - 0.5j, 1]])
        expected = kernel_to_document(markov_product(k1, k2, "x0"))
        assert json_native(doc) == json_native(expected)

    def test_check_psd_exit_zero(self, workdir):
        status, doc = run(RunConfig("check", [workdir["k1"]], timestamp=False))
        assert status == 0
        assert doc["verdict"] is True

    def test_check_indefinite_exit_one(self, workdir):
        status, doc = run(RunConfig("check", [workdir["indefinite"]], timestamp=False))
        assert status == 1
        assert doc["verdict"] is False
        assert abs(doc["min_eigenvalue"] + 1.0) < 1e-14
        assert doc["witness"] is not None

    def test_realize_document(self, workdir):
        status, doc = run(
            RunConfig("realize", [workdir["k1"]], glue_label="x0", timestamp=False)
        )
        assert status == 0
        doc = json_native(doc)
        assert doc["mean"] == [[0.5, 0.0]]
        assert doc["covariance"] == [[[0.75, 0.0]]]

    def test_realize_defaults_to_first_label(self, workdir):
        status, doc = run(RunConfig("realize", [workdir["k1"]], timestamp=False))
        assert status == 0
        assert doc["basepoint"] == "x0"

    def test_sample_text_export(self, workdir):
        status, text = run(
            RunConfig("sample", [workdir["k1"]], glue_label="x0", samples=5, seed=11)
        )
        assert status == 0
        lines = "".join(text).strip().split("\n")
        assert lines[0] == "# seed=11 labels=x0,a"
        assert len(lines) == 6

    def test_verify_passes(self, workdir):
        config = RunConfig(
            "verify",
            [workdir["k1"], workdir["k2"]],
            glue_label="x0",
            samples=50000,
            seed=3,
            timestamp=False,
        )
        status, doc = run(config)
        assert status == 0
        assert doc["passed"] is True
        assert doc["max_abs_deviation"] <= doc["mc_tol"]

    def test_verify_fail_exits_one(self, workdir):
        config = RunConfig(
            "verify",
            [workdir["k1"], workdir["k2"]],
            glue_label="x0",
            samples=500,
            seed=3,
            mc_tol=1e-9,
            timestamp=False,
        )
        status, doc = run(config)
        assert status == 1
        assert doc["passed"] is False

    def test_glue_tree_chain(self, workdir):
        status, doc = run(RunConfig("glue-tree", [workdir["tree"]], timestamp=False))
        assert status == 0
        assert doc["labels"] == ["x0", "a", "b", "c"]
        assert json_native(doc["entries"])[0][3] == [0.125, 0.0]

    def test_timestamp_toggle(self, workdir):
        _, with_ts = run(RunConfig("check", [workdir["k1"]]))
        assert "timestamp" in with_ts
        _, without = run(RunConfig("check", [workdir["k1"]], timestamp=False))
        assert "timestamp" not in without

    def test_validation_errors_exit_two(self, workdir):
        cases = [
            RunConfig("glue", [workdir["k1"], workdir["k2"]]),  # no glue label
            RunConfig("glue", [workdir["k1"]], glue_label="x0"),  # missing input
            RunConfig("check", [workdir["k1"]], tol=-1.0),
            RunConfig("sample", [workdir["k1"]], samples=0),
            RunConfig("verify", [workdir["k1"], workdir["k2"]], glue_label="x0", seed=-1),
            RunConfig("nonsense", [workdir["k1"]]),
            # tolerances follow the library's rule on every command
            RunConfig(
                "glue", [workdir["k1"], workdir["k2"]], glue_label="x0", tol=float("inf")
            ),
            RunConfig("check", [workdir["k1"]], basepoint_tol=float("inf")),
            RunConfig("sample", [workdir["k1"]], samples=10, mc_tol=-1.0),
        ]
        for config in cases:
            status, doc = run(config)
            assert status == 2
            assert doc["error"] == "InvalidParameter"

    def test_domain_errors_exit_two(self, workdir):
        status, doc = run(
            RunConfig("glue", [workdir["notunit"], workdir["k2"]], glue_label="x0")
        )
        assert status == 2
        assert doc["error"] == "BasepointNotUnit"

        status, doc = run(
            RunConfig("glue", [workdir["k1"], workdir["overlap"]], glue_label="x0")
        )
        assert status == 2
        assert doc["error"] == "IntersectionNotSingleton"

    def test_non_finite_entries_exit_two(self, workdir):
        # Python's json reads NaN and Infinity tokens, and 1e400 overflows to inf
        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            text = (
                '{"labels": ["x0", "a"], "entries": '
                f'[[[1, 0], [{token}, 0]], [[{token}, 0], [1, 0]]]}}'
            )
            path = str(workdir["dir"] / "nonfinite.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for command in ("check", "realize"):
                status, doc = run(RunConfig(command, [path]))
                assert status == 2
                assert doc["error"] == "NonFinite"
                assert "entry ('x0', 'a')" in doc["message"]

    def test_covariance_that_does_not_factor_exits_one(self, workdir):
        # the kernel clears the full-matrix eigenvalue threshold, but its
        # covariance at x0 is -1, below even the bordered kernel's
        # threshold -1e-9 * 1e8, and cannot be factored or sampled
        band = {
            "labels": ["x0", "a"],
            "entries": [[[1, 0], [1e4, 0]], [[1e4, 0], [1e8 - 1, 0]]],
        }
        path = str(workdir["dir"] / "band.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump_document(band))
        assert run(RunConfig("check", [path]))[0] == 0
        configs = [
            RunConfig("realize", [path]),
            RunConfig("sample", [path], samples=10),
            RunConfig("verify", [path, workdir["k2"]], glue_label="x0", samples=10),
        ]
        for config in configs:
            status, doc = run(config)
            assert status == 1
            assert doc["error"] == "NotPsd"

    def test_covariance_eigensolver_failure_exits_one(self, workdir, monkeypatch):
        # the 2x2 kernel decomposes, its 1x1 covariance does not
        eigh = np.linalg.eigh

        def fail_on_covariance(a):
            if np.shape(a) == (1, 1):
                raise np.linalg.LinAlgError("no convergence")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", fail_on_covariance)
        for command in ("realize", "sample"):
            status, doc = run(RunConfig(command, [workdir["k1"]], samples=10))
            assert status == 1
            assert doc["error"] == "NumericalFailure"

    def test_check_computes_eigenvectors_only_to_fail(self, workdir, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(a, _name=name, _solver=getattr(np.linalg, name)):
                calls.append(_name)
                return _solver(a)

            monkeypatch.setattr(np.linalg, name, counting)
        assert run(RunConfig("check", [workdir["k1"]]))[0] == 0
        assert calls == ["eigvalsh"]
        calls.clear()
        status, doc = run(RunConfig("check", [workdir["indefinite"]]))
        assert status == 1 and doc["witness"] is not None
        assert calls == ["eigvalsh", "eigh"]

    def test_missing_file_and_parse_errors(self, workdir):
        status, doc = run(RunConfig("check", [str(workdir["dir"] / "absent.json")]))
        assert status == 2
        assert doc["error"] == "FileNotFound"

        status, doc = run(RunConfig("check", [workdir["garbage"]]))
        assert status == 2
        assert doc["error"] == "ParseError"


class TestMain:
    def test_glue_writes_output_file(self, workdir, capsys):
        out = str(workdir["dir"] / "product.json")
        code = main(
            [
                "glue",
                workdir["k1"],
                workdir["k2"],
                "--glue-label",
                "x0",
                "--output",
                out,
                "--no-timestamp",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = read_json(out)
        assert doc["labels"] == ["x0", "a", "b"]
        assert doc["entries"][1][2] == [0.25, 0.25]

    def test_stdout_document(self, workdir, capsys):
        code = main(["check", workdir["k1"], "--no-timestamp"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True

    def test_error_goes_to_stderr_as_single_line(self, workdir, capsys):
        code = main(["glue", workdir["notunit"], workdir["k2"], "--glue-label", "x0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("BasepointNotUnit: ")

    @pytest.mark.parametrize(
        "command, corner, message",
        [
            # |X_a|**2 sums past float64 in the Monte Carlo moments
            ("verify", 1.5e305, "the second-moment sum at ('a', 'a') overflows float64"),
            # 1e300 - 1e200 * 1e200 in the Schur complement
            ("realize", 1e300, "the Schur complement at ('a', 'a') overflows float64"),
        ],
    )
    def test_overflow_is_one_stderr_line(self, workdir, command, corner, message):
        # a fresh interpreter, so numpy warnings would reach its stderr
        alpha = 1.0 if command == "verify" else 1e200
        doc = {"labels": ["x0", "a"], "entries": [[[1, 0], [alpha, 0]], [[alpha, 0], [corner, 0]]]}
        path = workdir["dir"] / "large.json"
        path.write_text(dump_document(doc))
        inputs = [str(path), workdir["k2"]] if command == "verify" else [str(path)]
        argv = [command, *inputs, "--glue-label", "x0", "--samples", "10000"]
        env = dict(os.environ, PYTHONPATH=str(Path(kernelglue.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "kernelglue.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"NumericalFailure: {message}\n"

    @pytest.mark.parametrize("command", ["glue", "glue-tree", "verify"])
    def test_glue_overflow_is_one_stderr_line(self, workdir, command):
        # finite kernels whose cross entry K(a, x0) K(x0, b) = 1e400 overflows;
        # a fresh interpreter, so numpy warnings would reach its stderr
        docs = [{"labels": ["x0", s], "entries": [[[1, 0], [1e200, 0]], [[1e200, 0], [1, 0]]]}
                for s in "ab"]
        paths = []
        for i, doc in enumerate(docs):
            paths.append(workdir["dir"] / f"large{i}.json")
            paths[-1].write_text(dump_document(doc))
        tree = workdir["dir"] / "large-tree.json"
        tree.write_text(dump_document({"nodes": docs, "edges": [[0, 1, "x0"]]}))
        inputs = [str(tree)] if command == "glue-tree" else [str(p) for p in paths]
        argv = [command, *inputs, "--glue-label", "x0", "--samples", "10"]
        done = subprocess.run([sys.executable, "-m", "kernelglue.cli", *argv],
                              capture_output=True, text=True, env=_cli_env(), timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "NumericalFailure: the glued entry at ('a', 'b') overflows float64\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            # an --output in a directory that does not exist
            (["check", "{k1}", "--output", "{dir}/absent/c.json"], "FileNotFound"),
            # a directory read as a kernel file
            (["check", "{dir}"], "FileError"),
            # input that is not UTF-8
            (["check", "{latin1}"], "ParseError"),
            # a tree whose edge indices are booleans
            (["glue-tree", "{bool_edge}"], "NotATree"),
        ],
    )
    def test_file_errors_are_one_stderr_line(self, workdir, capsys, argv, code):
        (workdir["dir"] / "latin1.json").write_bytes(b'{"labels": ["\xe9"]}')
        tree = json.loads(Path(workdir["tree"]).read_text())
        tree["nodes"], tree["edges"] = tree["nodes"][:2], [[False, True, "a"]]
        (workdir["dir"] / "bool_edge.json").write_text(json.dumps(tree))
        paths = dict(workdir, latin1=workdir["dir"] / "latin1.json",
                     bool_edge=workdir["dir"] / "bool_edge.json")
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{code}: ")

    # the second input is not JSON, or not UTF-8
    @pytest.mark.parametrize("content", [b"{not json", b'{"labels": ["\xe9"]}'])
    @pytest.mark.parametrize("command", ["glue", "verify"])
    def test_parse_error_names_the_bad_file(self, workdir, capsys, command, content):
        bad = workdir["dir"] / "bad.json"
        bad.write_bytes(content)
        argv = [command, workdir["k1"], str(bad), "--glue-label", "x0", "--samples", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"ParseError: {bad}: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            # an integer entry too large for a float
            ('{"labels": ["a"], "entries": [[[1' + "0" * 400 + ', 0]]]}',
             "int too large to convert to float"),
            # an integer of over 4,300 digits, past Python's limit on int parsing
            ('{"labels": ["a"], "entries": [[[1' + "0" * 5000 + ', 0]]]}',
             "Exceeds the limit (4300 digits)"),
            # a value nested 100,000 deep, past the parser's recursion limit
            ('{"x": ' + "[" * 100_000 + "]" * 100_000
             + ', "labels": ["a"], "entries": [[[1.0, 0.0]]]}',
             "maximum recursion depth exceeded"),
        ],
        ids=["int-overflow", "int-digits", "nesting"],
    )
    @pytest.mark.parametrize("command", ["check", "glue-tree"])
    def test_unreadable_values_are_parse_errors(self, workdir, capsys, text, message, command):
        path = workdir["dir"] / "bad.json"
        path.write_text(text if command == "check" else '{"nodes": [' + text + '], "edges": []}')
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"ParseError: {path}: {message}")

    @pytest.mark.parametrize("seed", ["-1", "0x10000000000000000"])
    def test_bad_seed_is_rejected_before_any_file(self, workdir, capsys, seed):
        absent = str(workdir["dir"] / "absent.json")
        assert main(["verify", absent, absent, "--glue-label", "x0", "--seed", seed]) == 2
        expected = f"InvalidParameter: seed must fit in 64 unsigned bits, got {int(seed, 0)}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("command, files", [("sample", 1), ("verify", 2)])
    def test_bad_sample_count_is_rejected_before_any_file(self, workdir, capsys, command, files):
        absent = [str(workdir["dir"] / "absent.json")] * files
        assert main([command, *absent, "--glue-label", "x0", "--samples", "0"]) == 2
        expected = "InvalidParameter: sample count must be >= 1, got 0\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "{k1}", "--seed", "abc"], "argument --seed: seed must be a decimal"),
            (["sample", "{k1}", "--samples", "2.5"], "argument --samples: invalid int value"),
            (["frob", "{k1}"], "argument command: invalid choice: 'frob'"),
            (["check"], "the following arguments are required: FILE"),
        ],
        ids=["seed", "samples", "command", "no-file"],
    )
    def test_usage_errors_are_one_stderr_line(self, workdir, capsys, argv, message):
        assert main([a.format(**workdir) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"InvalidParameter: {message}")

    def test_short_entries_are_a_format_error(self, workdir, capsys):
        # two labels and one row of float pairs: the row reader finds the
        # matrix short and the reference reader names the expected shape
        path = workdir["dir"] / "short.json"
        path.write_text('{"labels": ["a", "b"], "entries": [[[1.0, 0.0], [0.5, 0.0]]]}')
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "FormatError: kernel 'entries' must be a 2x2 matrix\n"

    def test_check_indefinite_exit_code(self, workdir, capsys):
        code = main(["check", workdir["indefinite"], "--no-timestamp"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False

    def test_seed_accepts_hex(self, workdir):
        out1 = str(workdir["dir"] / "s1.txt")
        out2 = str(workdir["dir"] / "s2.txt")
        base = ["sample", workdir["k1"], "--samples", "4", "--output"]
        assert main(base + [out1, "--seed", "42"]) == 0
        assert main(base + [out2, "--seed", "0x2A"]) == 0
        with open(out1) as f1, open(out2) as f2:
            assert f1.read() == f2.read()

    def test_repeat_runs_byte_identical(self, workdir):
        out1 = str(workdir["dir"] / "v1.json")
        out2 = str(workdir["dir"] / "v2.json")
        args = [
            "verify",
            workdir["k1"],
            workdir["k2"],
            "--glue-label",
            "x0",
            "--samples",
            "20000",
            "--seed",
            "123",
            "--no-timestamp",
            "--output",
        ]
        assert main(args + [out1]) == 0
        assert main(args + [out2]) == 0
        with open(out1) as f1, open(out2) as f2:
            assert f1.read() == f2.read()

    def test_glue_round_trip_preserves_verdict_and_entries(self, workdir, tmp_path):
        # glue -> write -> read -> re-check: same verdict, identical entries
        out = str(tmp_path / "glued.json")
        assert main(
            [
                "glue",
                workdir["k1"],
                workdir["k2"],
                "--glue-label",
                "x0",
                "--output",
                out,
                "--no-timestamp",
            ]
        ) == 0
        assert main(["check", out, "--output", str(tmp_path / "cert.json")]) == 0
        cert = read_json(str(tmp_path / "cert.json"))
        assert cert["verdict"] is True
        k1 = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        k2 = make_kernel(["x0", "b"], [[1, 0.5 + 0.5j], [0.5 - 0.5j, 1]])
        direct = markov_product(k1, k2, "x0")
        reloaded = read_json(out)
        pairs = np.array(reloaded["entries"])
        restored = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.array_equal(restored, direct.entries)

    def test_real_mode_flag(self, workdir, capsys):
        code = main(
            ["sample", workdir["k1"], "--samples", "3", "--seed", "1", "--real-mode"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["sample", workdir["k2"], "--glue-label", "x0", "--samples", "3", "--real-mode"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("InvalidParameter: ")

    @pytest.mark.parametrize("entries", [[[1, 0.5j], [-0.5j, 1]], [[1, 2j], [-2j, 1]]],
                             ids=["psd", "not-psd"])
    def test_sample_checks_real_mode_before_any_solve(self, workdir, capsys, monkeypatch,
                                                      entries):
        # a complex kernel in real mode is a usage error, exit 2, also when
        # it is not PSD: the arguments are checked before the spec is factored
        path = workdir["dir"] / "complex.json"
        path.write_text(dump_document(kernel_to_document(make_kernel(["x0", "a"], entries))))
        calls = count_solver_calls(monkeypatch)
        assert main(["sample", str(path), "--real-mode", "--samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("InvalidParameter: real mode requires ")
        assert captured.err.count("\n") == 1
        assert calls == []

    def test_mc_tol_nan_is_invalid(self, workdir, capsys):
        code = main(
            ["verify", workdir["k1"], workdir["k2"], "--glue-label", "x0",
             "--samples", "1000", "--mc-tol", "nan"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("InvalidParameter: mc_tol")

    def test_mc_tol_flag_forces_failure(self, workdir, capsys):
        code = main(
            [
                "verify",
                workdir["k1"],
                workdir["k2"],
                "--glue-label",
                "x0",
                "--samples",
                "1000",
                "--mc-tol",
                "1e-12",
                "--no-timestamp",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    def test_parser_leaves_every_default_to_run_config(self):
        args = _build_parser().parse_args(["check", "k.json"])
        assert RunConfig(**vars(args)) == RunConfig("check", ["k.json"])

    @pytest.mark.parametrize(
        "argv",
        [["sample", "{k1}", "--samples", "0"], ["sample", "{k2}", "--real-mode"]],
    )
    @pytest.mark.parametrize("to_file", [True, False])
    def test_sample_errors_come_before_the_first_byte(self, workdir, capsys, argv, to_file):
        out = workdir["dir"] / "p.txt"
        args = [a.format(**workdir) for a in argv] + (["--output", str(out)] if to_file else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("InvalidParameter: ")
        assert not out.exists()

    @pytest.mark.parametrize("label", ["a,b", "c\nd", "e\rf"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_sample_rejects_labels_its_header_cannot_carry(
        self, workdir, capsys, monkeypatch, label, to_file
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(cli, "sample_blocks", no_draws)
        path = workdir["dir"] / "labels.json"
        path.write_text(dump_document(kernel_to_document(make_kernel(["x0", label], np.eye(2)))))
        out = workdir["dir"] / "p.txt"
        assert main(["sample", str(path)] + (["--output", str(out)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"InvalidParameter: the sample header cannot carry label "
                                f"{label!r}: it holds ',' or a line break\n")
        assert not out.exists()

    def test_sample_to_a_closed_pipe_exits_quietly(self, workdir):
        # 60 edge kernels glue to 61 labels, about 200 KB of JSON: more than a pipe holds
        tree = workdir["dir"] / "edges.json"
        tree.write_text(dump_document(tree_to_document(edge_kernel_tree(range(60), 0.5))))
        cases = [(["sample", workdir["k1"]], b"# seed=0 labels=x0,a\n"),
                 (["glue-tree", str(tree)], b"{\n")]
        for argv, first_line in cases:
            # the reader takes the first line and closes the pipe while the command writes
            proc = subprocess.Popen(
                [sys.executable, "-m", "kernelglue.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
            )
            assert proc.stdout.readline() == first_line
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert err == b""
            assert proc.returncode == 0

    def test_sample_memory_does_not_hold_the_export(self, tmp_path):
        rng = np.random.default_rng(8)
        kernel = random_gram_kernel(rng, tuple(f"l{i}" for i in range(8)))
        path = tmp_path / "k8.json"
        path.write_text(dump_document(kernel_to_document(kernel)))
        status, maxrss_kib = _peak_rss(
            ["sample", str(path), "--samples", "200000", "--output", str(tmp_path / "s.txt")]
        )
        assert status == 0
        # the whole 2e5 x 8 batch and its 59 MB of text took the peak to 177 MB
        assert maxrss_kib < 100 * 1024

    @pytest.mark.parametrize(
        "d, n, real_mode",
        [pytest.param(31, 16385, False, id="16385"), pytest.param(31, 17409, False, id="17409"),
         pytest.param(70, 5000, False, id="141-labels"),
         pytest.param(70, 5000, True, id="141-labels-real")],
    )
    def test_verify_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, d, n,
                                                                  real_mode):
        # 63 and 141 glued labels are 126 and 282 float columns of rows,
        # widths at which OpenBLAS orders the sums of V @ V.T, and of the
        # map of their sum, by thread count; a real band is 141 rows high,
        # a complex one 281.  LAPACK's bits are pinned at no size; eigh
        # gave these kernels the same factor under one and two threads
        rng = np.random.default_rng(63)
        paths = []
        for prefix in "ab":
            kernel = random_gram_kernel(rng, ("x0",) + tuple(f"{prefix}{i}" for i in range(d)))
            if real_mode:
                kernel = make_kernel(kernel.labels, kernel.entries.real)
            paths.append(tmp_path / f"{prefix}.json")
            paths[-1].write_text(dump_document(kernel_to_document(kernel)))
        argv = ["verify", *map(str, paths), "--glue-label", "x0", "--samples", str(n),
                "--no-timestamp"] + (["--real-mode"] if real_mode else [])
        outputs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "kernelglue.cli", *argv],
                capture_output=True, env=_cli_env(OPENBLAS_NUM_THREADS=threads), timeout=300,
            )
            assert (done.returncode, done.stderr) == (0, b"")
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_glue_tree_memory_does_not_hold_the_document(self, glued_400):
        out, status, maxrss_kib = glued_400
        assert status == 0
        assert out.stat().st_size > 11 * 10**6  # 400 labels
        # holding the whole document and its text peaked at 81 MB, the
        # [re, im] lists written a row at a time 55 MB; from the array, 38 MB;
        # with the glued array shared, not copied, by its kernel, 33.7 MiB
        assert maxrss_kib < 37 * 1024

    def test_check_memory_does_not_hold_the_pairs(self, glued_400, tmp_path):
        out, status, _ = glued_400
        assert status == 0
        status, maxrss_kib = _peak_rss(["check", str(out), "--output", str(tmp_path / "c.json")])
        assert status == 0
        # the whole text and its [re, im] lists peaked at 65 MB; a row at a
        # time, 44 MB; with the array read shared by the kernel and
        # certified by its eigenvalues alone, 37.4 MiB
        assert maxrss_kib < 41 * 1024


class TestGoldenOutputs:
    """sha256 of ``--no-timestamp`` documents, pinned so the JSON writer stays
    byte for byte ``json.dumps(doc, indent=2) + "\\n"`` on real outputs, and
    of ``sample`` text exports, pinned so streaming them changes no byte."""

    DIGESTS = {
        "glue-tree": "2c6a787786e109720c1950a4e83aca0bdd0e7598d9a2b0d56a288dc0f38cdb54",
        "glue": "3c71e5b9554cfea98e600db15e6e026c7dfec94b94b0b9026066875fd9b8b5e5",
        "check-psd": "2dac6f523011290ebc23f9360f5a3c47eab46fe60d26f486d2f57053a020cc99",
        "check-indefinite": "a49382b026dc53678378ac6e1c417a341c39e7d788842d49d9394d2f8bffedf5",
        "realize": "2b066d64a0e067d3bf3c66b0470fc63141b52f1dbe45c13086dffb26924c2d0e",
        "verify": "fab48941723dc0eaef67e979b78e1d58e12eae868ab1c150c295d7381db6fcdf",
        # text exports, 32 bands and a short one
        "sample": "83610fe8530b54baa32fdf457e956252f29668798610b9e29bddf8be19ce6979",
        "sample-real": "39c1b5a63bc47f86a91a06e016a31292f85fe4147b19d2a6995d161efb0cdd49",
    }

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("golden")
        rng = np.random.default_rng(20261018)
        k1, k2 = random_glued_pair(rng, max_dim=6)
        # signed zeros and subnormals next to an indefinite 2x2 block
        indefinite = make_kernel(
            ["a", "b", "c"],
            [[1, 2 + 5e-324j, -0.0], [2 - 5e-324j, 1, 1e-310j], [-0.0, -1e-310j, 1]],
        )
        docs = {
            "tree": tree_to_document(random_gluing_tree(rng, max_nodes=12, max_size=6)),
            "k1": kernel_to_document(k1),
            "k2": kernel_to_document(k2),
            "psd": kernel_to_document(random_gram_kernel(rng, tuple("pqrstu"))),
            "indefinite": kernel_to_document(indefinite),
            "real": kernel_to_document(random_gram_kernel(rng, tuple("vwxyz"), False)),
        }
        for name, doc in docs.items():
            (tmp / f"{name}.json").write_text(json.dumps(json_native(doc)), encoding="utf-8")
        return {name: str(tmp / f"{name}.json") for name in docs}

    @pytest.mark.parametrize(
        "case, argv, status",
        [
            ("glue-tree", ["glue-tree", "{tree}"], 0),
            ("glue", ["glue", "{k1}", "{k2}", "--glue-label", "x0"], 0),
            ("check-psd", ["check", "{psd}"], 0),
            ("check-indefinite", ["check", "{indefinite}"], 1),
            ("realize", ["realize", "{psd}", "--glue-label", "r"], 0),
            ("verify", ["verify", "{k1}", "{k2}", "--glue-label", "x0", "--samples", "40000"], 0),
        ],
    )
    def test_document_bytes(self, inputs, tmp_path, case, argv, status):
        out = tmp_path / "out.json"
        args = [a.format(**inputs) for a in argv] + ["--no-timestamp", "--output", str(out)]
        assert main(args) == status
        data = out.read_bytes()
        assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[case]

    @pytest.mark.parametrize("to_stdout", [False, True])
    @pytest.mark.parametrize(
        "case, argv",
        [
            # the basepoint in the middle of the labels
            ("sample", ["sample", "{psd}", "--glue-label", "r"]),
            ("sample-real", ["sample", "{real}", "--glue-label", "x", "--real-mode"]),
        ],
    )
    def test_sample_bytes(self, inputs, tmp_path, capsys, case, argv, to_stdout):
        args = [a.format(**inputs) for a in argv]
        args += ["--samples", "32775", "--seed", "7"]
        out = tmp_path / "out.txt"
        assert main(args if to_stdout else args + ["--output", str(out)]) == 0
        captured = capsys.readouterr()
        data = captured.out.encode() if to_stdout else out.read_bytes()
        assert captured.err == "" and (to_stdout or captured.out == "")
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[case]
