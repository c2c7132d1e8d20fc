"""Seeded inputs and independent output checks for the benchmark workloads.

Each workload writes its input files from a seed, names the CLI commands
one operation runs, and checks their outputs.  The checks re-derive the
expected result with plain numpy from the generated inputs and never
import kernelglue, so a defect in the library cannot vouch for itself.
Each workload also lists negative controls: corruptions of a good output
that its check must reject, so that no check passes vacuously.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Entries are products of values of modulus at most 1, and the library
# and the checks multiply them in different orders, so they agree to a
# few roundings; a corrupted entry is off by far more.
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the command name and its arguments."""

    name: str
    args: tuple[str, ...]
    output: Path

    def argv(self) -> list[str]:
        return [self.name, *self.args, "--no-timestamp", "--output", str(self.output)]


def random_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense complex PSD matrix with an all-ones diagonal, exactly Hermitian.

    It is the correlation matrix of 2n complex Gaussian vectors, whose
    smallest eigenvalue stays well clear of zero, so no certificate sits
    near its threshold.
    """
    v = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
    gram = v.conj().T @ v
    d = np.sqrt(gram.real.diagonal())
    upper = np.triu(gram / np.outer(d, d), 1)
    m = upper + upper.conj().T
    np.fill_diagonal(m, 1.0)
    return m


def kernel_document(labels: list[str], m: np.ndarray) -> dict:
    return {
        "labels": list(labels),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def parse_kernel(doc: dict) -> tuple[list[str], np.ndarray]:
    pairs = np.asarray(doc["entries"], dtype=np.float64).reshape(len(doc["labels"]), -1, 2)
    return list(doc["labels"]), pairs[..., 0] + 1j * pairs[..., 1]


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def largest_mismatch(actual: np.ndarray, expected: np.ndarray, labels: list[str]) -> str | None:
    dev = np.abs(actual - expected)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if dev[i, j] <= ENTRY_TOL:
        return None
    return (
        f"entry ({labels[i]}, {labels[j]}) is {actual[i, j]:.17g}, "
        f"expected {expected[i, j]:.17g}"
    )


def exit_error(status: int) -> str | None:
    return None if status == 0 else f"exit status {status}, expected 0"


class VerifyDense:
    """verify on two dense 32-label kernels glued at x0, n = 10^6."""

    name = "verify-dense"
    labels = 32
    samples = 10**6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.k1 = (["x0"] + [f"a{i}" for i in range(self.labels - 1)], random_kernel(rng, self.labels))
        self.k2 = (["x0"] + [f"b{i}" for i in range(self.labels - 1)], random_kernel(rng, self.labels))
        paths = [workdir / "k1.json", workdir / "k2.json"]
        for path, (labels, m) in zip(paths, (self.k1, self.k2)):
            write_json(path, kernel_document(labels, m))
        self.commands = (
            Command(
                "verify",
                (*map(str, paths), "--glue-label", "x0", "--seed", str(seed),
                 "--samples", str(self.samples)),
                workdir / "verify.json",
            ),
        )
        self.sizes = {"labels_per_kernel": self.labels, "glued_labels": 2 * self.labels - 1,
                      "samples": self.samples}
        self.controls = (("one perturbed product entry", "verify", perturb_product_entry),)

    def expected_product(self, labels: list[str]) -> np.ndarray:
        """Markov product in the given label order, by its closed form."""
        (l1, m1), (l2, m2) = self.k1, self.k2
        side1 = {l: i for i, l in enumerate(l1)}
        side2 = {l: i for i, l in enumerate(l2) if l != "x0"}
        x1, x2 = l1.index("x0"), l2.index("x0")
        n = len(labels)
        out = np.empty((n, n), dtype=np.complex128)
        for a, s in enumerate(labels):
            for b, t in enumerate(labels):
                if s in side1 and t in side1:
                    out[a, b] = m1[side1[s], side1[t]]
                elif s in side2 and t in side2:
                    out[a, b] = m2[side2[s], side2[t]]
                elif s in side1:
                    out[a, b] = m1[side1[s], x1] * m2[x2, side2[t]]
                else:
                    out[a, b] = m2[side2[s], x2] * m1[x1, side1[t]]
        return out

    def check(self, command: str, status: int, data: bytes) -> str | None:
        error = exit_error(status)
        if error:
            return error
        report = json.loads(data)
        if report.get("passed") is not True:
            return "report does not say passed"
        if not report["max_abs_deviation"] <= report["mc_tol"]:
            return f"max_abs_deviation {report['max_abs_deviation']} exceeds mc_tol {report['mc_tol']}"
        if report["samples"] != self.samples:
            return f"report has {report['samples']} samples, expected {self.samples}"
        labels, product = parse_kernel(report["product"])
        expected_labels = self.k1[0] + self.k2[0][1:]
        if sorted(labels) != sorted(expected_labels):
            return "product labels are not the union of the operand labels"
        error = largest_mismatch(product, self.expected_product(labels), labels)
        if error:
            return f"product {error}"
        empirical_labels, empirical = parse_kernel(report["empirical"])
        if empirical_labels != labels:
            return "empirical and product label orders differ"
        deviation = float(np.abs(empirical - product).max())
        if not math.isclose(deviation, report["max_abs_deviation"], rel_tol=1e-12):
            return f"max_abs_deviation {report['max_abs_deviation']} but entries differ by {deviation}"
        return None


def perturb_product_entry(data: bytes) -> bytes:
    report = json.loads(data)
    report["product"]["entries"][1][-1][0] += 1e-6
    return json.dumps(report).encode()


class TreeGlue:
    """glue-tree on a random tree of small kernels, then check on its output."""

    name = "tree-glue"
    total_labels = 500
    node_sizes = (2, 6)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        fresh = iter(f"t{i}" for i in range(self.total_labels))
        lo, hi = self.node_sizes
        size = int(rng.integers(lo, hi + 1))
        self.nodes = [([next(fresh) for _ in range(size)], random_kernel(rng, size))]
        self.edges: list[tuple[int, int, str]] = []
        count = size
        while count < self.total_labels:
            # A new node shares one label with a random earlier node and
            # brings size - 1 fresh ones; the last node is trimmed so the
            # glued kernel has exactly total_labels labels.
            size = min(int(rng.integers(lo, hi + 1)), self.total_labels - count + 1)
            parent = int(rng.integers(len(self.nodes)))
            parent_labels = self.nodes[parent][0]
            shared = parent_labels[int(rng.integers(len(parent_labels)))]
            labels = [shared] + [next(fresh) for _ in range(size - 1)]
            self.nodes.append((labels, random_kernel(rng, size)))
            self.edges.append((parent, len(self.nodes) - 1, shared))
            count += size - 1
        tree_path = workdir / "tree.json"
        write_json(tree_path, {
            "nodes": [kernel_document(l, m) for l, m in self.nodes],
            "edges": [list(e) for e in self.edges],
        })
        glued = workdir / "glued.json"
        self.commands = (
            Command("glue-tree", (str(tree_path),), glued),
            Command("check", (str(glued),), workdir / "check.json"),
        )
        self.sizes = {"nodes": len(self.nodes), "labels": self.total_labels,
                      "labels_per_node": list(self.node_sizes)}
        self.controls = (
            ("one tree entry transposed", "glue-tree", transpose_entry),
            ("check verdict flipped", "check", flip_verdict),
        )
        self._expected: tuple[dict[str, int], np.ndarray] | None = None

    def expected_kernel(self) -> tuple[dict[str, int], np.ndarray]:
        """The glued kernel by path products, with its label index.

        For labels s in node a and t in node b, K(s, t) is
        K_a(s, g1) K_v1(g1, g2) ... K_b(gk, t) along the tree path
        a = v0, v1, ..., vk = b whose edges share g1, ..., gk.
        """
        if self._expected is None:
            index: dict[str, int] = {}
            for labels, _ in self.nodes:
                for label in labels:
                    index.setdefault(label, len(index))
            adjacent: list[list[tuple[int, str]]] = [[] for _ in self.nodes]
            for i, j, label in self.edges:
                adjacent[i].append((j, label))
                adjacent[j].append((i, label))
            rows = [np.array([index[l] for l in labels]) for labels, _ in self.nodes]
            position = [{l: k for k, l in enumerate(labels)} for labels, _ in self.nodes]
            out = np.empty((len(index), len(index)), dtype=np.complex128)
            for a, (_, ka) in enumerate(self.nodes):
                out[np.ix_(rows[a], rows[a])] = ka
                # (node, first shared label from a, last shared label, product between them)
                pending = [(b, g, g, 1.0 + 0j) for b, g in adjacent[a]]
                seen = {a}
                while pending:
                    b, first, last, between = pending.pop()
                    seen.add(b)
                    kb = self.nodes[b][1]
                    out[np.ix_(rows[a], rows[b])] = between * np.outer(
                        ka[:, position[a][first]], kb[position[b][last], :]
                    )
                    for c, g in adjacent[b]:
                        if c not in seen:
                            step = kb[position[b][last], position[b][g]]
                            pending.append((c, first, g, between * step))
            self._expected = (index, out)
        return self._expected

    def check(self, command: str, status: int, data: bytes) -> str | None:
        error = exit_error(status)
        if error:
            return error
        doc = json.loads(data)
        if command == "check":
            return None if doc.get("verdict") is True else "certificate verdict is not true"
        labels, entries = parse_kernel(doc)
        index, expected = self.expected_kernel()
        if len(labels) != len(index) or set(labels) != set(index):
            return "glued labels are not the union of the node labels"
        order = [index[l] for l in labels]
        error = largest_mismatch(entries, expected[np.ix_(order, order)], labels)
        return f"glued {error}" if error else None


def transpose_entry(data: bytes) -> bytes:
    doc = json.loads(data)
    _, m = parse_kernel(doc)
    i, j = np.unravel_index(int(np.argmax(np.abs(np.triu(m.imag, 1)))), m.shape)
    rows = doc["entries"]
    rows[i][j], rows[j][i] = rows[j][i], rows[i][j]
    return json.dumps(doc).encode()


def flip_verdict(data: bytes) -> bytes:
    doc = json.loads(data)
    doc["verdict"] = not doc["verdict"]
    return json.dumps(doc).encode()


WORKLOADS = {w.name: w for w in (VerifyDense, TreeGlue)}
