"""JSON document formats for kernels, trees, certificates, and reports.

Complex scalars are stored as two-element arrays ``[re, im]`` of decimal
floats.  Matrices are written in full (no triangular compression), and
floats serialize via Python's shortest round-trip representation, so a
write/read cycle reproduces every entry bit for bit.  Documents are
written as exactly the bytes of ``json.dumps(doc, indent=2)`` plus a
newline, by a writer that keeps the float rows on C-speed formatting.
Loaders ignore unknown keys (e.g. a timestamp added by the CLI).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from numbers import Real

import numpy as np

from .errors import FileFormatError
from .kernels import IndexedKernel, PsdCertificate, make_kernel
from .realization import RealizationSpec, SampleBatch, VerificationReport
from .trees import GluingTree


def _to_pairs(a: np.ndarray) -> list:
    """Nested lists like ``a`` with each complex entry as ``[re, im]``."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def pair_to_complex(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, Real) and not isinstance(x, bool) for x in obj)
    ):
        raise FileFormatError(f"expected a two-element [re, im] array, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def _require(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict) or key not in doc:
        raise FileFormatError(f"{kind} document is missing the {key!r} field")
    return doc[key]


def kernel_to_document(k: IndexedKernel) -> dict:
    return {"labels": list(k.labels), "entries": _to_pairs(k.entries)}


def kernel_from_document(doc: dict) -> IndexedKernel:
    labels = _require(doc, "labels", "kernel")
    rows = _require(doc, "entries", "kernel")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise FileFormatError("kernel 'labels' must be an array of strings")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FileFormatError("kernel 'entries' must be an array of rows")
    n = len(labels)
    for row in rows:
        for z in row:
            if type(z) is not list or len(z) != 2 or not type(z[0]) is type(z[1]) is float:
                pair_to_complex(z)  # the full rule: raises on a bad entry
    if len(rows) != n or {len(row) for row in rows} not in ({n}, set()):
        raise FileFormatError(f"kernel 'entries' must be a {n}x{n} matrix")
    # [re, im] pairs are the memory layout of complex128: the view is bitwise exact
    pairs = np.array(rows, dtype=np.float64).reshape(n, n, 2).view(np.complex128)
    return make_kernel(labels, pairs[..., 0])


def tree_to_document(tree: GluingTree) -> dict:
    return {
        "nodes": [kernel_to_document(k) for k in tree.nodes],
        "edges": [[i, j, label] for i, j, label in tree.edges],
    }


def tree_from_document(doc: dict) -> GluingTree:
    nodes = _require(doc, "nodes", "tree")
    edges = _require(doc, "edges", "tree")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise FileFormatError("tree 'nodes' and 'edges' must be arrays")
    kernels = tuple(kernel_from_document(n) for n in nodes)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3 and all(map(isinstance, e, (int, int, str)))):
            raise FileFormatError(f"tree edge must be [i, j, \"label\"], got {e!r}")
    return GluingTree(kernels, tuple(map(tuple, edges)))


def certificate_to_document(cert: PsdCertificate) -> dict:
    return {
        "verdict": bool(cert.verdict),
        "min_eigenvalue": float(cert.min_eigenvalue),
        "tolerance_used": float(cert.tolerance_used),
        "witness": None if cert.witness is None else _to_pairs(cert.witness),
    }


def realization_to_document(spec: RealizationSpec) -> dict:
    return {
        "labels": list(spec.labels),
        "basepoint": spec.basepoint,
        "basepoint_index": spec.basepoint_index,
        "mean": _to_pairs(spec.mean),
        "covariance": _to_pairs(spec.covariance),
    }


def report_to_document(report: VerificationReport) -> dict:
    return {
        "passed": bool(report.passed),
        "max_abs_deviation": float(report.max_abs_deviation),
        "mc_tol": float(report.mc_tol),
        "samples": int(report.n_samples),
        "seed": int(report.seed),
        "certificate": certificate_to_document(report.certificate),
        "product": kernel_to_document(report.product),
        "empirical": kernel_to_document(report.empirical),
    }


def sample_text(labels, seed: int, blocks) -> Iterator[str]:
    """Tabular export in pieces: a header with seed and labels, then each
    block's rows of comma-separated ``re+imi`` values, 17 significant digits,
    made by one ``%`` of a row template when the iteration reaches the block."""
    yield f"# seed={seed} labels={','.join(labels)}\n"
    row = ",".join(["%.17g%+.17gi"] * len(labels)) + "\n"
    for block in blocks:
        yield row * len(block) % tuple(block.view(np.float64).ravel().tolist())


def format_sample_batch(batch: SampleBatch) -> str:
    """The whole ``sample_text`` export of a batch, as one string."""
    return "".join(sample_text(batch.labels, batch.seed, batch.blocks()))


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level JSON value must be an object")
    return doc


def load_kernel(path: str) -> IndexedKernel:
    return kernel_from_document(load_document(path))


def load_tree(path: str) -> GluingTree:
    return tree_from_document(load_document(path))


def dump_document(doc: dict) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"``, written at C speed.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder.  This
    writer walks dicts and lists itself, encodes keys and scalars with
    ``json.dumps``, and writes each list of float lists (the ``[re, im]``
    rows) with one ``%`` over a ``%r`` template.  The pieces are joined
    once, so the text is held twice at most.
    """
    parts: list[str] = []
    _write(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(o, nl: str, parts: list[str]) -> None:
    """Append ``json.dumps(o, indent=2)`` for a value whose line starts with ``nl``."""
    inner = nl + "  "
    if type(o) is dict and o and all(type(k) is str for k in o):
        sep = "{" + inner
        for k, v in o.items():
            parts += (sep, json.dumps(k), ": ")
            _write(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif type(o) is list and o:
        text = _float_rows(o, inner) if all(type(r) is list for r in o) else None
        if text is not None:
            parts += ("[", inner, text, nl, "]")
            return
        sep = "[" + inner
        for v in o:
            parts.append(sep)
            _write(v, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    else:
        parts.append(json.dumps(o, indent=2).replace("\n", nl))


def _float_rows(rows: list, nl: str) -> str | None:
    """The items of a list of float lists, each starting on ``nl``; None
    unless every value is a finite ``float``, whose ``repr`` json writes."""
    flat = tuple(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {float}:
        return None
    inner = nl + "  "
    templates = {
        m: "[" + inner + ("," + inner).join(["%r"] * m) + nl + "]" if m else "[]"
        for m in set(map(len, rows))
    }
    text = ("," + nl).join([templates[len(r)] for r in rows]) % flat
    return None if "n" in text else text  # nan and inf: json writes NaN, Infinity
