"""JSON document formats for kernels, trees, certificates, and reports.

Complex scalars are stored as two-element arrays ``[re, im]`` of decimal
floats.  Matrices are written in full (no triangular compression), and
floats serialize via Python's shortest round-trip representation, so a
write/read cycle reproduces every entry bit for bit.  A document built
by ``*_to_document`` carries each value type's complex array itself;
``document_text`` writes it a row at a time, and ``load_kernel`` reads a
kernel file a row at a time.  Loaders ignore unknown keys (e.g. a
timestamp added by the CLI), and raise ``FileParseError``, naming the
file, for one that is not UTF-8 JSON they can read.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from itertools import chain
from json.decoder import WHITESPACE
from numbers import Real

import numpy as np

from .errors import FileFormatError, FileParseError
from .kernels import IndexedKernel, PsdCertificate, _lock, make_kernel
from .realization import RealizationSpec, VerificationReport
from .trees import GluingTree


def _require(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict) or key not in doc:
        raise FileFormatError(f"{kind} document is missing the {key!r} field")
    return doc[key]


def kernel_to_document(k: IndexedKernel) -> dict:
    return {"labels": list(k.labels), "entries": k.entries}


def kernel_from_document(doc: dict) -> IndexedKernel:
    labels = _require(doc, "labels", "kernel")
    rows = _require(doc, "entries", "kernel")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise FileFormatError("kernel 'labels' must be an array of strings")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FileFormatError("kernel 'entries' must be an array of rows")
    n = len(labels)
    for z in chain.from_iterable(rows):
        # the float-pair fast path, then the full rule
        if type(z) is not list or len(z) != 2 or not type(z[0]) is type(z[1]) is float:
            if not (isinstance(z, (list, tuple)) and len(z) == 2
                    and all(isinstance(x, Real) and not isinstance(x, bool) for x in z)):
                raise FileFormatError(f"expected a two-element [re, im] array, got {z!r}")
    if len(rows) != n or {len(row) for row in rows} not in ({n}, set()):
        raise FileFormatError(f"kernel 'entries' must be a {n}x{n} matrix")
    # [re, im] pairs are the memory layout of complex128: the view is bitwise exact
    pairs = _lock(np.array(rows, dtype=np.float64)).reshape(n, n, 2).view(np.complex128)
    return make_kernel(labels, pairs[..., 0])


def tree_from_document(doc: dict) -> GluingTree:
    nodes = _require(doc, "nodes", "tree")
    edges = _require(doc, "edges", "tree")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise FileFormatError("tree 'nodes' and 'edges' must be arrays")
    kernels = tuple(kernel_from_document(n) for n in nodes)
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3 and all(map(isinstance, e, (int, int, str)))):
            raise FileFormatError(f"tree edge must be [i, j, \"label\"], got {e!r}")
    return GluingTree(kernels, edges)


def certificate_to_document(cert: PsdCertificate) -> dict:
    return {
        "verdict": bool(cert.verdict),
        "min_eigenvalue": float(cert.min_eigenvalue),
        "tolerance_used": float(cert.tolerance_used),
        "witness": cert.witness,
    }


def realization_to_document(spec: RealizationSpec) -> dict:
    return {
        "labels": list(spec.labels),
        "basepoint": spec.basepoint,
        "basepoint_index": spec.basepoint_index,
        "mean": spec.mean,
        "covariance": spec.covariance,
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


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return _read_document(handle, path)


def _read_document(handle, path: str) -> dict:
    try:
        doc = json.loads(handle.read())
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an integer of over 4,300 digits, or nested too deep to parse
        raise FileParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level JSON value must be an object")
    return doc


def load_kernel(path: str) -> IndexedKernel:
    """The kernel of a kernel file, its entries read a row at a time.

    A file the row reader does not take, an invalid or unusual one, is
    read again whole, as is a pipe, which cannot be read twice: the
    reference ``kernel_from_document`` of its ``load_document`` gives
    the kernel or reports what is wrong.
    """
    with open(path, "r", encoding="utf-8") as handle:
        if handle.seekable():
            try:
                labels, pairs = _read_kernel(handle)
            except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError
                handle.seek(0)
            else:
                # locked, the array is the kernel's own: make_kernel shares it
                return make_kernel(labels, _lock(pairs).view(np.complex128)[..., 0])
        return _build(kernel_from_document, _read_document(handle, path), path)


def _build(from_document, doc: dict, path: str):
    """``from_document(doc)``, its ``FileFormatError`` naming the file; an
    integer entry too large for a float is a ``FileParseError`` of the
    file, as ``json`` finds one too long."""
    try:
        return from_document(doc)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except OverflowError as exc:
        raise FileParseError(f"{path}: {exc}") from exc


_DECODER = json.JSONDecoder()
_CHUNK_CHARS = 1 << 20


class _Window:
    """The text of a file from the walk's position on, read in chunks:
    a token that runs past the end of the window is read again on a
    longer one, so no token is ever taken from a cut text."""

    def __init__(self, handle):
        self.handle, self.text, self.pos = handle, "", 0

    def take(self, parse, ends: str):
        """``parse(text, pos)``'s value at the position after whitespace,
        and the character of ``ends`` that follows it after whitespace;
        the position moves past both.  ValueError if there is none."""
        while True:
            try:
                value, end = parse(self.text, WHITESPACE.match(self.text, self.pos).end())
                end = WHITESPACE.match(self.text, end).end()
                sep = self.text[end : end + 1]
                if sep and sep in ends:
                    self.pos = end + 1
                    return value, sep
            except ValueError:
                pass
            # a cut token fails, or ends early with no separator after it: read on
            chunk = self.handle.read(max(_CHUNK_CHARS, 2 * (len(self.text) - self.pos)))
            if not chunk:
                raise ValueError("the file ends before the expected character")
            self.text, self.pos = self.text[self.pos :] + chunk, 0

    def at_end(self) -> bool:
        """Whether only whitespace is left in the file."""
        while WHITESPACE.match(self.text, self.pos).end() == len(self.text):
            self.text, self.pos = self.handle.read(_CHUNK_CHARS), 0
            if not self.text:
                return True
        return False


def _nothing(text: str, pos: int):
    return None, pos


def _read_kernel(handle) -> tuple[list, np.ndarray]:
    """The labels and ``(n, n, 2)`` float64 ``[re, im]`` entries of a kernel
    file, walking its top-level object as ``json.loads`` does (the last of
    a repeated key wins) and decoding ``entries`` a row at a time.
    ValueError unless the file is a kernel document whose entries are all
    float pairs."""
    window = _Window(handle)
    window.take(_nothing, "{")
    values, sep = {}, ","
    while sep == ",":
        key, _ = window.take(_DECODER.raw_decode, ":")
        if type(key) is not str:
            raise ValueError("a key is not a string")
        if key == "entries":
            values[key], sep = _entry_rows(window, os.fstat(handle.fileno()).st_size)
        else:
            values[key], sep = window.take(_DECODER.raw_decode, ",}")
    labels, pairs = values.get("labels"), values.get("entries")
    if not window.at_end() or pairs is None or type(labels) is not list:
        raise ValueError("not a kernel document")
    if len(labels) != len(pairs) or not all(type(l) is str for l in labels):
        raise ValueError("labels are not as many strings as there are rows")
    return labels, pairs


def _entry_rows(window: _Window, size: int) -> tuple[np.ndarray, str]:
    """The rows of an ``entries`` array, each checked and stored as it is
    decoded into one array sized by the first row, and the character after
    the array.  ValueError unless it is a square matrix of float pairs."""
    window.take(_nothing, "[")
    pairs, i, sep = None, 0, ","
    while sep == ",":
        row, sep = window.take(_DECODER.raw_decode, ",]")
        if type(row) is not list or set(map(type, row)) - {list} or set(map(len, row)) - {2}:
            raise ValueError("not a row of pairs")
        flat = list(chain.from_iterable(row))
        if set(map(type, flat)) - {float}:
            raise ValueError("not a row of float pairs")
        if pairs is None:
            if 5 * len(row) ** 2 > size:  # no file this size holds that many "[0,0]" pairs
                raise ValueError("the first row is too long for the file")
            pairs = np.empty((len(row), len(row), 2))
        if i == len(pairs) or len(row) != len(pairs):
            raise ValueError("entries are not a square matrix")
        pairs[i].reshape(-1)[:] = flat
        i += 1
    if pairs is None or i != len(pairs):
        raise ValueError("entries are not a square matrix")
    return pairs, window.take(_nothing, ",}")[1]


def load_tree(path: str) -> GluingTree:
    return _build(tree_from_document, load_document(path), path)


def document_text(doc: dict) -> Iterator[str]:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"``, in pieces, at C speed,
    where each numpy array in ``doc`` stands for its complex128 entries as
    nested ``[re, im]`` lists.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder.  This
    writer walks dicts and lists itself, encodes keys and scalars with
    ``json.dumps``, and writes an array from its float64 view with one
    ``%`` over a ``%r`` template per matrix row.  Each row is its own
    piece, so a writer of the pieces never holds the text whole.
    """
    yield from _write(doc, "\n")
    yield "\n"


def _write(o, nl: str) -> Iterator[str]:
    """The pieces of ``json.dumps(o, indent=2)`` for a value whose line starts with ``nl``."""
    inner = nl + "  "
    if type(o) is dict and o and all(type(k) is str for k in o):
        sep = "{" + inner
        for k, v in o.items():
            yield sep + json.dumps(k) + ": "
            yield from _write(v, inner)
            sep = "," + inner
        yield nl + "}"
    elif type(o) is list and o:
        sep = "[" + inner
        for v in o:
            yield sep
            yield from _write(v, inner)
            sep = "," + inner
        yield nl + "]"
    elif isinstance(o, np.ndarray):
        a = np.require(o, np.complex128, "C")
        if a.ndim > 1 and len(a):
            yield from _write(list(a), nl)
            return
        pairs = a.reshape(-1).view(np.float64).reshape(*a.shape, 2)
        yield _fill(_template(pairs.shape, nl), pairs)
    else:
        yield json.dumps(o, indent=2).replace("\n", nl)


def _template(shape: tuple, nl: str) -> str:
    """The ``%r`` template of ``json.dumps`` of nested float lists of this
    shape, ``indent=2``, on a line that starts with ``nl``."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_template(shape[1:], inner)] * shape[0]) + nl + "]"


def _fill(template: str, values: np.ndarray) -> str:
    text = template % tuple(values.ravel().tolist())
    # repr spells the non-finite floats nan and inf, json NaN and Infinity
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text
