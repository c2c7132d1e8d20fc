"""Document serialization: kernels, trees, certificates, reports, samples."""

from __future__ import annotations

import json
import math
import os
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    draw,
    dump_document,
    json_native,
    random_glued_pair,
    random_gram_kernel,
    tree_to_document,
)
from kernelglue import (
    FileFormatError,
    FileParseError,
    GluingTree,
    NotATreeError,
    NotHermitianError,
    make_kernel,
    psd_check_eigen,
    schur_reduce,
    verify_realization,
)
from kernelglue import fileio
from kernelglue.fileio import (
    certificate_to_document,
    document_text,
    kernel_from_document,
    kernel_to_document,
    load_document,
    load_kernel,
    load_tree,
    realization_to_document,
    report_to_document,
    sample_text,
    tree_from_document,
)


def export(labels, seed, samples):
    """The whole ``sample_text`` of the rows, in blocks of 16,384 rows."""
    blocks = np.split(samples, range(16384, len(samples), 16384))
    return "".join(sample_text(labels, seed, blocks))


def parse_re_imi(token):
    # "re+imi" with a signed imaginary part and trailing i; the split sign
    # is the last +/- not belonging to an exponent
    body = token[:-1]
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:]))
    raise ValueError(token)


class TestKernelDocuments:
    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            labels = tuple(f"s{i}" for i in range(int(rng.integers(1, 7))))
            k = random_gram_kernel(rng, labels)
            text = dump_document(kernel_to_document(k))
            back = kernel_from_document(json.loads(text))
            assert back == k

    def test_unknown_keys_ignored(self):
        doc = json_native(kernel_to_document(make_kernel(["a"], [[1.0]])))
        doc["timestamp"] = "2024-01-01T00:00:00"
        doc["comment"] = "anything"
        assert kernel_from_document(doc).labels == ("a",)

    def test_missing_fields(self):
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": ["a"]})
        with pytest.raises(FileFormatError):
            kernel_from_document({"entries": [[[1.0, 0.0]]]})
        with pytest.raises(FileFormatError):
            kernel_from_document([1, 2, 3])

    def test_bad_labels(self):
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": "abc", "entries": []})
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": [1, 2], "entries": [[[1, 0]], [[1, 0]]]})

    def test_bad_entries(self):
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": ["a"], "entries": [[[1.0]]]})
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": ["a"], "entries": [[[1.0, 0.0, 0.0]]]})
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": ["a"], "entries": [[["1", "0"]]]})
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": ["a"], "entries": [[[True, False]]]})
        with pytest.raises(FileFormatError):
            kernel_from_document({"labels": ["a", "b"], "entries": [[[1, 0]]]})

    def test_loader_is_bitwise_the_per_entry_conversion(self):
        big = 2**70 + 1  # rounds on conversion to float
        rows = [
            [[1, 0], (-0.0, 5e-324), [1e-310, -0.0]],
            [[-0.0, -5e-324], (3, -0.0), [big, 7]],
            [(1e-310, 0.0), [big, -7], [-0.0, 0.0]],
        ]
        k = kernel_from_document({"labels": ["a", "b", "c"], "entries": rows})
        expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
        assert k.entries.tobytes() == expected.tobytes()
        assert np.signbit(k.entries.real[0, 1]) and np.signbit(k.entries.imag[0, 2])

    def test_loader_messages_unchanged(self):
        cases = [
            ([[[True, False]]], "expected a two-element [re, im] array, got [True, False]"),
            ([[["1", "0"]]], "expected a two-element [re, im] array, got ['1', '0']"),
            ([[[1.0, 0.0, 0.0]]], "expected a two-element [re, im] array, got [1.0, 0.0, 0.0]"),
            ([[[1, 0]], [[1, 0], [1, 0]]], "kernel 'entries' must be a 1x1 matrix"),
            # a bad entry is reported before a ragged shape
            ([[[1, 0]], [[1, 0], [1, None]]], "expected a two-element [re, im] array, got [1, None]"),
        ]
        for rows, message in cases:
            with pytest.raises(FileFormatError) as info:
                kernel_from_document({"labels": ["a"], "entries": rows})
            assert str(info.value) == message
        with pytest.raises(FileFormatError, match=r"must be a 2x2 matrix"):
            kernel_from_document({"labels": ["a", "b"], "entries": [[[1, 0], [0, 0]], [[1, 0]]]})

    def test_hermitian_violation_caught_on_load(self):
        doc = {
            "labels": ["a", "b"],
            "entries": [[[1, 0], [0.5, 0]], [[0.4, 0], [1, 0]]],
        }
        with pytest.raises(NotHermitianError):
            kernel_from_document(doc)

    def test_pair_parsing(self):
        for pair, z in (([1.5, -2.0], 1.5 - 2.0j), ([3, 4], 3 + 4j)):
            rows = [[[1, 0], pair], [[z.real, -z.imag], [1, 0]]]
            assert kernel_from_document({"labels": ["a", "b"], "entries": rows}).entry("a", "b") == z
        for bad in ([1.0], [1.0, 2.0, 3.0], "12", [1.0, "x"], None):
            with pytest.raises(FileFormatError, match=r"expected a two-element \[re, im\] array"):
                kernel_from_document({"labels": ["a"], "entries": [[bad]]})


class TestTreeDocuments:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        k1 = random_gram_kernel(rng, ("x0", "a"))
        k2 = random_gram_kernel(rng, ("a", "b"))
        tree = GluingTree((k1, k2), ((0, 1, "a"),))
        back = tree_from_document(json.loads(dump_document(tree_to_document(tree))))
        assert back.edges == tree.edges
        assert all(n1 == n2 for n1, n2 in zip(back.nodes, tree.nodes))

    def test_bad_edges(self):
        node = {"labels": ["a"], "entries": [[[1.0, 0.0]]]}
        for edges in ([[0, 1]], [[0, 1, 2]], [["0", 1, "a"]], [0]):
            with pytest.raises(FileFormatError):
                tree_from_document({"nodes": [node, node], "edges": edges})

    def test_structural_validation_propagates(self):
        node = {"labels": ["a"], "entries": [[[1.0, 0.0]]]}
        with pytest.raises(NotATreeError):
            tree_from_document({"nodes": [node], "edges": [[0, 0, "a"]]})

    def test_missing_fields(self):
        with pytest.raises(FileFormatError):
            tree_from_document({"nodes": []})
        with pytest.raises(FileFormatError):
            tree_from_document({"edges": []})


class TestReportDocuments:
    def test_certificate_document(self):
        good = certificate_to_document(psd_check_eigen(make_kernel(["a"], [[1.0]])))
        assert good["verdict"] is True
        assert good["witness"] is None
        bad = certificate_to_document(
            psd_check_eigen(make_kernel(["a", "b"], [[1, 2], [2, 1]]))
        )
        assert bad["verdict"] is False
        assert len(bad["witness"]) == 2
        assert abs(bad["min_eigenvalue"] + 1.0) < 1e-14

    def test_realization_document(self):
        k = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        doc = json.loads(dump_document(realization_to_document(schur_reduce(k, "x0"))))
        assert doc["labels"] == ["a"]
        assert doc["basepoint"] == "x0"
        assert doc["basepoint_index"] == 0
        assert doc["mean"] == [[0.5, 0.0]]
        assert doc["covariance"] == [[[0.75, 0.0]]]

    def test_verification_report_document(self):
        rng = np.random.default_rng(3)
        k1, k2 = random_glued_pair(rng, max_dim=3)
        report = verify_realization(k1, k2, "x0", 4000, seed=5)
        doc = report_to_document(report)
        assert doc["passed"] == report.passed
        assert doc["samples"] == 4000
        assert doc["seed"] == 5
        assert doc["max_abs_deviation"] == report.max_abs_deviation
        assert doc["certificate"]["verdict"] is True
        assert doc["product"]["labels"] == list(report.product.labels)
        assert doc["empirical"]["labels"] == list(report.empirical.labels)


class TestSampleExport:
    def test_header_and_shape(self):
        k = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        labels, samples = draw(schur_reduce(k, "x0"), 8, seed=99)
        text = export(labels, 99, samples)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=99 labels=x0,a"
        assert len(lines) == 9

    def test_values_round_trip_exactly(self):
        rng = np.random.default_rng(4)
        k = random_gram_kernel(rng, ("x0", "a", "b"))
        labels, samples = draw(schur_reduce(k, "x0"), 20, seed=7)
        lines = export(labels, 7, samples).strip().split("\n")[1:]
        parsed = np.array([[parse_re_imi(tok) for tok in line.split(",")] for line in lines])
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(parsed, samples)

    def test_text_is_the_per_entry_format(self):
        def per_entry(labels, seed, samples):
            lines = [f"# seed={seed} labels={','.join(labels)}"]
            for row in samples:
                lines.append(",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(12)
        scales = 10.0 ** rng.integers(-20, 20, (1, 3, 2))
        rows = rng.standard_normal((16387, 3, 2)) * scales
        specials = [-0.0, 5e-324, -5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan, 0.0]
        for k, value in enumerate(specials):
            # both sides of the block boundary, in real and imaginary parts
            rows[k, k % 3, k % 2] = value
            rows[16383 + k % 4, k % 3, (k + 1) % 2] = value
        batch = ("x0", "a", "b"), 5, rows.view(np.complex128)[..., 0]
        assert export(*batch) == per_entry(*batch)


class TestFiles:
    def test_load_kernel(self, tmp_path):
        k = make_kernel(["a", "b"], [[1, 0.5j], [-0.5j, 1]])
        path = tmp_path / "k.json"
        path.write_text(dump_document(kernel_to_document(k)))
        assert load_kernel(str(path)) == k

    def test_load_tree(self, tmp_path):
        k1 = make_kernel(["x0", "a"], [[1, 0.5], [0.5, 1]])
        k2 = make_kernel(["a", "b"], [[1, 0.5], [0.5, 1]])
        doc = tree_to_document(GluingTree((k1, k2), ((0, 1, "a"),)))
        path = tmp_path / "t.json"
        path.write_text(dump_document(doc))
        assert load_tree(str(path)).edges == ((0, 1, "a"),)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FileFormatError):
            load_document(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        expected = f"^{re.escape(str(path))}: Expecting property name"
        with pytest.raises(FileParseError, match=expected) as info:
            load_document(str(path))
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_document("/nonexistent/kernel.json")

    def test_dump_ends_with_newline(self):
        text = dump_document({"labels": []})
        assert text.endswith("\n")
        assert json.loads(text) == {"labels": []}


# Values the writer must format exactly as json does: the extremes of float
# repr, the non-finite values json spells NaN and Infinity, and strings that
# need escaping or are not ASCII.
_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    st.text(),
    st.sampled_from(["\u00e9\u4e2d\U0001f600", '"\\\n\t\x00\u2028', "\ud800"]),
)
# lists of float rows, ragged and mixed ones too, are written as json writes them
_rows = st.lists(
    st.lists(st.one_of(_floats, st.integers(), st.booleans()), max_size=4),
    max_size=4,
)
_values = st.recursive(
    st.one_of(_scalars, _rows, st.lists(st.lists(_floats, max_size=3), max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.none()), inner, max_size=4),
    ),
    max_leaves=40,
)


class TestDumpDocument:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.dictionaries(st.text(), _values, max_size=5))
    @example({})
    @example({"a": [], "b": {}, "c": [[]], "d": [[], [1.0]], "e": {"f": [[0.0, -0.0]]}})
    @example({"rows": [[1.0, math.nan], [math.inf, 2.0]], "mixed": [[1, 2.0, True]]})
    def test_bytes_are_json_dumps_indent_2(self, doc):
        assert dump_document(doc) == json.dumps(doc, indent=2) + "\n"

    def test_text_comes_a_row_at_a_time(self):
        kernel = random_gram_kernel(np.random.default_rng(64), tuple(f"l{i}" for i in range(64)))
        doc = kernel_to_document(kernel)
        pieces = list(document_text(doc))
        text = "".join(pieces)
        assert text == json.dumps(json_native(doc), indent=2) + "\n"
        assert len(pieces) >= 64
        assert max(map(len, pieces)) <= 2 * len(text) / 64


class TestWriterShapes:
    """Array shapes the writer must lay out as json does its lists."""

    def test_one_label_realization_has_empty_mean_and_covariance(self):
        spec = schur_reduce(make_kernel(["x0"], [[1.0]]), "x0")
        twin = {"labels": [], "basepoint": "x0", "basepoint_index": 0, "mean": [], "covariance": []}
        assert dump_document(realization_to_document(spec)) == json.dumps(twin, indent=2) + "\n"

    def test_witness_vector(self):
        cert = psd_check_eigen(make_kernel(["a", "b"], [[1, 2j], [-2j, 1]]))
        twin = {
            "verdict": False,
            "min_eigenvalue": cert.min_eigenvalue,
            "tolerance_used": cert.tolerance_used,
            "witness": [[z.real, z.imag] for z in cert.witness.tolist()],
        }
        assert dump_document(certificate_to_document(cert)) == json.dumps(twin, indent=2) + "\n"

    def test_one_by_one_kernel(self):
        doc = kernel_to_document(make_kernel(["a"], [[-0.0]]))
        twin = {"labels": ["a"], "entries": [[[-0.0, 0.0]]]}
        assert dump_document(doc) == json.dumps(twin, indent=2) + "\n"

    def test_empty_rows_and_no_rows(self):
        doc = {"a": np.zeros((2, 0), complex), "b": np.zeros((0, 3), complex)}
        assert dump_document(doc) == json.dumps({"a": [[], []], "b": []}, indent=2) + "\n"

    def test_non_finite_entries_are_spelled_as_json_spells_them(self):
        doc = {"a": np.array([[complex(math.nan, math.inf)], [complex(-math.inf, 5e-324)]])}
        twin = {"a": [[[math.nan, math.inf]], [[-math.inf, 5e-324]]]}
        assert dump_document(doc) == json.dumps(twin, indent=2) + "\n"


def _reference(path):
    """The kernel of the whole document, a format error naming the file."""
    doc = load_document(path)
    try:
        return kernel_from_document(doc)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _outcome(read, path):
    """The labels and entry bytes a reader gives, or the type, message and
    file name of what it raises."""
    try:
        k = read(path)
    except Exception as exc:  # the outcome of any failure is compared
        return type(exc), str(exc), getattr(exc, "filename", None)
    return k.labels, k.entries.tobytes()


def _rows_taken(path) -> bool:
    """Whether the row reader takes the file itself, with no second reading."""
    with open(path, encoding="utf-8") as handle:
        try:
            fileio._read_kernel(handle)
        except (ValueError, RecursionError):
            return False
    return True


_K = {"labels": ["a", "b"], "entries": [[[1.0, 0.0], [0.5, 0.25]], [[0.5, -0.25], [1.0, 0.0]]]}
_COMPACT = json.dumps(_K)
_ENTRIES = json.dumps(_K["entries"])


_MARK = 1234.5625  # an entry whose token a mutation replaces


@st.composite
def _kernel_files(draw):
    """Kernel files as bytes: Hermitian float entries written compact or
    with indent 2, whole or mutated, and whether the row reader must take
    the file because it is a valid kernel document of float pairs."""
    n = draw(st.integers(0, 4))
    labels = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "\u00e9", "\ud800"]),
                           min_size=n, max_size=n, unique=True))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0]),
    )
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re, im = draw(value), 0.0 if i == j else draw(value)
            rows[i][j], rows[j][i] = [re, im], [re, -im]
    token = None
    if n:
        rows[0][0] = [_MARK, 0.0]
        token = draw(st.sampled_from(
            ["0.5", "-0.0", "5e-324", "1", "-0", "NaN", "Infinity", "-Infinity", "1e400",
             "true", "null", '"1"', "[1.0, 0.0]", "1.0, 2.0"]))
    ragged = n > 0 and draw(st.booleans()) and draw(st.booleans())
    if ragged:
        rows[-1].pop()
    doc = {"labels": labels, "entries": rows}
    if draw(st.booleans()):
        doc = {"entries": rows, "labels": labels, "timestamp": "now"}
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])), ensure_ascii=draw(st.booleans()))
    if token is not None:
        text = text.replace(repr(_MARK), token, 1)
    mutation = draw(st.sampled_from(
        ["none"] * 6 + ["bom", "trailing data", "whitespace", "crlf", "repeated key", "nested",
                       "utf-16", "byte 0xff", "truncated"]))
    if mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "trailing data":
        text += " x"
    elif mutation == "whitespace":
        text = "\r\n " + text + "\t\n"
    elif mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "repeated key":
        text = '{"labels": ["q"], "entries": [[[1.0, 0.0]]], ' + text[1:]
    elif mutation == "nested":
        text = '{"x": {"entries": [["]"]], "labels": [1]}, ' + text[1:]
    data = text.encode("utf-8", "surrogatepass")
    if mutation == "utf-16":
        data = text.encode("utf-16", "surrogatepass")
    elif mutation in ("byte 0xff", "truncated"):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + (b"\xff" + data[cut:] if mutation == "byte 0xff" else b"")
    valid = (
        n > 0  # no rows: the reference reads the file
        and ("\ud800" not in labels or "\\ud800" in text)  # an escaped lone surrogate is valid JSON
        and token in ("0.5", "-0.0", "5e-324")
        and not ragged
    )
    return data, valid and mutation in ("none", "whitespace", "crlf", "repeated key", "nested")


class TestRowReader:
    """``load_kernel`` reads every file as ``kernel_from_document`` of its
    ``load_document`` does, and takes the usual files a row at a time."""

    # name: (file, whether the row reader takes it)
    CASES = {
        "compact": (_COMPACT, True),
        "indent 2": (json.dumps(_K, indent=2), True),
        "CRLF": (json.dumps(_K, indent=2).replace("\n", "\r\n"), True),
        "whitespace around": (" \n" + _COMPACT + " \n\t\r\n", True),
        "entries before labels": ('{"entries": ' + _ENTRIES + ', "labels": ["a", "b"]}', True),
        "unknown keys": ('{"timestamp": "now", ' + _COMPACT[1:-1] + ', "more": {"x": [1, null, "]]"]}}', True),
        # the last of a repeated key wins
        "repeated keys": ('{"labels": ["z"], "entries": [[[2.0, 0.0]]], ' + _COMPACT[1:], True),
        "repeated labels": (_COMPACT[:-1] + ', "labels": ["c", "d"]}', True),
        "nested entries": ('{"meta": {"entries": [[["x"]]], "labels": 7}, ' + _COMPACT[1:], True),
        "non-ASCII labels": (
            json.dumps({"labels": ["\u00e9", "\u4e2d"], "entries": _K["entries"]}, ensure_ascii=False),
            True,
        ),
        "NaN": (_COMPACT.replace("0.25", "NaN", 1), True),
        "1e400": (_COMPACT.replace("0.25", "1e400", 1), True),
        "not Hermitian": (_COMPACT.replace("0.5, 0.25", "0.5, 0.3", 1), True),
        "ints": (_COMPACT.replace("[1.0, 0.0]", "[1, 0]"), False),
        "int -0": (_COMPACT.replace("[1.0, 0.0]", "[1, -0]", 1), False),
        "bool": (_COMPACT.replace("[1.0, 0.0]", "[true, 0.0]", 1), False),
        "ragged": (_COMPACT.replace(", [0.5, 0.25]", "", 1), False),
        "non-string key": ("{1: 2, " + _COMPACT[1:], False),
        "one-element pair": (_COMPACT.replace("[1.0, 0.0]", "[1.0]", 1), False),
        "three-element pair": (_COMPACT.replace("[1.0, 0.0]", "[1.0, 0.0, 0.0]", 1), False),
        # a row's values are as many as those of two pairs
        "pairs of one and three": (
            _COMPACT.replace("[1.0, 0.0], [0.5, 0.25]", "[1.0], [0.0, 0.5, 0.25]", 1),
            False,
        ),
        "bare number entry": (_COMPACT.replace("[1.0, 0.0]", "1.0", 1), False),
        "row not a list": (_COMPACT.replace("[[1.0, 0.0], [0.5, 0.25]]", "1.0", 1), False),
        "more labels than rows": (_COMPACT.replace('"b"]', '"b", "c"]'), False),
        # sized by its first row, the array would take 160 GB
        "first row too long for the file": (
            '{"labels": ["a"], "entries": [[' + ", ".join(["[0.0, 0.0]"] * 100_000) + "]]}",
            False,
        ),
        "no labels": ('{"labels": [], "entries": []}', False),
        "trailing data": (_COMPACT + " {}", False),
        "cut": (_COMPACT[:-1], False),
        "trailing comma": (_COMPACT[:-1] + ",}", False),
        "BOM": ("\ufeff" + _COMPACT, False),
        "UTF-16": (_COMPACT.encode("utf-16"), False),
        "encoded lone surrogate": (_COMPACT.encode().replace(b'"a"', b'"\xed\xa0\x80"'), False),
        "byte 0xff": (_COMPACT.encode().replace(b'"a"', b'"\xff"'), False),
        "too deep": ('{"x": ' + "[" * 100_000 + "]" * 100_000 + ", " + _COMPACT[1:], False),
        "not an object": ("[1, 2]", False),
        "empty": ("", False),
    }

    @pytest.mark.parametrize("chunk", [1, 1 << 20])
    @pytest.mark.parametrize("case", CASES)
    def test_reads_as_the_reference(self, tmp_path, case, chunk):
        data, taken = self.CASES[case]
        path = tmp_path / "k.json"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        with mock.patch.object(fileio, "_CHUNK_CHARS", chunk):
            assert _outcome(load_kernel, str(path)) == _outcome(_reference, str(path))
            assert _rows_taken(str(path)) == taken

    def test_strict_decoding_is_the_reference(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(("\ufeff" + _COMPACT).encode("utf-8"))
        # json.loads of the raw bytes would strip the BOM and take the file
        assert kernel_from_document(json.loads(path.read_bytes())).labels == ("a", "b")
        with pytest.raises(FileParseError, match="Unexpected UTF-8 BOM"):
            load_kernel(str(path))

    def test_a_pipe_is_read_once(self, tmp_path):
        # a pipe cannot be read again: a second open would wait for a writer forever
        fifo = tmp_path / "k.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(_COMPACT,), daemon=True)
        writer.start()
        assert load_kernel(str(fifo)).labels == ("a", "b")
        writer.join(timeout=10)
        assert not writer.is_alive()

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_kernel_files(), st.sampled_from([1, 5, 1 << 20]))
    def test_random_files_read_as_the_reference(self, tmp_path_factory, file, chunk):
        data, taken = file
        path = tmp_path_factory.getbasetemp() / "property.json"
        path.write_bytes(data)
        with mock.patch.object(fileio, "_CHUNK_CHARS", chunk):
            assert _outcome(load_kernel, str(path)) == _outcome(_reference, str(path))
            if taken:
                assert _rows_taken(str(path))
