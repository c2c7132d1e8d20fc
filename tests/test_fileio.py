"""Document serialization: kernels, trees, certificates, reports, samples."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_glued_pair, random_gram_kernel
from kernelglue import (
    FileFormatError,
    GluingTree,
    NotATreeError,
    NotHermitianError,
    SampleBatch,
    make_kernel,
    psd_check_eigen,
    realize_process,
    sample_realization,
    verify_realization,
)
from kernelglue.fileio import (
    certificate_to_document,
    document_text,
    dump_document,
    format_sample_batch,
    kernel_from_document,
    kernel_to_document,
    load_document,
    load_kernel,
    load_tree,
    pair_to_complex,
    realization_to_document,
    report_to_document,
    tree_from_document,
    tree_to_document,
)
from kernelglue.realization import _CHUNK_ROWS


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
            text = json.dumps(kernel_to_document(k))
            back = kernel_from_document(json.loads(text))
            assert back == k

    def test_unknown_keys_ignored(self):
        doc = kernel_to_document(make_kernel(["a"], [[1.0]]))
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
        expected = np.array([[pair_to_complex(z) for z in row] for row in rows])
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
        assert pair_to_complex([1.5, -2.0]) == 1.5 - 2.0j
        assert pair_to_complex([3, 4]) == 3 + 4j
        for bad in ([1.0], [1.0, 2.0, 3.0], "12", [1.0, "x"], None):
            with pytest.raises(FileFormatError):
                pair_to_complex(bad)


class TestTreeDocuments:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        k1 = random_gram_kernel(rng, ("x0", "a"))
        k2 = random_gram_kernel(rng, ("a", "b"))
        tree = GluingTree((k1, k2), ((0, 1, "a"),))
        back = tree_from_document(json.loads(json.dumps(tree_to_document(tree))))
        assert back.edges == tree.edges
        assert all(n1 == n2 for n1, n2 in zip(back.nodes, tree.nodes))

    def test_bad_edges(self):
        node = kernel_to_document(make_kernel(["a"], [[1.0]]))
        for edges in ([[0, 1]], [[0, 1, 2]], [["0", 1, "a"]], [0]):
            with pytest.raises(FileFormatError):
                tree_from_document({"nodes": [node, node], "edges": edges})

    def test_structural_validation_propagates(self):
        node = kernel_to_document(make_kernel(["a"], [[1.0]]))
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
        doc = realization_to_document(realize_process(k, "x0"))
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
        batch = sample_realization(realize_process(k, "x0"), 8, seed=99)
        text = format_sample_batch(batch)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=99 labels=x0,a"
        assert len(lines) == 9

    def test_values_round_trip_exactly(self):
        rng = np.random.default_rng(4)
        k = random_gram_kernel(rng, ("x0", "a", "b"))
        batch = sample_realization(realize_process(k, "x0"), 20, seed=7)
        lines = format_sample_batch(batch).strip().split("\n")[1:]
        parsed = np.array([[parse_re_imi(tok) for tok in line.split(",")] for line in lines])
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(parsed, batch.samples)

    def test_text_is_the_per_entry_format(self):
        def per_entry(batch):
            lines = [f"# seed={batch.seed} labels={','.join(batch.labels)}"]
            for row in batch.samples:
                lines.append(",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(12)
        scales = 10.0 ** rng.integers(-20, 20, (1, 3, 2))
        rows = rng.standard_normal((_CHUNK_ROWS + 3, 3, 2)) * scales
        specials = [-0.0, 5e-324, -5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan, 0.0]
        for k, value in enumerate(specials):
            # both sides of the block boundary, in real and imaginary parts
            rows[k, k % 3, k % 2] = value
            rows[_CHUNK_ROWS - 1 + k % 4, k % 3, (k + 1) % 2] = value
        batch = SampleBatch(("x0", "a", "b"), rows.view(np.complex128)[..., 0], seed=5)
        assert format_sample_batch(batch) == per_entry(batch)


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
        with pytest.raises(json.JSONDecodeError):
            load_document(str(path))

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
# float rows take the writer's fast path; ragged and mixed rows must not
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
        assert text == json.dumps(doc, indent=2) + "\n"
        assert len(pieces) >= 64
        assert max(map(len, pieces)) <= 2 * len(text) / 64
