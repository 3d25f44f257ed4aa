"""Tests for repro.delayspace.io."""

import os
import pickle

import numpy as np
import pytest

from repro.delayspace.io import load_edge_list, load_npz, save_edge_list, save_npz
from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError


@pytest.fixture
def sample_matrix() -> DelayMatrix:
    delays = np.array(
        [
            [0.0, 12.5, np.nan],
            [12.5, 0.0, 30.0],
            [np.nan, 30.0, 0.0],
        ]
    )
    return DelayMatrix(delays, labels=["a", "b", "c"], symmetrize=False)


class TestNpzRoundTrip:
    def test_roundtrip_preserves_delays_and_labels(self, sample_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_npz(sample_matrix, path)
        loaded = load_npz(path)
        assert loaded.labels == sample_matrix.labels
        a, b = loaded.values, sample_matrix.values
        assert np.allclose(np.nan_to_num(a, nan=-1), np.nan_to_num(b, nan=-1))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DelayMatrixError):
            load_npz(tmp_path / "nope.npz")

    def test_creates_parent_dirs(self, sample_matrix, tmp_path):
        path = tmp_path / "deep" / "dir" / "m.npz"
        save_npz(sample_matrix, path)
        assert path.exists()

    def test_wrong_archive_contents_raise(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(DelayMatrixError):
            load_npz(path)

    def test_labels_are_stored_as_strings_at_the_exact_path(self, sample_matrix, tmp_path):
        path = tmp_path / "matrix"
        save_npz(sample_matrix, path)
        assert path.exists() and not (tmp_path / "matrix.npz").exists()
        with np.load(path) as data:
            assert data["labels"].dtype.kind == "U"
        assert load_npz(path).labels == ("a", "b", "c")

    @pytest.mark.parametrize("layout", ["object_member", "whole_file"])
    def test_pickled_data_is_refused_without_unpickling(self, tmp_path, layout):
        marker = tmp_path / "unpickled"

        class Payload:
            def __reduce__(self):
                return os.mkdir, (str(marker),)

        path = tmp_path / "evil.npz"
        if layout == "object_member":
            np.savez(path, delays=np.zeros((2, 2)), labels=np.array([Payload()] * 2))
        else:
            path.write_bytes(pickle.dumps(Payload()))
        with pytest.raises(DelayMatrixError, match="evil.npz is refused"):
            load_npz(path)
        assert not marker.exists()

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04 truncated", b"\x93NUMPY"])
    def test_unreadable_file_raises(self, tmp_path, content):
        path = tmp_path / "broken.npz"
        path.write_bytes(content)
        with pytest.raises(DelayMatrixError, match="broken.npz"):
            load_npz(path)


class TestEdgeListRoundTrip:
    def test_roundtrip(self, sample_matrix, tmp_path):
        path = tmp_path / "edges.txt"
        save_edge_list(sample_matrix, path)
        loaded = load_edge_list(path)
        assert loaded.n_nodes == 3
        assert loaded.delay(0, 1) == pytest.approx(12.5)
        assert loaded.delay(1, 2) == pytest.approx(30.0)
        assert np.isnan(loaded.delay(0, 2))

    def test_header_skipped(self, sample_matrix, tmp_path):
        path = tmp_path / "edges.txt"
        save_edge_list(sample_matrix, path, header=True)
        first_line = path.read_text().splitlines()[0]
        assert first_line.startswith("#")
        assert load_edge_list(path).n_nodes == 3

    def test_explicit_node_count(self, sample_matrix, tmp_path):
        path = tmp_path / "edges.txt"
        save_edge_list(sample_matrix, path)
        loaded = load_edge_list(path, n_nodes=5)
        assert loaded.n_nodes == 5

    def test_node_count_too_small_raises(self, sample_matrix, tmp_path):
        path = tmp_path / "edges.txt"
        save_edge_list(sample_matrix, path)
        with pytest.raises(DelayMatrixError):
            load_edge_list(path, n_nodes=2)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(DelayMatrixError):
            load_edge_list(path)

    def test_negative_delay_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 -5\n")
        with pytest.raises(DelayMatrixError):
            load_edge_list(path)

    def test_negative_node_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 1 5\n")
        with pytest.raises(DelayMatrixError):
            load_edge_list(path)

    def test_non_numeric_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b 5\n")
        with pytest.raises(DelayMatrixError):
            load_edge_list(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DelayMatrixError):
            load_edge_list(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DelayMatrixError):
            load_edge_list(tmp_path / "nope.txt")
