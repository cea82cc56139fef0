import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kestenlab import batches
from kestenlab.batches import SampleBatch


def test_csv_round_trip(tmp_path):
    data = np.array([[1.0, -2.5], [3.141592653589793, 1e-17], [2.0 / 3.0, -1e300]])
    batch = SampleBatch(data=data, kind="stationary",
                        info={"truncation": 17, "tolerance": 1e-9})
    path = tmp_path / "batch.csv"
    batch.to_csv(path)
    loaded = SampleBatch.from_csv(path)
    assert np.array_equal(loaded.data, data)
    assert loaded.kind == "stationary"
    assert loaded.info == {"truncation": 17, "tolerance": 1e-9}


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e200, max_value=1e200),
                min_size=2, max_size=20))
@settings(max_examples=30, deadline=None)
def test_csv_round_trip_exact_floats(tmp_path_factory, values):
    data = np.asarray(values).reshape(-1, 1)
    batch = SampleBatch(data=data, kind="test")
    path = tmp_path_factory.mktemp("csv") / "b.csv"
    batch.to_csv(path)
    assert np.array_equal(SampleBatch.from_csv(path).data, data)


def test_norms_are_euclidean():
    batch = SampleBatch(data=np.array([[3.0, 4.0], [0.0, -2.0]]), kind="x")
    assert np.array_equal(batch.norms(), np.array([5.0, 2.0]))


def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "batch.csv"
    SampleBatch(data=np.array([[1.0], [2.0]]), kind="old").to_csv(path)
    before = path.read_bytes()

    def write_then_fail(fh, data):
        fh.write("3.0\n")
        raise OSError("disk full")

    monkeypatch.setattr(batches, "_write_rows", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        SampleBatch(data=np.array([[3.0], [4.0]]), kind="new").to_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["batch.csv"]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_csv_rows_match_savetxt(tmp_path, dim):
    rng = np.random.default_rng(dim)
    # more rows than one formatting block, so the block seams are covered
    data = rng.standard_normal((2 * batches._CSV_BLOCK_ROWS + 3, dim))
    data *= 10.0 ** rng.integers(-300, 300, size=data.shape)
    data[:6] = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308,
                         2.0 / 3.0, 1e16])[:, None]
    path = tmp_path / "batch.csv"
    SampleBatch(data=data, kind="x").to_csv(path)
    expected = tmp_path / "expected.csv"
    np.savetxt(expected, data, fmt="%.17g", delimiter=",")
    body = path.read_bytes().split(b"\n", 2)[2]
    assert body == expected.read_bytes()
