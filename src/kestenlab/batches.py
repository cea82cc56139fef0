"""I.i.d. draw collections with provenance metadata, and the atomic CSV writer."""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_HEADER_TAG = "kestenlab-batch "
_CSV_BLOCK_ROWS = 4096


@contextmanager
def atomic_write(path):
    """Text file handle on a temporary file beside ``path`` that replaces
    ``path`` only when the block completes.

    A failure partway leaves the previous file intact and removes the
    temporary, so no reader ever sees a truncated artifact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_rows(fh, data: np.ndarray) -> None:
    """The bytes of ``np.savetxt(fh, data, fmt="%.17g", delimiter=",")``,
    formatted with one ``%`` operation per block of rows."""
    row_fmt = ",".join(["%.17g"] * data.shape[1]) + "\n"
    for start in range(0, data.shape[0], _CSV_BLOCK_ROWS):
        rows = data[start:start + _CSV_BLOCK_ROWS]
        fh.write((row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist()))


def write_csv(path, header: str, rows: np.ndarray) -> None:
    """Each line of header after "# ", then the rows at 17 significant
    digits, written through ``atomic_write``: the bytes of
    ``np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header)``."""
    with atomic_write(path) as fh:
        fh.write("".join(f"# {line}\n" for line in header.split("\n")))
        _write_rows(fh, np.asarray(rows, dtype=float))


@dataclass
class SampleBatch:
    """A matrix of i.i.d. vector draws plus how they were produced.

    ``data`` has shape (count, dim).  ``info`` records truncation depth,
    step counts and similar provenance of the draws.
    """

    data: np.ndarray
    kind: str
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.data, axis=1)

    def to_csv(self, path) -> None:
        """One row per draw, columns are vector components.

        Metadata travels in a leading comment line so the file stays a
        plain CSV for external tools.
        """
        meta = {"kind": self.kind, "count": self.count, "dim": self.dim, **self.info}
        cols = ",".join(f"x{i}" for i in range(self.dim))
        write_csv(path, _HEADER_TAG + json.dumps(meta, sort_keys=True, default=str)
                  + "\n" + cols, self.data)

    @classmethod
    def from_csv(cls, path) -> "SampleBatch":
        with open(path) as fh:
            first = fh.readline()
        tag = "# " + _HEADER_TAG
        if not first.startswith(tag):
            raise ValueError(f"{path}: not a sample-batch CSV")
        meta = json.loads(first[len(tag):])
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        kind = meta.pop("kind", "unknown")
        meta.pop("count", None)
        meta.pop("dim", None)
        return cls(data=data, kind=kind, info=meta)


def data_of(samples) -> np.ndarray:
    """Uniform access for APIs that take a SampleBatch or a raw array."""
    if isinstance(samples, SampleBatch):
        return samples.data
    return np.atleast_2d(np.asarray(samples, dtype=float))
