"""Seeded i.i.d. draw collections with provenance metadata."""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_HEADER_TAG = "# kestenlab-batch "
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


@dataclass
class SampleBatch:
    """A matrix of i.i.d. vector draws plus how they were produced.

    ``data`` has shape (count, dim).  ``info`` records seed, truncation
    depth, step counts and similar provenance so that every downstream
    number can be traced back to its generator state.
    """

    data: np.ndarray
    kind: str
    seed: int | None = None
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
        meta = {"kind": self.kind, "seed": self.seed, "count": self.count,
                "dim": self.dim, **self.info}
        header = _HEADER_TAG + json.dumps(meta, sort_keys=True, default=str)
        cols = ",".join(f"x{i}" for i in range(self.dim))
        with atomic_write(path) as fh:
            fh.write(header + "\n")
            fh.write("# " + cols + "\n")
            _write_rows(fh, self.data)

    @classmethod
    def from_csv(cls, path) -> "SampleBatch":
        with open(path) as fh:
            first = fh.readline()
        if not first.startswith(_HEADER_TAG):
            raise ValueError(f"{path}: not a sample-batch CSV")
        meta = json.loads(first[len(_HEADER_TAG):])
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        kind = meta.pop("kind", "unknown")
        seed = meta.pop("seed", None)
        meta.pop("count", None)
        meta.pop("dim", None)
        return cls(data=data, kind=kind, seed=seed, info=meta)


def data_of(samples) -> np.ndarray:
    """Uniform access for APIs that take a SampleBatch or a raw array."""
    if isinstance(samples, SampleBatch):
        return samples.data
    return np.atleast_2d(np.asarray(samples, dtype=float))
