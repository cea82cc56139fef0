"""The file formats: canonical JSON, the atomic CSV writer, and the i.i.d.
draw collections with provenance metadata.

Each JSON artifact is a dataclass written as its fields (`canonical_json`)
and rebuilt from them by their annotations (`from_json`).
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import types
import typing
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


def _jsonable(obj):
    if hasattr(obj, "to_json_dict"):
        return _jsonable(obj.to_json_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits;
    a dataclass is written as its fields, or its own `to_json_dict`."""
    obj = _jsonable(obj)

    def emit(x) -> str:
        if x is None:
            return "null"
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        if isinstance(x, float):
            if not math.isfinite(x):
                return json.dumps(str(x))
            return format(x, ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        if isinstance(x, list):
            return "[" + ",".join(emit(v) for v in x) + "]"
        if isinstance(x, dict):
            return "{" + ",".join(
                f"{json.dumps(k)}:{emit(v)}" for k, v in sorted(x.items())) + "}"
        raise TypeError(f"cannot serialize {type(x)!r}")

    return emit(obj)


def write_canonical_json(obj, path: Path) -> None:
    with atomic_write(path) as fh:
        fh.write(canonical_json(obj) + "\n")


def _from_jsonable(hint, value):
    if value is None:
        return None
    if isinstance(hint, types.UnionType):       # X | None
        hint, = (a for a in typing.get_args(hint) if a is not type(None))
    if hint is np.ndarray:
        return np.asarray(value, dtype=float)
    if hint is float:               # canonical JSON writes 1.0 as 1
        return float(value)
    if dataclasses.is_dataclass(hint):
        return hint.from_json_dict(value) if hasattr(hint, "from_json_dict") \
            else from_json(hint, value)
    return value


def from_json(cls, doc: dict):
    """The dataclass ``cls`` rebuilt from the fields `canonical_json` wrote:
    a nested dataclass through its own reader, an array as floats and a
    float as a float.  Keys that are not fields are ignored; a missing
    field raises KeyError."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _from_jsonable(hints[f.name], doc[f.name])
                  for f in dataclasses.fields(cls)})


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
        write_csv(path, _HEADER_TAG + canonical_json(meta) + "\n" + cols, self.data)

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
