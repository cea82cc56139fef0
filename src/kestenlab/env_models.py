"""Distribution families for the driving pairs (M, Q) and moment checks.

An Environment bundles a matrix law for M, a vector law for Q drawn
independently of M, and flags (symmetry of Q, a candidate exponent for the
moment conditions); each dataclass is the schema of its config block.
"""
from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Sequence

import numpy as np



class ConfigurationError(ValueError):
    """Invalid family parameters or an inconsistent environment."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _planar(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The matrices (cos, -sin; sin, cos), shape (count, 2, 2)."""
    out = np.empty((cos.shape[0], 2, 2))
    out[:, 0, 0] = cos
    out[:, 0, 1] = -sin
    out[:, 1, 0] = sin
    out[:, 1, 1] = cos
    return out


def _spatial(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The rotations of the unit quaternions a + bi + cj + dk, shape (count, 3, 3)."""
    out = np.empty((a.shape[0], 3, 3))
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    ab, ac, ad = 2.0 * a * b, 2.0 * a * c, 2.0 * a * d
    bc, bd, cd = 2.0 * b * c, 2.0 * b * d, 2.0 * c * d
    out[:, 0, 0] = aa + bb - cc - dd
    out[:, 0, 1] = bc - ad
    out[:, 0, 2] = bd + ac
    out[:, 1, 0] = bc + ad
    out[:, 1, 1] = aa - bb + cc - dd
    out[:, 1, 2] = cd - ab
    out[:, 2, 0] = bd - ac
    out[:, 2, 1] = cd + ab
    out[:, 2, 2] = aa - bb - cc + dd
    return out


def _unit_circle(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of count uniform angles, without trig (von Neumann 1951).

    A point (x, y) uniform in the unit disk, drawn by rejection from the
    square [-1, 1)^2 (s = x^2 + y^2 >= 1 or s = 0 is refused), has a uniform
    angle phi, so ((x^2 - y^2) / s, 2xy / s) = (cos 2 phi, sin 2 phi) is
    uniform on the circle.  The refused slots, about 21 %, are topped up
    from one batch of 1.35 times their number plus 16, and again only if
    that batch was short.
    """
    x, y = 2.0 * rng.random((2, count)) - 1.0
    s = x * x + y * y
    bad = np.flatnonzero((s >= 1.0) | (s == 0.0))
    while bad.size:
        bx, by = 2.0 * rng.random((2, int(1.35 * bad.size) + 16)) - 1.0
        bs = bx * bx + by * by
        ok = np.flatnonzero((bs < 1.0) & (bs > 0.0))[:bad.size]
        fill, bad = bad[:ok.size], bad[ok.size:]
        x[fill], y[fill], s[fill] = bx[ok], by[ok], bs[ok]
    return (x * x - y * y) / s, 2.0 * x * y / s


def random_rotations(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Haar-uniform rotations on SO(dim), shape (count, dim, dim).

    d = 2 rotates by a uniform angle whose cos and sin come from a point
    uniform in the unit disk (``_unit_circle``); d = 3 a normalized
    Gaussian 4-vector, which is uniform on S^3, so its quaternion rotation
    is Haar (Shoemake 1992); d >= 4 the Q factor of a Gaussian matrix with
    the QR sign gauge fixed (Mezzadri 2007).
    """
    if dim == 1:
        return np.ones((count, 1, 1))
    if dim == 2:
        return _planar(*_unit_circle(rng, count))
    if dim == 3:
        u = rng.standard_normal((4, count))
        u /= np.sqrt(np.einsum("ij,ij->j", u, u))
        return _spatial(*u)
    g = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(g)
    # fix the QR gauge so q is Haar on O(dim), then push onto SO(dim)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    q = q * sign[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, -1] *= -1.0
    return q


def _choose(rng: np.random.Generator, values, probs, count: int) -> np.ndarray:
    """count draws from the atoms ``values`` with weights ``probs``.

    The same stream and values as ``rng.choice(values, count, p=probs)``,
    without its per-call argument checks: one uniform u per draw, and the
    atom's index is the number of normalized cdf values <= u, counted in an
    integer array by comparing u with each cdf value in turn, then taken
    from ``values`` at once.
    """
    values = np.asarray(values)
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    u = rng.random(count)
    index = np.zeros(count, dtype=np.intp)
    for c in cdf[:-1]:
        index += u >= c
    return values.take(index)


def _check_probs(probs: Sequence[float], what: str) -> tuple[float, ...]:
    p = tuple(float(x) for x in probs)
    if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
        raise ConfigurationError(f"{what}: probabilities must be nonnegative and sum to 1")
    return p


# ---------------------------------------------------------------------------
# matrix laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarTwoPoint:
    """M takes one of two nonzero scalar values (dimension 1)."""

    values: tuple[float, float] = (2.0, 0.5)
    probs: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)

    def __post_init__(self):
        if len(self.values) != 2 or len(self.probs) != 2:
            raise ConfigurationError("scalar_two_point: need exactly two atoms")
        if any(v == 0.0 for v in self.values):
            raise ConfigurationError("scalar_two_point: atoms must be nonzero")
        object.__setattr__(self, "probs", _check_probs(self.probs, "scalar_two_point"))

    @property
    def dim(self) -> int:
        return 1

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return _choose(rng, self.values, self.probs, count).reshape(count, 1, 1)


@dataclass(frozen=True)
class Similarity:
    """M = c * O with O a uniform rotation and c a positive discrete scale.

    Every draw satisfies |vM| = c for all unit v, so the operator norm is
    exactly the scale factor.
    """

    dim: int
    scale_values: tuple[float, ...]
    scale_probs: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError("similarity: dim must be >= 1")
        if len(self.scale_values) != len(self.scale_probs) or not self.scale_values:
            raise ConfigurationError("similarity: scale atoms and probs must match")
        if any(v <= 0 for v in self.scale_values):
            raise ConfigurationError("similarity: scales must be positive")
        object.__setattr__(self, "scale_values", tuple(float(v) for v in self.scale_values))
        object.__setattr__(self, "scale_probs", _check_probs(self.scale_probs, "similarity"))

    def scales(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The scale factors c of count draws, the first draw of ``sample``."""
        return _choose(rng, self.scale_values, self.scale_probs, count)

    def planar(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count planar draws c (cos t + i sin t), the numbers by which each
        M multiplies x + iy; ``sample`` at d = 2 fills its matrices from them."""
        c = self.scales(rng, count)
        cos, sin = _unit_circle(rng, count)
        z = np.empty(count, dtype=complex)
        np.multiply(c, cos, out=z.real)
        np.multiply(c, sin, out=z.imag)
        return z

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.dim == 2:
            z = self.planar(rng, count)
            return _planar(z.real, z.imag)
        c = self.scales(rng, count)
        return c[:, None, None] * random_rotations(rng, count, self.dim)


@dataclass(frozen=True)
class GaussianMatrix:
    """i.i.d. N(0, scale^2) entries (Ginibre); a singular draw has probability 0."""

    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigurationError("gaussian matrix: scale must be positive")
        if self.dim < 1:
            raise ConfigurationError("gaussian matrix: dim must be >= 1")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.scale * rng.standard_normal((count, self.dim, self.dim))


@dataclass(frozen=True)
class DiagonalTimesRotation:
    """M = diag(exp(N(log_mean, log_sigma^2))) @ O with O a uniform rotation."""

    dim: int
    log_mean: float = 0.0
    log_sigma: float = 0.5

    def __post_init__(self):
        if self.log_sigma < 0:
            raise ConfigurationError("diag_rotation: log_sigma must be nonnegative")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        diags = np.exp(self.log_mean + self.log_sigma * rng.standard_normal((count, self.dim)))
        rot = random_rotations(rng, count, self.dim)
        return diags[:, :, None] * rot


@dataclass(frozen=True)
class ConstantMatrix:
    """Deterministic M.  Invertibility is deliberately not enforced here:
    degenerate choices (zero, expanding multiples of the identity) are the
    standard probes for the simulation layer."""

    matrix: tuple

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ConfigurationError("constant matrix must be square")
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in m))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        m = np.asarray(self.matrix, dtype=float)
        return np.broadcast_to(m, (count, *m.shape)).copy()


@dataclass(frozen=True)
class MatrixMixture:
    """Draws the component first, then a matrix from it."""

    components: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) != len(self.weights) or not self.components:
            raise ConfigurationError("mixture: components and weights must match")
        object.__setattr__(self, "weights", _check_probs(self.weights, "mixture"))
        if len({law.dim for law in self.components}) > 1:
            raise ConfigurationError("mixture: components must share one dimension")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        idx = _choose(rng, range(len(self.components)), self.weights, count)
        out = np.empty((count, self.dim, self.dim))
        for j, law in enumerate(self.components):
            take = idx == j
            n = int(take.sum())
            if n:
                out[take] = law.sample(rng, n)
        return out


# ---------------------------------------------------------------------------
# vector laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantVector:
    values: tuple[float, ...]

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", tuple(v))

    @property
    def dim(self) -> int:
        return len(self.values)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.values), (count, self.dim)).copy()


@dataclass(frozen=True)
class GaussianVector:
    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigurationError("gaussian vector: scale must be positive")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = rng.standard_normal((count, self.dim))
        out *= self.scale
        return out


@dataclass(frozen=True)
class TwoPointVector:
    first: tuple[float, ...]
    second: tuple[float, ...]
    prob_first: float = 0.5

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.first, dtype=float))
        b = np.atleast_1d(np.asarray(self.second, dtype=float))
        if a.shape != b.shape:
            raise ConfigurationError("two_point vector: atoms must share a dimension")
        if not 0.0 <= self.prob_first <= 1.0:
            raise ConfigurationError("two_point vector: prob_first outside [0, 1]")
        object.__setattr__(self, "first", tuple(a))
        object.__setattr__(self, "second", tuple(b))

    @property
    def dim(self) -> int:
        return len(self.first)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        pick = rng.random(count) < self.prob_first
        a = np.asarray(self.first)
        b = np.asarray(self.second)
        return np.where(pick[:, None], a, b)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Environment:
    """Joint description of the i.i.d. driving sequence (M_n, Q_n)."""

    dim: int = field(metadata={"range": "[1, inf)"})
    matrix_law: object
    vector_law: object
    q_symmetric: bool = False
    kappa0_hint: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if self.matrix_law.dim != self.dim:
            raise ConfigurationError("matrix law dimension does not match env dim")
        if self.vector_law.dim != self.dim:
            raise ConfigurationError("vector law dimension does not match env dim")
        if self.kappa0_hint <= 0:
            raise ConfigurationError("kappa0_hint must be positive")


def sample_q(env: Environment, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draws of Q; with q_symmetric each raw draw gets an independent sign.

    The signs are packed bits, one fair bit per draw (bit 1 is -1), taken in
    order from the little-endian bytes of ceil(count / 64) raw 64-bit outputs
    of the generator, and multiplied in place; ``rng.bytes`` would cost
    several microseconds more per call.
    """
    q = env.vector_law.sample(rng, count)
    if env.q_symmetric:
        words = rng.bit_generator.random_raw(-(-count // 64)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), count=count)
        # every vector law returns a fresh array, so the sign goes in place
        q *= (1.0 - 2.0 * bits)[:, None]
    return q


def sample_pairs(env: Environment, rng: np.random.Generator,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch of (M, Q) draws; M first, then Q, then symmetrization signs."""
    m = env.matrix_law.sample(rng, count)
    q = sample_q(env, rng, count)
    return m, q


# ---------------------------------------------------------------------------
# config blocks
# ---------------------------------------------------------------------------

MATRIX_FAMILIES = {"scalar_two_point": ScalarTwoPoint, "similarity": Similarity,
                   "gaussian": GaussianMatrix, "diag_rotation": DiagonalTimesRotation,
                   "constant": ConstantMatrix, "mixture": MatrixMixture}
VECTOR_FAMILIES = {"constant": ConstantVector, "gaussian": GaussianVector,
                   "two_point": TwoPointVector}


def bounded(default, interval: str):
    """A field whose value, or each item of a tuple value, must lie in
    `interval`, written as "(0, 0.05]" or "[2, inf)"."""
    return field(default=default, metadata={"range": interval})


def _within(x, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < x or (interval[0] == "[" and x == lo))
            and (x < hi or (interval[-1] == "]" and x == hi)))


def _coerce(value, annotation: str, path: str):
    """A config value checked against its field's annotation: a number is
    never read from a string or a bool, an int never from a float, a float
    field holds a float and a list becomes a tuple."""
    if value is None and annotation.endswith(" | None"):
        return None
    kind, _, items = annotation.removesuffix(" | None").partition("[")
    if kind == "tuple" and items and isinstance(value, (list, tuple)):
        item = items.split(",")[0]
        value = [_coerce(x, item, f"{path}[{i}]") for i, x in enumerate(value)]
    integer = isinstance(value, int) and not isinstance(value, bool)
    ok = {"bool": isinstance(value, bool), "int": integer, "str": isinstance(value, str),
          # compared, not converted: a float() of a 400-digit integer overflows
          "float": (integer or isinstance(value, float)) and abs(value) <= sys.float_info.max,
          "tuple": isinstance(value, (list, tuple))}.get(kind, True)
    if not ok:
        raise ConfigurationError(f"{path}: expected {annotation}, got {value!r}")
    if kind == "float":
        return float(value)
    return tuple(value) if isinstance(value, list) else value


def check_field(cls, name: str, value, path: str):
    """`value` read for field `name` of cls: a nested block when the field's
    default is a dataclass, else a coerced value held to the field's range."""
    f = next(f for f in fields(cls) if f.name == name)
    if is_dataclass(f.default):
        return from_block(type(f.default), value, path)
    value = _coerce(value, f.type, path)
    interval = f.metadata.get("range")
    if interval and value is not None:
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, x in items:
            if not _within(x, interval):
                where = path if i is None else f"{path}[{i}]"
                raise ConfigurationError(f"{where}: expected a value in {interval}, got {x!r}")
    return value


def from_block(cls, block, path: str, **given):
    """cls built from a config mapping whose keys are its fields, less those
    `given`: a field without a default is required, an omitted block reads as
    empty, and a value the class refuses is refused with the block's path."""
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {block!r}")
    prefix = f"{path}." if path else ""
    names = [f.name for f in fields(cls) if f.name not in given]
    for key in block:
        if key not in names:
            raise ConfigurationError(f"{prefix}{key}: unknown key; valid: {', '.join(names)}")
    for f in fields(cls):
        if f.name in block:
            given[f.name] = check_field(cls, f.name, block[f.name], prefix + f.name)
        elif f.name not in given and f.default is MISSING:
            raise ConfigurationError(f"{prefix}{f.name}: missing required key")
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def build_law(block, families: dict, dim: int, path: str):
    """The law a config block describes: `family` names a class of
    `families`, and the other keys are its fields, with `dim` taken from the
    environment.  `constant` also takes `scale`, for scale times the
    identity, and each of a mixture's `components` is a matrix-law block."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {block!r}")
    block = dict(block)
    name = block.pop("family", None)
    cls = families.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigurationError(
            f"{path}.family: unknown family {name!r}; valid: {', '.join(families)}")
    if cls is ConstantMatrix and "scale" in block and "matrix" not in block:
        scale = _coerce(block.pop("scale"), "float", f"{path}.scale")
        block["matrix"] = tuple(map(tuple, scale * np.eye(dim)))
    if cls is ConstantMatrix and "matrix" in block:
        block["matrix"] = tuple(
            _coerce(row, "tuple[float, ...]", f"{path}.matrix[{i}]")
            for i, row in enumerate(_coerce(block["matrix"], "tuple", f"{path}.matrix")))
    if cls is MatrixMixture and "components" in block:
        block["components"] = tuple(
            build_law(c, MATRIX_FAMILIES, dim, f"{path}.components[{i}]")
            for i, c in enumerate(_coerce(block["components"], "tuple", f"{path}.components")))
    given = {"dim": dim} if "dim" in {f.name for f in fields(cls)} else {}
    return from_block(cls, block, path, **given)


def build_environment(block, path: str) -> Environment:
    """The Environment a config block describes: its keys are the fields of
    Environment, and `matrix_law` and `vector_law` are family blocks."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {block!r}")
    dim = check_field(Environment, "dim", block.get("dim"), f"{path}.dim")
    laws = {key: build_law(block[key], families, dim, f"{path}.{key}")
            for key, families in (("matrix_law", MATRIX_FAMILIES),
                                  ("vector_law", VECTOR_FAMILIES)) if key in block}
    return from_block(Environment, {**block, **laws}, path)


# ---------------------------------------------------------------------------
# moment assumption checks
# ---------------------------------------------------------------------------

NOT_CHECKABLE = "not-checkable"


@dataclass
class AssumptionEntry:
    name: str
    verdict: str                      # "pass" | "fail" | "not-checkable"
    estimate: float | None = None
    std_error: float | None = None
    detail: dict | None = None


@dataclass
class AssumptionReport:
    entries: dict
    mc_n: int

    def verdict(self, name: str) -> str:
        return self.entries[name].verdict

    def all_checkable_pass(self) -> bool:
        return all(e.verdict == "pass" for e in self.entries.values()
                   if e.verdict != NOT_CHECKABLE)


def _moment_diagnostic(x: np.ndarray) -> tuple[float, float, bool]:
    """Sample mean, its standard error, and a crude integrability verdict.

    The verdict demands all values finite and the top percentile of draws
    contributing at most half of the total mass; a heavier concentration
    signals a sample mean that is still driven by single extremes.
    """
    x = np.asarray(x, dtype=float)
    finite = bool(np.all(np.isfinite(x)))
    mean = float(np.mean(x)) if finite else math.inf
    se = float(np.std(x) / math.sqrt(len(x))) if finite else math.inf
    ok = finite
    total = float(np.sum(x)) if finite else math.inf
    if finite and total > 0:
        k = max(1, int(0.01 * len(x)))
        top = float(np.sort(x)[-k:].sum())
        ok = ok and top <= 0.5 * total
    return mean, se, ok


def check_assumptions(env: Environment, mc_n: int,
                      rng: np.random.Generator) -> AssumptionReport:
    """Monte-Carlo feasibility checks for the moment assumptions.

    Support/density conditions cannot be certified from draws alone, so
    those entries are always reported as not-checkable.  Inconclusive
    moment checks come back as "fail" with the estimate attached.  One batched
    SVD gives ||M|| (the largest singular value) and inf_v |vM| (the least).
    """
    if mc_n < 1000:
        raise ConfigurationError("check_assumptions: need mc_n >= 1000")
    m = env.matrix_law.sample(rng, mc_n)
    q = sample_q(env, rng, mc_n)
    singular = np.linalg.svd(m, compute_uv=False)
    m_norms = singular[:, 0]
    q_norms = np.linalg.norm(q, axis=1)
    entries: dict[str, AssumptionEntry] = {}

    # A1 / A2: log-moment finiteness of ||M|| and ||Q||
    for name, norms in (("A1", m_norms), ("A2", q_norms)):
        logplus = np.log(np.maximum(norms, 1.0))
        mean, se, ok = _moment_diagnostic(logplus)
        entries[name] = AssumptionEntry(name, "pass" if ok else "fail", mean, se)

    # A3: invertibility is a per-family construction property
    det = np.linalg.det(m)
    frac_singular = float(np.mean(np.abs(det) < 1e-12))
    entries["A3"] = AssumptionEntry("A3", "pass" if frac_singular == 0.0 else "fail",
                                    frac_singular, None,
                                    {"singular_fraction": frac_singular})

    # A4 / A4* / A5: projective support and density conditions
    for name in ("A4", "A4*", "A5"):
        entries[name] = AssumptionEntry(name, NOT_CHECKABLE)

    # A6: no almost-sure fixed point of x -> Mx + Q
    entries["A6"] = _check_a6(env, m, q)

    # A7: moment conditions at the candidate exponent
    entries["A7"] = _check_a7(env, singular[:, -1], m_norms, q_norms)

    return AssumptionReport(entries=entries, mc_n=mc_n)


def _check_a6(env: Environment, m: np.ndarray, q: np.ndarray) -> AssumptionEntry:
    if not np.all(np.isclose(q, q[0], atol=1e-14)):
        return AssumptionEntry("A6", "pass", 0.0, None, {"reason": "independent M, Q and Q non-degenerate"})
    # look for a common solution of M r + Q = r across the sampled pairs
    d = env.dim
    eye = np.eye(d)
    r_hat = None
    for k in range(min(len(m), 32)):
        a = eye - m[k]
        if abs(np.linalg.det(a)) > 1e-12:
            r_hat = np.linalg.solve(a, q[k])
            break
    if r_hat is None:
        return AssumptionEntry("A6", "pass", 0.0, None,
                               {"reason": "no candidate fixed point solvable"})
    resid = m @ r_hat + q - r_hat
    frac_fixed = float(np.mean(np.linalg.norm(resid, axis=1) <= 1e-10 * (1.0 + np.linalg.norm(r_hat))))
    verdict = "fail" if frac_fixed >= 1.0 else "pass"
    return AssumptionEntry("A6", verdict, frac_fixed, None,
                           {"candidate_fixed_point": r_hat.tolist()})


def _check_a7(env: Environment, inf_norms: np.ndarray,
              m_norms: np.ndarray, q_norms: np.ndarray) -> AssumptionEntry:
    """At kappa0: E sigma_min(M)^kappa0 >= 1 (sigma_min(M) is inf over unit v
    of |vM|), with E ||M||^kappa0 log+ ||M|| finite and 0 < E |Q|^kappa0 < inf."""
    k0 = env.kappa0_hint
    inf_pow = inf_norms ** k0
    inf_est = float(np.mean(inf_pow))
    inf_se = float(np.std(inf_pow) / math.sqrt(len(inf_pow)))

    with np.errstate(over="ignore"):
        m_moment = m_norms ** k0 * np.log(np.maximum(m_norms, 1.0))
        q_moment = q_norms ** k0
    _, _, m_ok = _moment_diagnostic(m_moment)
    q_mean, q_se, q_ok = _moment_diagnostic(q_moment)

    inf_ok = inf_est >= 1.0 - 2.0 * inf_se
    q_positive = q_mean > 0.0
    verdict = "pass" if (inf_ok and m_ok and q_ok and q_positive) else "fail"
    detail = {
        "inf_direction_moment": inf_est,
        "inf_direction_moment_se": inf_se,
        "m_kappa0_logplus_finite": m_ok,
        "q_kappa0_moment": q_mean,
        "q_kappa0_moment_se": q_se,
        "q_moment_positive": q_positive,
        "kappa0": k0,
    }
    return AssumptionEntry("A7", verdict, inf_est, inf_se, detail)
