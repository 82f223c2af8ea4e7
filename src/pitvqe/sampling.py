"""Finite-shot measurement, synthetic readout noise, and mitigation.

The noise model is a tensor product of per-qubit 2x2 confusion matrices
M[observed][true].  The channel is applied one qubit at a time, O(n 2^n),
and never formed as a 2^n x 2^n matrix; mitigation solves a
simplex-constrained least-squares inversion of it so mitigated
probabilities stay non-negative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import QUBIT_CAP
from .simulator import StateVector, probabilities

# typical transmon readout magnitudes for the synthetic "hardware-like" runs
DEFAULT_P10 = 0.03  # p(observe 0 | true 1)
DEFAULT_P01 = 0.015  # p(observe 1 | true 0)

# Shots corrupted at a time: bounds the (shots, n) array of uniform draws.
_SHOT_CHUNK = 1 << 14
# Mitigation stops once no probability moves by more than this in one step.
_MITIGATE_TOL = 1e-14
# Iterations mitigation may take whatever the condition number promises; a
# nearly singular channel would otherwise run for days.
_MITIGATE_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class Counts:
    shots: int
    histogram: dict[int, int]  # basis index -> count

    def __post_init__(self):
        if sum(self.histogram.values()) != self.shots:
            raise ValueError("histogram does not sum to the shot count")

    def to_distribution(self, n: int) -> np.ndarray:
        size = len(self.histogram)
        dist = np.zeros(1 << n)
        dist[np.fromiter(self.histogram, np.int64, size)] = (
            np.fromiter(self.histogram.values(), float, size) / self.shots)
        return dist


@dataclass(frozen=True)
class ReadoutModel:
    matrices: tuple[np.ndarray, ...]  # one column-stochastic 2x2 per qubit

    def __post_init__(self):
        mats = []
        for k, m in enumerate(self.matrices):
            m = np.asarray(m, dtype=float)
            if m.shape != (2, 2):
                raise ValueError(f"qubit {k}: confusion matrix must be 2x2")
            if np.any(m < 0) or np.any(m > 1):
                raise ValueError(f"qubit {k}: entries must lie in [0, 1]")
            if not np.allclose(m.sum(axis=0), 1.0, atol=1e-12):
                raise ValueError(f"qubit {k}: columns must sum to 1")
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def n(self) -> int:
        return len(self.matrices)


def _flip_matrix(p10: float, p01: float) -> np.ndarray:
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def identity_model(n: int) -> ReadoutModel:
    return ReadoutModel(tuple(np.eye(2) for _ in range(n)))


def flip_model(n: int, p10: float = DEFAULT_P10, p01: float = DEFAULT_P01) -> ReadoutModel:
    m = _flip_matrix(p10, p01)
    return ReadoutModel(tuple(m for _ in range(n)))


def load_readout_model(path, n: int) -> ReadoutModel:
    """Noise file: one line ``q<i> p10 p01`` per qubit; unlisted qubits are clean.

    ``#`` starts a comment.  A malformed line or a qubit outside [0, n)
    raises ValueError naming the file and line.
    """
    mats = [np.eye(2) for _ in range(n)]
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            try:
                if len(parts) != 3 or not parts[0].startswith("q"):
                    raise ValueError
                qubit = int(parts[0][1:])
                p10, p01 = float(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected 'q<i> p10 p01', got {stripped!r}"
                ) from None
            if not 0 <= qubit < n:
                raise ValueError(f"{path}:{lineno}: qubit {qubit} out of range")
            mats[qubit] = _flip_matrix(p10, p01)
    return ReadoutModel(tuple(mats))


def sample(state: StateVector, shots: int, seed: int) -> Counts:
    """Draw i.i.d. measurement outcomes; deterministic per seed."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(seed)
    # a squared amplitude can round to just above 1; clipping leaves every
    # in-range vector, and so the counts drawn from it, unchanged
    counts = rng.multinomial(shots, np.clip(probabilities(state), 0.0, 1.0))
    histogram = {int(i): int(c) for i, c in enumerate(counts) if c}
    return Counts(shots=shots, histogram=histogram)


def _check_model_size(model: ReadoutModel) -> None:
    if model.n > QUBIT_CAP:
        raise ResourceWarning(
            f"readout channel over 2^{model.n} outcomes exceeds cap n <= {QUBIT_CAP}")


def _apply_channel(matrices, x: np.ndarray) -> np.ndarray:
    """Apply the tensor product of per-qubit 2x2 ``matrices`` to ``x``.

    Qubit q is bit q of the index, so axis 1 of the (-1, 2, 2^q) view is
    that bit; each factor is one batched 2x2 product.  For qubit 0 a batched
    product would be 2^(n-1) separate 2x2 by 2x1 products, so that factor is
    one contraction.
    """
    for q, m in enumerate(matrices):
        x = x.reshape(-1, 2, 1 << q)
        x = np.einsum("ob,kbl->kol", m, x) if q == 0 else np.matmul(m, x)
    return x.reshape(-1)


def _check_outcomes(dist: np.ndarray, model: ReadoutModel) -> None:
    if dist.size != 1 << model.n:
        raise ValueError(
            f"distribution over {dist.size} outcomes, model covers {1 << model.n}"
        )


def corrupt_distribution(dist: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Exact action of the confusion channel on a distribution."""
    _check_model_size(model)
    dist = np.asarray(dist, dtype=float)
    _check_outcomes(dist, model)
    return _apply_channel(model.matrices, dist)


def corrupt_counts(counts: Counts, model: ReadoutModel, seed: int) -> Counts:
    """Per-shot stochastic bit flips drawn from the confusion model.

    Shots are taken in ascending order of their true outcome with one uniform
    draw per qubit, qubit 0 first; bit q reads 1 when its draw falls below
    p(observe 1 | true bit q).
    """
    _check_model_size(model)
    rng = np.random.default_rng(seed)
    outcomes = sorted(counts.histogram)
    qubits = np.arange(model.n)
    p_one = np.array([m[1] for m in model.matrices]).reshape(model.n, 2)
    # each bit's threshold per distinct true outcome, then one row per shot
    thresholds = p_one[qubits, (np.array(outcomes, dtype=np.int64)[:, None] >> qubits) & 1]
    rows = np.repeat(np.arange(len(outcomes)), [counts.histogram[i] for i in outcomes])
    observed = np.empty(rows.size, dtype=np.int64)
    for start in range(0, rows.size, _SHOT_CHUNK):
        chunk = thresholds.take(rows[start:start + _SHOT_CHUNK], axis=0)
        flips = rng.uniform(size=chunk.shape) < chunk
        observed[start:start + _SHOT_CHUNK] = flips @ (1 << qubits)
    values, freq = np.unique(observed, return_counts=True)
    return Counts(shots=counts.shots,
                  histogram=dict(zip(values.tolist(), freq.tolist(), strict=True)))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1}, by sorting (Duchi et al. 2008)."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    rank = np.flatnonzero(u * np.arange(1, v.size + 1) > excess)[-1]
    return np.maximum(v - excess[rank] / (rank + 1), 0.0)


def mitigate(noisy: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Invert the confusion channel by least squares over the probability simplex.

    Minimizes F(x) = ||A x - p||^2 / 2 subject to x >= 0 and sum(x) = 1 by
    accelerated projected gradient: FISTA with the constant momentum of the
    strongly convex case (Beck 2017, V-FISTA), A applied one qubit at a time.
    The extreme eigenvalues of A^T A, L and mu, are products of per-qubit
    squared singular values, and F(x_k) - F* shrinks as (1 - sqrt(mu/L))^k,
    which sizes the iteration cap.  Stops once no probability moves by more
    than 1e-14 in a step; raises FloatingPointError for a singular channel
    or when the cap is reached first.
    """
    _check_model_size(model)
    noisy = np.asarray(noisy, dtype=float).reshape(-1)
    _check_outcomes(noisy, model)
    for k, m in enumerate(model.matrices):
        if abs(np.linalg.det(m)) < 1e-12:
            raise FloatingPointError(f"qubit {k}: confusion matrix is singular")
    sigmas = [np.linalg.svd(m, compute_uv=False) for m in model.matrices]
    lipschitz = math.prod(s[0] ** 2 for s in sigmas)
    mu = math.prod(s[1] ** 2 for s in sigmas)
    root_kappa = math.sqrt(lipschitz / mu)
    momentum = (root_kappa - 1.0) / (root_kappa + 1.0)
    # F(x_0) - F* + mu/2 ||x_0 - x*||^2 <= c0 on the simplex; once
    # 2 c0 / mu (1 - 1/root_kappa)^k <= (tol / 2)^2 every later iterate lies
    # within tol / 2 of x*, so a step can no longer exceed tol
    c0 = 0.5 * (math.sqrt(lipschitz) + float(np.linalg.norm(noisy))) ** 2 + mu
    bound = math.ceil(root_kappa * math.log(8.0 * c0 / (mu * _MITIGATE_TOL ** 2))) + 1
    cap = min(bound, _MITIGATE_MAX_ITERATIONS)
    # the gradient step y - A^T (A y - p) / L, with A^T A / L a tensor product too
    gram = tuple(m.T @ m / s[0] ** 2 for m, s in zip(model.matrices, sigmas, strict=True))
    target = _apply_channel(tuple(m.T for m in model.matrices), noisy) / lipschitz
    x = y = _project_simplex(noisy)
    for _ in range(cap):
        x_next = _project_simplex(y - _apply_channel(gram, y) + target)
        step = float(np.abs(x_next - x).max())
        if step <= _MITIGATE_TOL:
            return x_next
        y = x_next + momentum * (x_next - x)
        x = x_next
    raise FloatingPointError(
        f"mitigation did not converge in {cap} iterations (last step {step:.1e})")


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> float:
    """-ln sum sqrt(p q); 0 iff the distributions coincide, inf if disjoint."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions live on different outcome spaces")
    coeff = float(np.sqrt(p * q).sum())
    if coeff <= 0.0:
        return np.inf
    # an overlap that rounds to 1 or above would give -0.0 or a negative distance
    return float(-np.log(coeff)) if coeff < 1.0 else 0.0


# Count rows formatted at a time, 2^10.  Chunk strings of about 32 kB stay
# below the size the allocator maps separately, so one chunk's memory serves
# the next and the peak stays below that of formatting every row at once.
_CSV_CHUNK = 1 << 10
# Rows of a distribution formatted at a time, 2^12: a chunk's byte matrix
# takes (n + 34) << 12 bytes.
_DIST_CHUNK_BITS = 12
# A probability's "%.12g" text fills a field of 32 NUL-padded bytes: an
# 8-byte prefix ("0." to "0.000"), the 12 digits in four 4-byte groups with
# the point after the lead digit, and an 8-byte exponent suffix ("e-05" to
# "e-324"); any float's text fits in it.
_FIELD = 32
# Decimal exponents -k of the positive doubles below 10, k from 0 to -324.
_EXPONENTS = 325


def _label_bytes(indices: np.ndarray, n: int) -> np.ndarray:
    """The ASCII bitstring of each basis index, qubit 0 first, one row each:
    the bits of its four little-endian bytes, low bit first."""
    raw = np.asarray(indices, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(raw, axis=1, count=n, bitorder="little")
    bits += ord("0")
    return bits


def _labels(indices: np.ndarray, n: int) -> list[str]:
    """The bitstring of each basis index, qubit 0 first."""
    return _label_bytes(indices, n).view(f"S{n}").ravel().astype(str).tolist()


def counts_to_csv(counts: Counts, n: int) -> str:
    """One ``bitstring,count`` row per observed outcome; each chunk of rows is
    one %-format over its labels and counts, interleaved."""
    indices = sorted(counts.histogram)
    parts = ["bitstring,count\n"]
    for start in range(0, len(indices), _CSV_CHUNK):
        chunk = indices[start:start + _CSV_CHUNK]
        cells = [None] * (2 * len(chunk))
        cells[0::2] = _labels(np.array(chunk, dtype=np.int64), n)
        cells[1::2] = [counts.histogram[i] for i in chunk]
        parts.append("%s,%d\n" * len(chunk) % tuple(cells))
    return "".join(parts)


@functools.cache
def _g12_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the "%.12g" fields are built from, per decimal exponent -e: the
    three factors of 10^(11 + e), whether the point follows the lead digit
    (as an offset into the group table) and the 8-byte prefix and suffix;
    and the group table, four 4-byte variants of each 3-digit group 000-999:
    plain, the last nonzero group with its trailing zeros dropped, and both
    again as a lead group with the point after its first digit."""
    e = np.arange(_EXPONENTS)
    powers = 10.0 ** np.arange(23)  # exact
    scale = np.stack((powers[np.minimum(11 + e, 22)], powers[np.clip(e - 11, 0, 22)],
                      10.0 ** np.maximum(e - 33, 0)))
    point = np.where((e == 0) | (e > 4), 2000, 0)
    edges = b"".join((("0." + "0" * (k - 1) if 1 <= k <= 4 else "").ljust(8, "\0")
                      + (f"e-{k:02d}" if k > 4 else "").ljust(8, "\0")).encode("ascii")
                     for k in e)
    edges = np.frombuffer(edges, np.uint64).reshape(-1, 2)
    groups = np.arange(1000)
    digits = (groups[:, None] // np.array((100, 10, 1)) % 10 + ord("0")).astype(np.uint8)
    # a digit stays in a last group when it or a digit after it is nonzero
    kept = np.cumsum((digits != ord("0"))[:, ::-1], axis=1)[:, ::-1] > 0
    table = np.zeros((4, 1000, 4), np.uint8)
    table[0, :, :3] = digits
    table[1, :, :3] = digits * kept
    table[2, :, 0], table[2, :, 1], table[2, :, 2:] = digits[:, 0], ord("."), digits[:, 1:]
    table[3] = table[2]
    table[3, :, 1:] *= kept[:, (1, 1, 2)]  # the lead digit always stays
    tables = scale, point, edges, table.view(np.uint32).reshape(-1)
    for array in tables:
        array.setflags(write=False)
    return tables


def _g12_fields(values: np.ndarray) -> np.ndarray:
    """Each value's ``"%.12g" % value`` as a (len(values), 4) uint64 array of
    NUL-padded fields.

    A value in (0, 10) times 10^(11 + e), e = -floor(log10(value)), lies in
    [1e11, 1e12); the three factors keep 10^(11 + e) finite and exact down to
    1e-33, so the scaled value is within 5e-4 of exact and rounds as the exact
    decimal does unless its fraction lies within 1e-3 of one half.  Such near
    ties, values whose exponent guess is off or that round up to the next
    power of ten, and -0.0, negatives, values from 10 up and non-finite
    values are formatted by Python one row at a time.
    """
    scale, point, edges, table = _g12_tables()
    # steps write into buffers whose contents the rest no longer reads, and
    # names are dropped once read, so few vectors of len(values) are live
    regular = values > 0.0
    regular &= values < 10.0
    zero = values == 0.0
    zero &= ~np.signbit(values)  # "0", as a lead digit 0
    python = ~(regular | zero)
    x = np.where(regular, values, 1.0)
    e = np.log10(x)
    np.floor(e, out=e)
    e = np.negative(e, out=e).astype(np.intp)
    scaled = scale[0].take(e)
    scaled *= x
    scaled *= scale[1].take(e, out=x, mode="clip")
    scaled *= scale[2].take(e, out=x, mode="clip")
    python |= scaled < 1e11
    python |= scaled >= 999999999999.5
    whole = np.floor(scaled, out=x)
    frac = np.subtract(scaled, whole, out=scaled)
    whole += frac > 0.5
    whole *= regular
    frac -= 0.5
    python |= np.abs(frac, out=frac) <= 1e-3
    del frac, scaled
    high, low = np.divmod(whole.astype(np.int64), 1000000)
    del whole, x
    index = np.empty((len(values), 4), np.intp)
    np.divmod(high, 1000, out=(index[:, 0], index[:, 1]))
    np.divmod(low, 1000, out=(index[:, 2], index[:, 3]))
    del high, low
    # from the last nonzero group on, groups drop their trailing zeros
    tail = index[:, 3] == 0
    index[:, 3] += 1000
    index[:, 2] += tail * 1000
    tail &= index[:, 2] == 1000
    index[:, 1] += tail * 1000
    tail &= index[:, 1] == 1000
    index[:, 0] += tail * 1000 + point.take(e)
    fields = np.empty((len(values), 4), np.uint64)
    fields[:, 1:3] = table.take(index, mode="clip").view(np.uint64)  # python rows may clip
    del index
    fields[:, 0::3] = edges.take(e, axis=0)
    rows = np.flatnonzero(python)
    if rows.size:
        text = ["%.12g" % value for value in values[rows].tolist()]
        fields[rows] = np.array(text, dtype=f"S{_FIELD}").view(np.uint64).reshape(-1, 4)
    return fields


def distribution_to_csv(dist: np.ndarray, n: int) -> str:
    """One ``bitstring,probability`` row per basis index, qubit 0 first, the
    probability as ``"%.12g"`` formats it; ``dist`` must have shape (2^n,).

    A chunk of 2^12 rows is one byte matrix, each row its label, comma,
    NUL-padded probability field and newline: the low bits' labels are the
    same in every chunk, and the high bits' are the chunk's.  Deleting the
    NULs leaves the chunk's text.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (1 << n,):
        raise ValueError(f"distribution over {dist.size} outcomes, lattice needs {1 << n}")
    low = min(n, _DIST_CHUNK_BITS)
    # the matrix shares a bytearray's memory, whose translate copies only the text
    raw = bytearray((n + _FIELD + 2) << low)
    block = np.frombuffer(raw, np.uint8).reshape(1 << low, -1)
    block[:, :low] = _label_bytes(np.arange(1 << low), low)
    block[:, low:n] = ord("0")
    block[:, n] = ord(",")
    block[:, -1] = ord("\n")
    parts = ["bitstring,probability\n"]
    for chunk in range(1 << (n - low)):
        # moving on from chunk - 1 flips its high bits up to the lowest zero
        for k in range((chunk ^ (chunk - 1)).bit_length() if chunk else 0):
            block[:, low + k] = ord("0") + (chunk >> k & 1)
        block[:, n + 1:-1] = _g12_fields(dist[chunk << low:(chunk + 1) << low]).view(np.uint8)
        parts.append(raw.translate(None, b"\0").decode("ascii"))
    return "".join(parts)
