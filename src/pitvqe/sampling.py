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
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import QUBIT_CAP
from .simulator import StateVector, probabilities

# typical transmon readout magnitudes for the synthetic "hardware-like" runs
DEFAULT_P10 = 0.03  # p(observe 0 | true 1)
DEFAULT_P01 = 0.015  # p(observe 1 | true 0)

# Shots corrupted at a time.  A chunk's (shots, n) arrays of thresholds and
# uniform draws take 2^14 n bytes each, at most 320 kB, which the allocator
# hands from chunk to chunk without mapping fresh pages: at n = 11, 8192
# shots corrupt in about 1.1 ms in chunks of 2^11 against 1.9 ms in one
# (2 shared vCPUs, numpy 2.4).
_SHOT_CHUNK = 1 << 11
# A column sum s of a confusion matrix passes when |s - 1| is at most this,
# which is how np.allclose(s, 1.0, atol=1e-12) tests it (its rtol is 1e-5).
_COLUMN_SUM_TOL = 1e-12 + 1e-5
# Mitigation stops once no probability moves by more than this in one step.
_MITIGATE_TOL = 1e-14
# Iterations mitigation may take whatever the condition number promises; a
# nearly singular channel would otherwise run for days.
_MITIGATE_MAX_ITERATIONS = 10_000
# The simplex projection needs u - 1 < u for the largest entry u it sorts,
# which fails from 2^53; a step's input lies within 3 of A^T noisy / L.
_PROJECTION_LIMIT = 2.0 ** 52


@dataclass(frozen=True)
class Counts:
    shots: int
    histogram: dict[int, int]  # basis index -> count, at least 1 each

    def __post_init__(self):
        if min(self.histogram, default=0) < 0:
            raise ValueError("histogram holds a negative outcome")
        if min(self.histogram.values(), default=1) < 1:
            raise ValueError("histogram holds a count below 1")
        if sum(self.histogram.values()) != self.shots:
            raise ValueError("histogram does not sum to the shot count")

    def to_distribution(self, n: int) -> np.ndarray:
        _check_outcome_range(self, n)
        size = len(self.histogram)
        dist = np.zeros(1 << n)
        dist[np.fromiter(self.histogram, np.int64, size)] = (
            np.fromiter(self.histogram.values(), float, size) / self.shots)
        return dist


def _check_outcome_range(counts: Counts, n: int) -> None:
    top = max(counts.histogram, default=0)
    if top >= 1 << n:
        raise ValueError(f"outcome {top} outside the {1 << n} outcomes of {n} qubits")


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit column-stochastic confusion matrices M[observed][true].

    The matrices are validated and stored as one read-only (n, 2, 2) float
    array, ``stack``; ``matrices[q]`` is the read-only view of its q-th
    matrix, so both describe the same memory.  A model covers at least one
    qubit.  Models are equal when their stacks are equal entry by entry, and
    equal models hash alike.
    """

    matrices: tuple[np.ndarray, ...]  # one column-stochastic 2x2 per qubit
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("a readout model needs at least one qubit")
        try:
            stack = np.array(self.matrices, dtype=float)
        except (TypeError, ValueError):
            stack = None
        if stack is None or stack.shape != (len(self.matrices), 2, 2):
            # the per-qubit checks find the first bad matrix and name it
            stack = np.array([_checked_matrix(k, m) for k, m in enumerate(self.matrices)],
                             dtype=float).reshape(-1, 2, 2)
        bad_range = ((stack < 0) | (stack > 1)).any(axis=(1, 2))
        bad_sum = ~(np.abs(stack.sum(axis=1) - 1.0) <= _COLUMN_SUM_TOL).all(axis=1)
        bad = bad_range | bad_sum
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"qubit {k}: entries must lie in [0, 1]" if bad_range[k]
                             else f"qubit {k}: columns must sum to 1")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    @property
    def n(self) -> int:
        return len(self.matrices)

    def __eq__(self, other):
        if not isinstance(other, ReadoutModel):
            return NotImplemented
        return np.array_equal(self.stack, other.stack)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.stack + 0.0).tobytes())


def _checked_matrix(k: int, m) -> np.ndarray:
    """Qubit k's matrix as a float array; raises ValueError unless it is a
    2x2 column-stochastic matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"qubit {k}: confusion matrix must be 2x2")
    if np.any(m < 0) or np.any(m > 1):
        raise ValueError(f"qubit {k}: entries must lie in [0, 1]")
    if not np.allclose(m.sum(axis=0), 1.0, atol=1e-12):
        raise ValueError(f"qubit {k}: columns must sum to 1")
    return m


def _flip_matrix(p10: float, p01: float) -> np.ndarray:
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def identity_model(n: int) -> ReadoutModel:
    return ReadoutModel(tuple(np.eye(2) for _ in range(n)))


def flip_model(n: int, p10: float = DEFAULT_P10, p01: float = DEFAULT_P01) -> ReadoutModel:
    m = _flip_matrix(p10, p01)
    return ReadoutModel(tuple(m for _ in range(n)))


def load_readout_model(path, n: int) -> ReadoutModel:
    """Noise file: one line ``q<i> p10 p01`` per qubit; unlisted qubits are clean.

    ``#`` starts a comment.  A malformed line, a qubit outside [0, n) or a
    second line for one qubit raises ValueError naming the file and line.
    """
    mats = [np.eye(2) for _ in range(n)]
    listed: dict[int, int] = {}  # qubit -> line that set it
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
            if qubit in listed:
                raise ValueError(f"{path}:{lineno}: qubit {qubit} already set "
                                 f"on line {listed[qubit]}")
            listed[qubit] = lineno
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
    drawn = np.flatnonzero(counts)
    histogram = dict(zip(drawn.tolist(), counts[drawn].tolist(), strict=True))
    return Counts(shots=shots, histogram=histogram)


def _check_model_size(model: ReadoutModel) -> None:
    if model.n > QUBIT_CAP:
        raise ResourceWarning(
            f"readout channel over 2^{model.n} outcomes exceeds cap n <= {QUBIT_CAP}")


def _apply_channel(matrices, x: np.ndarray) -> np.ndarray:
    """Apply the tensor product of per-qubit 2x2 ``matrices`` to ``x``.

    Qubit q is bit q of the index.  Each factor contracts the lowest bit,
    the last axis of the (2^(n-1), 2) view, and writes its output bit as the
    highest, the first axis of the (2, 2^(n-1)) result (the cyclic shuffle
    product, Fernandes, Plateau & Stewart 1998).  Every factor moves the
    other bits down by one, so factor q finds qubit q in bit 0, and after
    all n factors each bit has turned full circle back to its own place.
    Each factor for q >= 1 is one 2x2 by 2 x 2^(n-1) BLAS product.  Qubit
    0's factor runs elementwise as (0 + m[o,0] x0) + m[o,1] x1, on a
    contiguous copy of the two halves: that is the unfused sum the einsum
    for qubit 0 always computed, where a BLAS product would fuse the
    multiply and add and move last bits, and the 0 + turns a sum of two
    -0.0 products into +0.0.
    """
    half = x.size >> 1
    low = x.reshape(half, 2).T.copy()
    m = matrices[0]
    x = m[:, :1] * low[0]
    x += 0.0
    x += m[:, 1:] * low[1]
    for m in matrices[1:]:
        x = m @ x.reshape(half, 2).T
    return x.reshape(-1)


def _check_distribution(dist: np.ndarray, model: ReadoutModel, name: str) -> float:
    """The norm of ``dist``, after checking that it covers the model's
    outcomes and that the norm is finite: no NaN or infinite entry, and none
    so large that its square overflows."""
    if dist.size != 1 << model.n:
        raise ValueError(
            f"distribution over {dist.size} outcomes, model covers {1 << model.n}"
        )
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(dist))
    if not math.isfinite(norm):
        raise ValueError(f"{name} is not a distribution: its norm is {norm}")
    return norm


def corrupt_distribution(dist: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Exact action of the confusion channel on a distribution."""
    _check_model_size(model)
    dist = np.asarray(dist, dtype=float)
    _check_distribution(dist, model, "dist")
    return _apply_channel(model.stack, dist)


def corrupt_counts(counts: Counts, model: ReadoutModel, seed: int) -> Counts:
    """Per-shot stochastic bit flips drawn from the confusion model.

    Shots are taken in ascending order of their true outcome with one uniform
    draw per qubit, qubit 0 first; bit q reads 1 when its draw falls below
    p(observe 1 | true bit q).  An outcome outside [0, 2^n) raises
    ValueError.
    """
    _check_model_size(model)
    _check_outcome_range(counts, model.n)
    rng = np.random.default_rng(seed)
    outcomes = sorted(counts.histogram)
    qubits = np.arange(model.n)
    # each bit's threshold per distinct true outcome, then one row per shot
    bits = (np.array(outcomes, dtype=np.int64)[:, None] >> qubits) & 1
    thresholds = model.stack[qubits, 1, bits]
    rows = np.repeat(np.arange(len(outcomes)), [counts.histogram[i] for i in outcomes])
    # a shot's flipped bits are distinct powers of two, so their float sum is exact
    weights = 2.0 ** qubits
    observed = np.empty(rows.size, dtype=np.int64)
    for start in range(0, rows.size, _SHOT_CHUNK):
        chunk = thresholds.take(rows[start:start + _SHOT_CHUNK], axis=0)
        flips = rng.random(chunk.shape) < chunk
        observed[start:start + _SHOT_CHUNK] = flips.astype(float) @ weights
    values, freq = np.unique(observed, return_counts=True)
    return Counts(shots=counts.shots,
                  histogram=dict(zip(values.tolist(), freq.tolist(), strict=True)))


def _project_simplex(v: np.ndarray, ranks: np.ndarray, out: np.ndarray,
                     work: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto {x >= 0, sum(x) = 1}, by sorting
    (Duchi et al. 2008), written into and returned as ``out``.

    ``ranks`` holds the floats 1, 2, ..., v.size; the rows of the (2, v.size)
    ``work`` block take the sorted copy and the partial sums.
    """
    ascending, excess = work
    np.copyto(ascending, v)
    ascending.sort()
    u = ascending[::-1]
    np.cumsum(u, out=excess)
    excess -= 1.0
    rank = np.flatnonzero(u * ranks > excess)[-1]
    np.subtract(v, excess[rank] / (rank + 1), out=out)
    return np.maximum(out, 0.0, out=out)


def _normal_factors(model: ReadoutModel) -> tuple[float, float, np.ndarray]:
    """L and mu, the extreme eigenvalues of A^T A for the channel A, and the
    (n, 2, 2) factors M^T M / s_max(M)^2 of A^T A / L.

    Raises FloatingPointError naming the first qubit whose matrix is singular.
    """
    singular = np.abs(np.linalg.det(model.stack)) < 1e-12
    if singular.any():
        raise FloatingPointError(f"qubit {int(singular.argmax())}: confusion matrix is singular")
    # squared singular values as Python floats, whose ** 2 is C pow, as a
    # numpy scalar's is; an array's ** 2 multiplies, which can differ in the
    # last bit
    top, low = np.linalg.svd(model.stack, compute_uv=False).T.tolist()
    top = [s ** 2 for s in top]
    gram = model.stack.transpose(0, 2, 1) @ model.stack / np.array(top)[:, None, None]
    return math.prod(top), math.prod(s ** 2 for s in low), gram


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

    The iterates, the step and the projection's sorted copy and partial sums
    live in vectors allocated once per call and updated in place; each step
    runs the same operations in the same order as one that allocates fresh
    vectors, so the result is the same to the bit.
    """
    _check_model_size(model)
    noisy = np.asarray(noisy, dtype=float).reshape(-1)
    norm = _check_distribution(noisy, model, "noisy")
    lipschitz, mu, gram = _normal_factors(model)
    # the gradient step y - A^T (A y - p) / L, with A^T A / L a tensor product too
    target = _apply_channel(model.stack.transpose(0, 2, 1), noisy) / lipschitz
    peak = float(np.abs(target).max())
    if peak >= _PROJECTION_LIMIT:
        raise ValueError(
            f"noisy is not a distribution: A^T noisy / L has an entry of magnitude "
            f"{peak:.6g}, 2^52 or more, beyond what the simplex projection resolves")
    root_kappa = math.sqrt(lipschitz / mu)
    momentum = (root_kappa - 1.0) / (root_kappa + 1.0)
    # F(x_0) - F* + mu/2 ||x_0 - x*||^2 <= c0 on the simplex; once
    # 2 c0 / mu (1 - 1/root_kappa)^k <= (tol / 2)^2 every later iterate lies
    # within tol / 2 of x*, so a step can no longer exceed tol
    c0 = 0.5 * (math.sqrt(lipschitz) + norm) ** 2 + mu
    bound = math.ceil(root_kappa * math.log(8.0 * c0 / (mu * _MITIGATE_TOL ** 2))) + 1
    cap = min(bound, _MITIGATE_MAX_ITERATIONS)
    ranks = np.arange(1.0, noisy.size + 1.0)
    # x and x_next trade buffers each step, and y is built in the step's buffer
    x, x_next, moved = (np.empty(noisy.size) for _ in range(3))
    work = np.empty((2, noisy.size))
    x = y = _project_simplex(noisy, ranks, x, work)
    for _ in range(cap):
        v = _apply_channel(gram, y)
        np.subtract(y, v, out=v)
        v += target
        x_next = _project_simplex(v, ranks, x_next, work)
        np.subtract(x_next, x, out=moved)
        step = float(np.abs(moved, out=work[0]).max())
        if step <= _MITIGATE_TOL:
            return x_next
        moved *= momentum
        moved += x_next
        y = moved
        x, x_next = x_next, x
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
