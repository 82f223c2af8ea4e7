"""Finite-shot measurement, synthetic readout noise, and mitigation.

The noise model is a tensor product of per-qubit 2x2 confusion matrices
M[observed][true]; mitigation solves a simplex-constrained least-squares
inversion of that channel so mitigated probabilities stay non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .simulator import StateVector, probabilities

# typical transmon readout magnitudes for the synthetic "hardware-like" runs
DEFAULT_P10 = 0.03  # p(observe 0 | true 1)
DEFAULT_P01 = 0.015  # p(observe 1 | true 0)


@dataclass(frozen=True)
class Counts:
    shots: int
    histogram: dict[int, int]  # basis index -> count

    def __post_init__(self):
        if sum(self.histogram.values()) != self.shots:
            raise ValueError("histogram does not sum to the shot count")

    def to_distribution(self, n: int) -> np.ndarray:
        dist = np.zeros(1 << n)
        for index, count in self.histogram.items():
            dist[index] = count / self.shots
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

    def full_matrix(self) -> np.ndarray:
        """Channel over all 2^n outcomes; qubit 0 is the least significant bit."""
        full = np.ones((1, 1))
        for m in self.matrices:  # kron in reverse places qubit 0 at the LSB
            full = np.kron(m, full)
        return full


def identity_model(n: int) -> ReadoutModel:
    return ReadoutModel(tuple(np.eye(2) for _ in range(n)))


def flip_model(n: int, p10: float = DEFAULT_P10, p01: float = DEFAULT_P01) -> ReadoutModel:
    m = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
    return ReadoutModel(tuple(m for _ in range(n)))


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


def corrupt_distribution(dist: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Exact action of the confusion channel on a distribution."""
    dist = np.asarray(dist, dtype=float)
    if dist.size != 1 << model.n:
        raise ValueError(
            f"distribution over {dist.size} outcomes, model covers {1 << model.n}"
        )
    out = dist.reshape([2] * model.n)
    # axis n-1-q of the reshaped tensor indexes bit q
    for q, m in enumerate(model.matrices):
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [model.n - 1 - q])),
                          0, model.n - 1 - q)
    return out.reshape(-1)


def corrupt_counts(counts: Counts, model: ReadoutModel, seed: int) -> Counts:
    """Per-shot stochastic bit flips drawn from the confusion model."""
    rng = np.random.default_rng(seed)
    histogram: dict[int, int] = {}
    for index in sorted(counts.histogram):
        for _ in range(counts.histogram[index]):
            observed = 0
            for q, m in enumerate(model.matrices):
                true_bit = (index >> q) & 1
                bit = int(rng.uniform() < m[1, true_bit])
                observed |= bit << q
            histogram[observed] = histogram.get(observed, 0) + 1
    return Counts(shots=counts.shots, histogram=histogram)


def mitigate(noisy: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Invert the confusion channel by simplex-constrained least squares.

    Minimizes ||A x - p|| subject to x >= 0 and sum(x) = 1, with the equality
    enforced through a heavily weighted extra row; an exactly corrupted
    distribution is recovered to machine precision.
    """
    noisy = np.asarray(noisy, dtype=float)
    dim = 1 << model.n
    if noisy.size != dim:
        raise ValueError(f"distribution over {noisy.size} outcomes, need {dim}")
    for k, m in enumerate(model.matrices):
        if abs(np.linalg.det(m)) < 1e-12:
            raise FloatingPointError(f"qubit {k}: confusion matrix is singular")
    a = model.full_matrix()
    weight = 1e4
    stacked = np.vstack([a, weight * np.ones((1, dim))])
    target = np.concatenate([noisy, [weight]])
    x, _ = nnls(stacked, target)
    total = x.sum()
    if total <= 0:
        raise FloatingPointError("mitigation produced an empty distribution")
    return x / total


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


# Rows formatted at a time.  Chunk strings of about 32 kB stay below the size
# the allocator maps separately, so one chunk's memory serves the next and the
# peak stays below that of formatting every row at once.
_CSV_CHUNK = 1 << 10


def _csv(header: str, indices: np.ndarray, values: np.ndarray, n: int, fmt: str) -> str:
    """``header``, then one ``bitstring,value`` row per basis index (qubit 0 first)."""
    parts = [header + "\n"]
    for start in range(0, len(indices), _CSV_CHUNK):
        chunk = indices[start:start + _CSV_CHUNK]
        chars = ((chunk[:, None] >> np.arange(n)) & 1).astype(np.uint8) + ord("0")
        labels = chars.view(f"S{n}").ravel().astype(str).tolist()
        cells = values[start:start + _CSV_CHUNK].tolist()
        parts.append("".join(f"{bits},{v:{fmt}}\n"
                             for bits, v in zip(labels, cells, strict=True)))
    return "".join(parts)


def counts_to_csv(counts: Counts, n: int) -> str:
    indices = sorted(counts.histogram)
    values = np.array([counts.histogram[i] for i in indices], dtype=np.int64)
    return _csv("bitstring,count", np.array(indices, dtype=np.int64), values, n, "")


def distribution_to_csv(dist: np.ndarray, n: int) -> str:
    return _csv("bitstring,probability", np.arange(1 << n),
                np.asarray(dist)[: 1 << n], n, ".12g")
