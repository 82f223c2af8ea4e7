"""Finite shots, readout corruption, mitigation, and distribution distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from pitvqe.sampling import (
    Counts,
    ReadoutModel,
    bhattacharyya,
    corrupt_counts,
    corrupt_distribution,
    counts_to_csv,
    distribution_to_csv,
    flip_model,
    identity_model,
    load_readout_model,
    mitigate,
    sample,
)
from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit, prepare
from pitvqe.hamiltonian import QUBIT_CAP
from pitvqe.lattice import load_instance
from pitvqe.simulator import InitKind, apply_ry, init_state, probabilities


def test_counts_histogram_consistency():
    Counts(shots=10, histogram={0: 4, 3: 6})
    with pytest.raises(ValueError):
        Counts(shots=10, histogram={0: 4})


def test_counts_to_distribution():
    dist = Counts(shots=8, histogram={0: 6, 2: 2}).to_distribution(2)
    assert dist == pytest.approx([0.75, 0.0, 0.25, 0.0])


def test_readout_model_validation():
    with pytest.raises(ValueError, match="2x2"):
        ReadoutModel((np.eye(3),))
    with pytest.raises(ValueError, match="sum to 1"):
        ReadoutModel((np.array([[0.9, 0.1], [0.2, 0.9]]),))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ReadoutModel((np.array([[1.5, 0.0], [-0.5, 1.0]]),))


def test_flip_model_matrix_layout():
    m = flip_model(1, p10=0.03, p01=0.015).matrices[0]
    # column = true bit, row = observed bit
    assert m[0, 1] == pytest.approx(0.03)
    assert m[1, 0] == pytest.approx(0.015)


def _full_matrix(model):
    """Dense channel over all 2^n outcomes, the reference the matrix-free
    operations are checked against; qubit 0 is the least significant bit."""
    full = np.ones((1, 1))
    for m in model.matrices:  # kron in reverse places qubit 0 at the LSB
        full = np.kron(m, full)
    return full


def test_full_matrix_qubit0_least_significant():
    model = ReadoutModel((np.array([[0.9, 0.0], [0.1, 1.0]]), np.eye(2)))
    full = _full_matrix(model)
    # a flip on qubit 0 mixes indices 0 and 1, not 0 and 2
    assert full[1, 0] == pytest.approx(0.1)
    assert full[2, 0] == pytest.approx(0.0)


def test_sample_deterministic_and_complete():
    state = apply_ry(init_state(2, InitKind.ALL_ZERO), 0, 1.1)
    c1, c2 = sample(state, 1000, seed=7), sample(state, 1000, seed=7)
    assert c1 == c2
    assert sum(c1.histogram.values()) == 1000
    with pytest.raises(ValueError):
        sample(state, 0, seed=7)


def test_superposition_frequencies_balanced():
    # 10^6 shots on |+>: both outcomes within 0.002 of one half (5 sigma)
    state = init_state(1, InitKind.SUPERPOSITION)
    counts = sample(state, 10**6, seed=3)
    for outcome in (0, 1):
        assert abs(counts.histogram[outcome] / 10**6 - 0.5) < 0.002


def test_corrupt_distribution_single_qubit_closed_form():
    model = flip_model(1, p10=0.2, p01=0.1)
    noisy = corrupt_distribution(np.array([1.0, 0.0]), model)
    assert noisy == pytest.approx([0.9, 0.1])
    noisy = corrupt_distribution(np.array([0.0, 1.0]), model)
    assert noisy == pytest.approx([0.2, 0.8])


def test_corrupt_counts_preserves_shots():
    counts = Counts(shots=500, histogram={0b11: 500})
    noisy = corrupt_counts(counts, flip_model(2, p10=0.5, p01=0.0), seed=1)
    assert sum(noisy.histogram.values()) == 500
    assert noisy != counts


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_corrupt_then_mitigate_is_identity(n, seed):
    rng = np.random.default_rng(seed)
    dist = rng.dirichlet(np.ones(1 << n))
    model = flip_model(n)
    recovered = mitigate(corrupt_distribution(dist, model), model)
    assert np.allclose(recovered, dist, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_mitigation_output_is_a_distribution(n, seed):
    rng = np.random.default_rng(seed)
    dist = rng.dirichlet(np.ones(1 << n))
    out = mitigate(dist, flip_model(n, p10=0.2, p01=0.1))
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(1.0)


def test_mitigate_rejects_singular_model():
    model = ReadoutModel((np.array([[0.5, 0.5], [0.5, 0.5]]),))
    with pytest.raises(FloatingPointError):
        mitigate(np.array([0.5, 0.5]), model)


def _asymmetric_model(n, seed):
    """A different asymmetric confusion matrix on every qubit, so that a
    transposed kernel or a reversed qubit order changes every result."""
    rng = np.random.default_rng(seed)
    p10 = rng.uniform(0.01, 0.08, size=n)
    p01 = rng.uniform(0.1, 0.15, size=n)
    return ReadoutModel(tuple(np.array([[1.0 - b, a], [b, 1.0 - a]])
                              for a, b in zip(p10, p01)))


def _corrupt_counts_loop(counts, model, seed):
    """The per-shot loop corrupt_counts replaced: one draw per shot and qubit."""
    rng = np.random.default_rng(seed)
    histogram = {}
    for index in sorted(counts.histogram):
        for _ in range(counts.histogram[index]):
            observed = 0
            for q, m in enumerate(model.matrices):
                observed |= int(rng.uniform() < m[1, (index >> q) & 1]) << q
            histogram[observed] = histogram.get(observed, 0) + 1
    return histogram


def _mitigate_dense(noisy, model):
    """Dense NNLS on the full channel, the sum constraint as a heavy extra row."""
    dim = 1 << model.n
    weight = 1e4
    x, _ = nnls(np.vstack([_full_matrix(model), weight * np.ones((1, dim))]),
                np.concatenate([noisy, [weight]]))
    return x / x.sum()


def _sampled(n, seed, shots):
    rng = np.random.default_rng(seed)
    histogram = rng.multinomial(shots, rng.dirichlet(np.full(1 << n, 0.3)))
    return Counts(shots, {int(i): int(c) for i, c in enumerate(histogram) if c})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6), st.integers(1, 400))
def test_corrupt_counts_matches_the_per_shot_loop(n, seed, shots):
    counts = _sampled(n, seed, shots)
    model = _asymmetric_model(n, seed + 1)
    noisy = corrupt_counts(counts, model, seed + 2)
    assert noisy.histogram == _corrupt_counts_loop(counts, model, seed + 2)
    looped = np.zeros(1 << n)
    for index, count in noisy.histogram.items():
        looped[index] = count / noisy.shots
    assert np.array_equal(noisy.to_distribution(n), looped)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_corrupt_distribution_matches_the_dense_channel(n, seed):
    model = _asymmetric_model(n, seed)
    dist = np.random.default_rng(seed).dirichlet(np.ones(1 << n))
    assert np.allclose(corrupt_distribution(dist, model),
                       _full_matrix(model) @ dist, rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_mitigate_matches_dense_nnls(n, seed):
    model = _asymmetric_model(n, seed)
    raw = corrupt_counts(_sampled(n, seed, 4096), model, seed).to_distribution(n)
    assert np.abs(mitigate(raw, model) - _mitigate_dense(raw, model)).max() <= 1e-9


def test_mitigate_raises_at_the_iteration_cap():
    # far from singular (det 2.1e-3), but sqrt(L / mu) is about 480 and the
    # optimum is interior, so convergence needs more than the cap of 10^4 steps
    gap = 3e-3
    m = np.array([[(1 + gap) / 2, (1 - 0.4 * gap) / 2],
                  [(1 - gap) / 2, (1 + 0.4 * gap) / 2]])
    model = ReadoutModel((m,))
    with pytest.raises(FloatingPointError, match="did not converge"):
        mitigate(corrupt_distribution(np.array([0.4, 0.6]), model), model)


def test_readout_channel_checks_qubit_cap_first():
    model = flip_model(QUBIT_CAP + 1)
    with pytest.raises(ResourceWarning):
        corrupt_distribution(np.ones(2), model)
    with pytest.raises(ResourceWarning):
        mitigate(np.ones(2), model)
    with pytest.raises(ResourceWarning):
        corrupt_counts(Counts(shots=1, histogram={0: 1}), model, seed=0)


def test_load_readout_model(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("# per-qubit flips\nq2 0.03 0.015\n\nq0 0.1 0.2  # noisy\n")
    model = load_readout_model(path, 3)
    assert np.array_equal(model.matrices[0], [[0.8, 0.1], [0.2, 0.9]])
    assert np.array_equal(model.matrices[1], np.eye(2))
    assert np.array_equal(model.matrices[2], flip_model(1).matrices[0])
    path.write_text("q0 0.1 0.2\nq1 0.1\n")
    with pytest.raises(ValueError, match=":2: expected 'q<i> p10 p01', got 'q1 0.1'"):
        load_readout_model(path, 3)
    path.write_text("q3 0.1 0.2\n")
    with pytest.raises(ValueError, match=":1: qubit 3 out of range"):
        load_readout_model(path, 3)


def test_bhattacharyya_closed_forms():
    assert bhattacharyya(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    # an overlap of exactly 1 gives +0.0, not -0.0
    d = bhattacharyya(np.array([0.25, 0.75]), np.array([0.25, 0.75]))
    assert type(d) is float and math.copysign(1.0, d) == 1.0
    d = bhattacharyya(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert d == pytest.approx(-np.log(np.sqrt(0.5)))
    assert bhattacharyya(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == np.inf
    with pytest.raises(ValueError):
        bhattacharyya(np.ones(2) / 2, np.ones(4) / 4)


def test_empirical_distance_shrinks_with_shots():
    state = apply_ry(init_state(3, InitKind.SUPERPOSITION), 1, 0.7)
    exact = state.amps**2
    medians = []
    for shots in (10**2, 10**4, 10**6):
        ds = [bhattacharyya(sample(state, shots, seed).to_distribution(3), exact)
              for seed in range(20)]
        medians.append(np.median(ds))
    assert medians[0] > medians[1] > medians[2]


def test_csv_formats():
    counts = Counts(shots=5, histogram={0b01: 3, 0b10: 2})
    assert counts_to_csv(counts, 2) == "bitstring,count\n10,3\n01,2\n"
    dist = np.array([0.25, 0.75])
    assert distribution_to_csv(dist, 1) == (
        "bitstring,probability\n0,0.25\n1,0.75\n"
    )


def _bits(index, n):
    return "".join(str((index >> q) & 1) for q in range(n))


@pytest.mark.parametrize("n", [*range(1, 7), 11])
def test_csv_bytes_match_the_per_row_format(n):
    rng = np.random.default_rng(n)
    dist = rng.uniform(size=1 << n)
    special = [0.0, 5e-324, 1e-300, 1.0]  # zero, subnormal, tiny, one
    dist[: min(4, 1 << n)] = special[: 1 << n]
    want = "".join(f"{_bits(i, n)},{dist[i]:.12g}\n" for i in range(1 << n))
    assert distribution_to_csv(dist, n) == "bitstring,probability\n" + want
    histogram = {int(i): int(rng.integers(1, 2**40))
                 for i in rng.choice(1 << n, size=min(5, 1 << n), replace=False)}
    counts = Counts(shots=sum(histogram.values()), histogram=histogram)
    want = "".join(f"{_bits(i, n)},{histogram[i]}\n" for i in sorted(histogram))
    assert counts_to_csv(counts, n) == "bitstring,count\n" + want


@pytest.mark.parametrize("size", [3, 5, 8])
def test_distribution_csv_rejects_a_vector_of_the_wrong_size(size):
    with pytest.raises(ValueError, match=f"distribution over {size} outcomes, "
                                         "lattice needs 4"):
        distribution_to_csv(np.full(size, 1.0 / size), 2)


def test_sample_survives_a_probability_rounded_above_one():
    circuit = build_circuit(load_instance(bundled_instance_path("mini4")))
    params = [1.8388451168915623, -4.263014516276499, -1.869139917553704,
              3.1415926536261716, 1.3027475369451167, 1.1214218628911632,
              -1.2724527361687725]
    state = prepare(circuit, params, InitKind.ALL_ZERO)
    assert probabilities(state).max() > 1.0  # the rounding this guards against
    counts = sample(state, 1000, seed=2)
    assert counts.histogram == {15: 1000}
