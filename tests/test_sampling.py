"""Finite shots, readout corruption, mitigation, and distribution distance.

The stacked readout-model checks, the batched mitigation set-up, the
buffered simplex projection, the shot histogram and the chunked shot flips
are checked bitwise against the per-qubit, per-matrix, per-entry and
per-shot code they replace.  The grouped readout channel sums 16 products
where the per-qubit channel summed two, so it is checked against that
channel and the dense Kronecker matrix to rounding, and mitigation through
it against the per-matrix mitigation to within twice the stopping step."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from pitvqe.sampling import (
    _MITIGATE_TOL,
    Counts,
    ReadoutModel,
    _apply_channel,
    _kron_factors,
    _normal_factors,
    _project_simplex,
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
from pitvqe.simulator import InitKind, StateVector, apply_ry, init_state, probabilities


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


def test_readout_model_needs_a_qubit():
    for make in (lambda: ReadoutModel(()), lambda: identity_model(0), lambda: flip_model(0)):
        with pytest.raises(ValueError, match="at least one qubit"):
            make()


def test_readout_models_compare_and_hash_by_value():
    assert flip_model(2) == flip_model(2)
    assert hash(flip_model(2)) == hash(flip_model(2))
    assert flip_model(2) != flip_model(3)
    assert flip_model(2) != flip_model(2, p10=0.05)
    assert flip_model(2) != identity_model(2)
    assert (flip_model(1) == "flip") is False
    # -0.0 passes the range check and equals 0.0, so it must hash alike
    signed = ReadoutModel((np.array([[1.0, -0.0], [0.0, 1.0]]),))
    assert signed == identity_model(1) and hash(signed) == hash(identity_model(1))
    table = {flip_model(2): "flip", identity_model(2): "clean"}
    assert len(table) == 2
    assert table[flip_model(2)] == "flip"
    assert table[ReadoutModel((np.eye(2), np.eye(2)))] == "clean"


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


def _asymmetric_matrices(n, seed):
    """A different asymmetric confusion matrix for every qubit, so that a
    transposed kernel or a reversed qubit order changes every result."""
    rng = np.random.default_rng(seed)
    p10 = rng.uniform(0.01, 0.08, size=n)
    p01 = rng.uniform(0.1, 0.15, size=n)
    return tuple(np.array([[1.0 - b, a], [b, 1.0 - a]]) for a, b in zip(p10, p01))


def _asymmetric_model(n, seed):
    return ReadoutModel(_asymmetric_matrices(n, seed))


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


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_readout_channel_rejects_a_distribution_of_non_finite_norm(value):
    model = flip_model(2)
    dist = np.full(4, 0.25)
    dist[1] = value  # 1e300 is finite, but its square overflows the norm
    with pytest.raises(ValueError, match="dist is not a distribution"):
        corrupt_distribution(dist, model)
    with pytest.raises(ValueError, match="noisy is not a distribution"):
        mitigate(dist, model)


@pytest.mark.parametrize("value", [1e16, 1e20, 1e100, 1e200, -1e100])
def test_mitigate_rejects_entries_the_simplex_projection_cannot_resolve(value):
    # from 2^53 the projection found no support (IndexError), and from about
    # 1e140 the iteration cap overflowed first (OverflowError)
    dist = np.full(4, 0.25)
    dist[1] = value
    with pytest.raises(ValueError, match="noisy is not a distribution"):
        mitigate(dist, flip_model(2))
    dist[1] = 1e15  # not a distribution either, but still projected
    assert mitigate(dist, flip_model(2)).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_readout_channel_checks_qubit_cap_first():
    model = flip_model(QUBIT_CAP + 1)
    with pytest.raises(ResourceWarning):
        corrupt_distribution(np.ones(2), model)
    with pytest.raises(ResourceWarning):
        mitigate(np.ones(2), model)
    with pytest.raises(ResourceWarning):
        corrupt_counts(Counts(shots=1, histogram={0: 1}), model, seed=0)


def test_counts_rejects_negative_outcomes_and_counts_below_one():
    with pytest.raises(ValueError, match="negative outcome"):
        Counts(2, {-1: 1, 0: 1})
    for bad in (0, -1):
        with pytest.raises(ValueError, match="count below 1"):
            Counts(2, {0: 2 - bad, 1: bad})


def test_outcomes_beyond_the_qubit_count_raise():
    counts = Counts(2, {5: 2})
    assert counts.to_distribution(3)[5] == 1.0
    with pytest.raises(ValueError, match="outcome 5 outside the 4 outcomes of 2 qubits"):
        counts.to_distribution(2)
    with pytest.raises(ValueError, match="outcome 5 outside the 4 outcomes of 2 qubits"):
        corrupt_counts(counts, flip_model(2), seed=0)


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


@pytest.mark.parametrize("line, word", [("q1 1.5 0.1", "1.5"), ("q1 0.1 -0.2", "-0.2"),
                                        ("q1 nan 0.1", "nan"), ("q1 0.1 inf", "inf")])
def test_load_readout_model_names_the_line_of_a_bad_probability(tmp_path, line, word):
    path = tmp_path / "noise.txt"
    path.write_text(f"q0 0.1 0.2\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: probability {word} must be finite and lie in [0, 1]")):
        load_readout_model(path, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_readout_model_reports_a_non_finite_entry_as_non_finite(value):
    bad = np.array([[value, 0.1], [0.0, 0.9]])
    with pytest.raises(ValueError, match="^qubit 1: entries must be finite$"):
        ReadoutModel((np.eye(2), bad))
    with pytest.raises(ValueError, match="^qubit 1: entries must be finite$"):
        ReadoutModel((np.eye(2), bad, np.eye(3)))  # the per-qubit checks


def test_load_readout_model_rejects_a_second_line_for_a_qubit(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("q0 0.1 0.2\nq1 0.1 0.2\n# again\nq0 0.03 0.015\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:4: qubit 0 already set on line 1")):
        load_readout_model(path, 2)


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


def _checked_per_qubit(matrices):
    """The per-qubit checks the stacked ones replaced, after the check that
    there is at least one qubit."""
    if not matrices:
        raise ValueError("a readout model needs at least one qubit")
    for k, m in enumerate(matrices):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"qubit {k}: confusion matrix must be 2x2")
        if not np.isfinite(m).all():
            raise ValueError(f"qubit {k}: entries must be finite")
        if np.any(m < 0) or np.any(m > 1):
            raise ValueError(f"qubit {k}: entries must lie in [0, 1]")
        if not np.allclose(m.sum(axis=0), 1.0, atol=1e-12):
            raise ValueError(f"qubit {k}: columns must sum to 1")


# each flaw turns a valid 2x2 into a matrix, maybe invalid, for one qubit
_FLAWS = {
    "valid": lambda m: m,
    "nested list": lambda m: m.tolist(),
    "within rtol": lambda m: m + [[5e-6, 0.0], [0.0, 0.0]],
    "3x3": lambda m: np.eye(3),
    "one row": lambda m: m[:1],
    "scalar": lambda m: 0.5,
    "text": lambda m: [["a", "b"], ["c", "d"]],
    "outside [0, 1]": lambda m: np.array([[1.5, 0.0], [-0.5, 1.0]]),
    "column sum": lambda m: 0.9 * m,
    "beyond rtol": lambda m: m + [[2e-5, 0.0], [0.0, 0.0]],
    "nan": lambda m: np.full((2, 2), np.nan),
    "inf": lambda m: np.array([[np.inf, 0.0], [0.0, 1.0]]),
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(_FLAWS)), max_size=8), st.integers(0, 10**6))
def test_stacked_readout_checks_raise_what_the_per_qubit_checks_raise(flaws, seed):
    valid = _asymmetric_matrices(len(flaws), seed)
    matrices = tuple(_FLAWS[f](np.array(m)) for f, m in zip(flaws, valid))
    try:
        _checked_per_qubit(matrices)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            ReadoutModel(matrices)
        return
    model = ReadoutModel(matrices)
    assert model.stack.shape == (len(flaws), 2, 2) and not model.stack.flags.writeable
    for m, given_m in zip(model.matrices, matrices, strict=True):
        assert m.base is model.stack and not m.flags.writeable
        assert m.tobytes() == np.asarray(given_m, dtype=float).tobytes()


def _normal_factors_per_matrix(model):
    """The per-matrix det, SVD and Gram factors the batched calls replaced."""
    for k, m in enumerate(model.matrices):
        if abs(np.linalg.det(m)) < 1e-12:
            raise FloatingPointError(f"qubit {k}: confusion matrix is singular")
    sigmas = [np.linalg.svd(m, compute_uv=False) for m in model.matrices]
    lipschitz = math.prod(s[0] ** 2 for s in sigmas)
    mu = math.prod(s[1] ** 2 for s in sigmas)
    gram = tuple(m.T @ m / s[0] ** 2 for m, s in zip(model.matrices, sigmas, strict=True))
    return lipschitz, mu, gram


def _mixed_model(n, seed, identities, singular=()):
    """Distinct asymmetric factors, with the identity on the qubits in
    ``identities`` and an all-1/2 matrix on those in ``singular``."""
    mats = list(_asymmetric_model(n, seed).matrices)
    for q in identities:
        mats[q % n] = np.eye(2)
    for q in singular:
        mats[q % n] = np.full((2, 2), 0.5)
    return ReadoutModel(tuple(mats))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6), st.lists(st.integers(0, 11)),
       st.lists(st.integers(0, 11), max_size=2))
def test_batched_normal_factors_match_the_per_matrix_calls_bitwise(n, seed, identities,
                                                                   singular):
    model = _mixed_model(n, seed, identities, singular)
    try:
        lipschitz, mu, gram = _normal_factors_per_matrix(model)
    except FloatingPointError as error:
        with pytest.raises(FloatingPointError, match=f"^{re.escape(str(error))}$"):
            _normal_factors(model)
        return
    got_lipschitz, got_mu, got_gram = _normal_factors(model)
    assert (got_lipschitz, got_mu) == (lipschitz, mu)
    assert [g.tobytes() for g in got_gram] == [g.tobytes() for g in gram]


def _apply_channel_per_qubit(matrices, x):
    """The readout channel as it ran before the grouped factors: qubit q is
    axis 1 of the (-1, 2, 2^q) view, each factor one batched 2x2 product and
    qubit 0's one einsum contraction."""
    for q, m in enumerate(matrices):
        x = x.reshape(-1, 2, 1 << q)
        x = np.einsum("ob,kbl->kol", m, x) if q == 0 else np.matmul(m, x)
    return x.reshape(-1)


def _project_simplex_sorted(v, ranks):
    """The simplex projection as it ran before it took buffers."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    rank = np.flatnonzero(u * ranks > excess)[-1]
    return np.maximum(v - excess[rank] / (rank + 1), 0.0)


def _mitigate_per_matrix(noisy, model):
    """mitigate as it ran with per-matrix set-up, the per-qubit channel, a
    fresh vector for every step and two differences per step."""
    lipschitz, mu, gram = _normal_factors_per_matrix(model)
    root_kappa = math.sqrt(lipschitz / mu)
    momentum = (root_kappa - 1.0) / (root_kappa + 1.0)
    ranks = np.arange(1.0, noisy.size + 1.0)
    target = _apply_channel_per_qubit([m.T for m in model.matrices], noisy) / lipschitz
    x = y = _project_simplex_sorted(noisy, ranks)
    while True:
        x_next = _project_simplex_sorted(y - _apply_channel_per_qubit(gram, y) + target,
                                         ranks)
        if float(np.abs(x_next - x).max()) <= 1e-14:
            return x_next
        y = x_next + momentum * (x_next - x)
        x = x_next


def _signed_entries(rng, shape):
    """Normal entries, about a quarter of them zeros of either sign."""
    values = rng.normal(size=shape)
    zero = rng.random(shape) < 0.25
    values[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return values


def _channel_factors(n, seed, form, identities=()):
    """Per-qubit 2x2 factors in the forms the channel is built from: a tuple
    of matrices, an (n, 2, 2) stack, a model's transposed stack (mitigation's
    target) and the Gram factors of the mitigation step; the identity on
    the qubits in ``identities``."""
    rng = np.random.default_rng(seed)
    if form in ("tuple", "stack"):
        factors = _signed_entries(rng, (n, 2, 2))
        factors[list(identities)] = np.eye(2)
        return tuple(factors) if form == "tuple" else factors
    model = _mixed_model(n, seed, [*rng.integers(0, n, size=rng.integers(0, 3)), *identities])
    return model.stack.transpose(0, 2, 1) if form == "transposed" else _normal_factors(model)[2]


_FORMS = ("tuple", "stack", "transposed", "gram")


def _assert_within_rounding(factors, x):
    """The grouped channel of ``factors`` on ``x`` lies within 8 n eps times
    the per-qubit channel of |factors| on |x| of the per-qubit channel; each
    output is a sum of 2^n products of n + 1 numbers either way."""
    n = len(factors)
    got = _apply_channel(_kron_factors(factors), x)
    want = _apply_channel_per_qubit(factors, x)
    scale = _apply_channel_per_qubit(np.abs(np.asarray(factors)), np.abs(x))
    assert (np.abs(got - want) <= 8 * n * np.finfo(float).eps * scale).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6), st.sampled_from(_FORMS))
def test_grouped_channel_matches_the_per_qubit_channel(n, seed, form):
    _assert_within_rounding(_channel_factors(n, seed, form),
                            _signed_entries(np.random.default_rng(seed + 1), 1 << n))


@pytest.mark.parametrize("form", _FORMS)
def test_grouped_channel_matches_the_per_qubit_channel_at_14_qubits(form):
    _assert_within_rounding(_channel_factors(14, 14, form),
                            _signed_entries(np.random.default_rng(15), 1 << 14))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6), st.sampled_from(_FORMS))
def test_grouped_channel_matches_the_dense_kronecker_matrix(n, seed, form):
    factors = _channel_factors(n, seed, form)
    grouped = _kron_factors(factors)
    assert [len(f) for f in grouped] == [1 << min(4, n - q) for q in range(0, n, 4)]
    dense = functools.reduce(np.kron, np.asarray(factors)[::-1])
    x = _signed_entries(np.random.default_rng(seed + 1), 1 << n)
    # both sides sum 2^n products of n + 1 numbers, in different orders
    bound = 2 * (n + (1 << n)) * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
    assert (np.abs(_apply_channel(grouped, x) - dense @ x) <= bound).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6), st.sampled_from(_FORMS))
def test_grouped_channel_gives_positive_zeros_for_a_non_negative_input(n, seed, form):
    rng = np.random.default_rng(seed + 1)
    qubit = int(rng.integers(n))
    factors = _channel_factors(n, seed, form, identities=[qubit])
    # an outcome with the identity qubit's bit set sums only zeros of either sign
    x = np.abs(rng.normal(size=1 << n))
    zero = (np.arange(1 << n) >> qubit & 1 == 1) | (rng.random(1 << n) < 0.25)
    x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    got = _apply_channel(_kron_factors(factors), x)
    assert (got[np.arange(1 << n) >> qubit & 1 == 1] == 0.0).all()
    assert not np.signbit(got[got == 0.0]).any()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10**6))
def test_buffered_projection_matches_the_sorting_projection_bitwise(bits, seed):
    rng = np.random.default_rng(seed)
    # repeated values and zeros of either sign make ties in the sort
    v = rng.choice(_signed_entries(rng, 1 + (1 << bits) // 2), size=1 << bits) / 4
    ranks = np.arange(1.0, v.size + 1.0)
    out, work = np.empty(v.size), np.empty((2, v.size))
    got = _project_simplex(v, ranks, out, work)
    assert got is out
    assert got.tobytes() == _project_simplex_sorted(v, ranks).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6), st.lists(st.integers(0, 8), max_size=3))
def test_mitigate_matches_the_per_matrix_set_up_within_twice_the_tolerance(n, seed,
                                                                          identities):
    # both runs stop within tol / 2 of the one minimizer
    model = _mixed_model(n, seed, identities)
    raw = corrupt_counts(_sampled(n, seed, 4096), model, seed).to_distribution(n)
    got = mitigate(raw, model)
    assert np.abs(got - _mitigate_per_matrix(raw, model)).max() <= 2 * _MITIGATE_TOL


def _sparse_state(n, seed):
    """A normalized state with about half its amplitudes zero."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) * (rng.random(1 << n) < 0.5)
    amps[rng.integers(1 << n)] = 1.0
    return StateVector(n, amps / np.linalg.norm(amps))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6), st.integers(1, 10_000))
def test_sample_histogram_matches_the_per_entry_comprehension(n, seed, shots):
    state = _sparse_state(n, seed)
    drawn = np.random.default_rng(seed).multinomial(
        shots, np.clip(probabilities(state), 0.0, 1.0))
    want = {int(i): int(c) for i, c in enumerate(drawn) if c}
    got = sample(state, shots, seed).histogram
    assert list(got.items()) == list(want.items())
    assert all(type(k) is int and type(v) is int for k, v in got.items())


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10**6), st.integers((1 << 14) + 1, (1 << 14) + 4096))
def test_chunked_corrupt_counts_matches_the_per_shot_loop(n, seed, shots):
    counts = _sampled(n, seed, shots)
    model = _asymmetric_model(n, seed + 1)
    noisy = corrupt_counts(counts, model, seed + 2)
    want = _corrupt_counts_loop(counts, model, seed + 2)
    assert list(noisy.histogram.items()) == sorted(want.items())
    assert all(type(k) is int for k in noisy.histogram)
