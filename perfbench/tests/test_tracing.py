import numpy as np
import pytest

import run
import tracing
import workloads
from pitvqe import ansatz, simulator


def test_self_times_on_a_synthetic_tree():
    # op [0, 10] -> a [1, 6] -> b [2, 3], c [4, 5.5]; op -> d [7, 9]
    names = ["op", "vqe.a", "simulator.b", "simulator.c", "sampling.d"]
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 5.5, 9.0])
    own = tracing.self_times(parent, start, end)
    np.testing.assert_allclose(own, [3.0, 2.5, 1.0, 1.5, 2.0])
    summary = tracing.summarize(names, np.arange(5), parent, start, end)
    assert summary["vqe.a"] == {"calls": 1, "s": 5.0, "self_s": 2.5}
    shares = tracing.layer_shares(summary)
    assert shares["vqe"] == pytest.approx(0.25)
    assert shares["simulator"] == pytest.approx(0.25)
    assert shares["sampling"] == pytest.approx(0.2)
    assert shares["unattributed"] == pytest.approx(0.3)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_repeated_names_aggregate_calls_and_time():
    names = ["op", "simulator.apply_ry"]
    name_id = np.array([0, 1, 1, 0, 1])
    parent = np.array([-1, 0, 0, -1, 3])
    start = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    end = np.array([4.0, 1.5, 3.0, 12.0, 11.25])
    summary = tracing.summarize(names, name_id, parent, start, end)
    assert summary["simulator.apply_ry"] == {"calls": 3, "s": 1.75, "self_s": 1.75}
    assert summary["op"]["self_s"] == pytest.approx(4.25)


def _snapshot():
    return [vars(owner)[attr] for owner, attr in tracing.patch_points()]


def test_installed_wraps_then_restores_every_target():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(a is not b for a, b in zip(_snapshot(), before))
        with tracer.span(tracing.OP_SPAN):
            state = ansatz.init_state(2, simulator.InitKind.ALL_ZERO)
            ansatz.apply_ry(state, 0, 0.3)
    assert all(a is b for a, b in zip(_snapshot(), before))
    summary = tracing.summarize(tracer.names, **tracer.arrays())
    assert summary["simulator.apply_ry"]["calls"] == 1
    assert tracer.counts["simulator.bytes_computed"] == 2 * 4 * 8


def test_untraced_path_patches_nothing(monkeypatch):
    def refuse(tracer):
        raise AssertionError("the untraced path installed a tracer")

    monkeypatch.setattr(tracing, "installed", refuse)
    before = _snapshot()
    wl = workloads.WORKLOADS["shots_mitigate"]
    inputs = wl.make_inputs(3)
    record = run.run_op(wl, inputs, 0)
    assert not record.failed
    assert all(a is b for a, b in zip(_snapshot(), before))


def test_traced_op_gives_the_untraced_results():
    wl = workloads.WORKLOADS["shots_mitigate"]
    inputs = wl.make_inputs(5)
    plain = run.run_op(wl, inputs, 1)
    traced = run.run_op(wl, inputs, 1, tracing.Tracer())
    assert plain.verdict.digest == traced.verdict.digest


@pytest.mark.parametrize("times, value, percentile", [
    ([3.0, 1.0, 2.0], 1.0, 0.0),
    (list(range(1, 21)), 10, 50.0),
    (list(range(1, 12)), 1, 100 / 11),
])
def test_tail_leaves_ten_ops_beyond(times, value, percentile):
    assert run.tail(times) == (value, pytest.approx(percentile))
