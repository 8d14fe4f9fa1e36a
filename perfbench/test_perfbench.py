"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from dataclasses import replace

import pytest

import measure

measure.use_checkout_source()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from knowhow import decide, parse  # noqa: E402
from knowhow.khsat import Result  # noqa: E402
from knowhow.semantics import make_lts  # noqa: E402


# -- percentiles and sample counts -------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert measure.percentile(values, 0.5) == 5.0
    assert measure.percentile(values, 0.9) == 9.0
    assert measure.percentile(values, 1.0) == 10.0
    assert measure.percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_p90_needs_ten_samples_beyond_it():
    summary = measure.latency_summary([float(v) for v in range(1, 101)])
    assert summary == {"p50": 50.0, "p90": 90.0, "samples": 100}
    with pytest.raises(ValueError, match="9 beyond"):
        measure.latency_summary([float(v) for v in range(1, 100)])


# -- self time over nested spans ---------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 6] and [4, 8] cover 7 of the root; the last child of the
    # second root sticks out past its parent and counts only inside it.
    starts = [0.0, 1.0, 4.0, 20.0, 23.0]
    ends = [10.0, 6.0, 8.0, 25.0, 27.0]
    parents = [-1, 0, 0, -1, 3]
    selfs = spans.self_times(starts, ends, parents)
    assert selfs[0] == 3.0
    assert selfs[3] == 3.0


def test_tracer_records_nesting_and_per_name_totals():
    tracer = spans.Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap(inner, "inner", lambda r: {"inner.result": r})

    def outer():
        return traced_inner() + traced_inner()

    traced_outer = tracer.wrap(outer, "outer")
    assert traced_outer() == 2  # outside an op: nothing recorded
    assert len(tracer.starts) == 0

    tracer.begin_op(0)
    traced_outer()
    tracer.end_op()
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names == ["op", "outer", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 1, 1]
    assert tracer.counters["inner.result"] == 2

    totals = spans.span_totals(tracer)
    inner_s = tracer.ends[2] - tracer.starts[2] + tracer.ends[3] - tracer.starts[3]
    outer_s = tracer.ends[1] - tracer.starts[1]
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(outer_s - inner_s)


def test_setup_spans_are_kept_apart():
    tracer = spans.Tracer()
    step = tracer.wrap(lambda: None, "step")
    tracer.begin_op(spans.SETUP_OP)
    step()
    tracer.end_op()
    tracer.begin_op(0)
    step()
    tracer.end_op()
    assert spans.span_totals(tracer)["step"]["calls"] == 1
    assert spans.span_totals(tracer, include_setup=True)["step"]["calls"] == 2


# -- the correctness gate -----------------------------------------------------


def _strip_relations(verdict):
    model = verdict.certificate.model
    props = {s: [a for a, mask in model.val.items() if mask >> i & 1] for i, s in enumerate(model.states)}
    broken = make_lts(model.states, props, {})
    return replace(verdict, certificate=replace(verdict.certificate, model=broken))


class _Corrupting:
    """decide-m on fixed inputs, with every SAT certificate's relations cut."""

    formulas = ("Kh(p, q) & p & ~q", "p & ~p", "Kh(q, p) & q & ~p")

    def __init__(self):
        self.inner = workloads.WORKLOADS["decide-m"]

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def inputs(self, seed):
        return iter([(i, parse(text)) for i, text in enumerate(self.formulas)])

    def op(self, item, *, traced):
        verdict = self.inner.op(item, traced=traced)
        return _strip_relations(verdict) if verdict.result is Result.SAT else verdict


def test_gate_rejects_a_corrupted_certificate():
    f = parse("Kh(p, q) & p & ~q")
    verdict = decide(f)
    assert verdict.result is Result.SAT
    assert workloads.certificate_holds(verdict, f)
    assert not workloads.certificate_holds(_strip_relations(verdict), f)
    item = (0, f)
    assert not workloads.WORKLOADS["decide-m"].check(item, _strip_relations(verdict))


def test_gate_rejects_unsat_refuted_by_the_falsifier():
    differential = workloads.WORKLOADS["differential-s"]
    f = parse("p")
    item = (0, f)
    plain, augmented, model = differential.op(item, traced=False)
    assert differential.check(item, (plain, augmented, model))
    unsat = replace(plain, result=Result.UNSAT, certificate=None)
    assert not differential.check(item, (unsat, replace(augmented, result=Result.UNSAT, certificate=None), model))


class _UnitSpeed(measure.SpeedProbe):
    """Leaves op times unscaled."""

    def maybe_sample(self):
        pass


def test_a_wrong_output_fails_the_pass_and_keeps_its_latency_sample():
    gate = _Corrupting()
    result = run.run_pass(gate, seed=3, seconds=60, speed=_UnitSpeed())
    assert (result.attempted, result.answered, result.wrong) == (3, 1, 2)
    assert not result.correct
    assert len(result.latencies) == 3
    assert result.latencies.count(gate.budget_s) == 2


def test_same_seed_same_inputs_same_digest():
    modelcheck = workloads.WORKLOADS["modelcheck"]
    first, second, other = (
        run.run_pass(modelcheck, seed=seed, seconds=60, speed=measure.SpeedProbe(), limit=200)
        for seed in (5, 5, 6)
    )
    assert first.correct and first.answered == 200
    assert first.digest.hexdigest() == second.digest.hexdigest()
    assert first.digest.hexdigest() != other.digest.hexdigest()


# -- machine-speed scaling ----------------------------------------------------


def test_op_times_are_scaled_by_the_current_speed_factor():
    speed = measure.SpeedProbe()
    speed.samples = [0.004] * 4
    speed.sample()  # the median of the last samples stays 0.004 whatever this one takes
    assert speed.current == measure.SpeedProbe.REFERENCE_S / 0.004
    speed.maybe_sample = lambda: None
    gate = _Corrupting()
    result = run.run_pass(gate, seed=3, seconds=60, speed=speed)
    assert result.latencies.count(gate.budget_s * speed.current) == 2


# -- the metric names BENCHMARK.json promises --------------------------------


def test_runs_report_exactly_the_metrics_benchmark_json_names():
    import json

    spec = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
    modelcheck = workloads.WORKLOADS["modelcheck"]

    speed = measure.SpeedProbe()
    plain = run.run_pass(modelcheck, seed=1, seconds=60, speed=speed, limit=100)
    end_to_end = run.end_to_end_metrics(plain, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()
    }

    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        traced = run.run_pass(modelcheck, seed=1, seconds=60, speed=speed, tracer=tracer, limit=100)
    finally:
        tracer.uninstall()
    per_layer = run.per_layer_metrics(tracer, traced, overhead=0.0, speed=speed)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    assert per_layer["semantics.eval.calls"][0] == 2.25  # 2, 2, 2 and 3 evaluations per law
