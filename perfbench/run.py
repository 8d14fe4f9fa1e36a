"""Seeded, layered benchmark of the knowhow solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-m --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each op starts when the previous one has
finished and been checked.  A run generates its inputs from ``--seed``, runs
ops for ``--seconds`` of wall time, checks every output, and prints the
metrics as one JSON object on the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` records spans
at every layer boundary, reports the per-layer metrics, replays the same ops
untraced to measure the tracing overhead, and writes the spans to
``perfbench/out/``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import measure
import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9


@dataclass
class PassResult:
    """What one closed-loop pass over a workload's inputs produced."""

    attempted: int = 0
    answered: int = 0  # finished within budget with a correct output
    wrong: int = 0
    errors: int = 0  # unexpected exceptions
    over_budget: int = 0
    capacity_errors: int = 0
    # Op times are scaled to reference machine speed (``measure.SpeedProbe``).
    busy_s: float = 0.0  # summed op latencies, unclipped
    latencies: list[float] = field(default_factory=list)  # failed ops at the budget
    digest: Any = field(default_factory=hashlib.sha256)
    digested: int = 0
    sat_states: list[int] = field(default_factory=list)
    sat_verdicts: int = 0
    guesses: int = 0
    guesses_compatible: int = 0
    compatible_unverified: int = 0
    rescues: int = 0

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.errors == 0

    def count_verdict(self, verdict) -> None:
        if verdict.certificate is not None:
            self.sat_verdicts += 1
            self.sat_states.append(len(verdict.certificate.model.states))
        for record in verdict.trace or ():
            self.guesses += 1
            self.guesses_compatible += record.compatible
            self.compatible_unverified += record.compatible and not record.certificate_verified
            self.rescues += record.rescued


def run_pass(
    workload, seed: int, seconds: float, speed: measure.SpeedProbe, tracer=None, limit: int | None = None
) -> PassResult:
    """Run ops until ``seconds`` of wall time have passed, or ``limit`` ops.

    ``speed`` samples the machine's speed between ops, outside the op times,
    and each op time is scaled by its current factor.
    """
    from knowhow.certificate import CapacityError  # importable once main has set the path

    result = PassResult()
    budget = measure.Budget(workload.budget_s)
    traced = tracer is not None
    started = perf_counter()
    for index, item in enumerate(workload.inputs(seed)):
        if limit is not None:
            if index >= limit:
                break
        elif perf_counter() - started >= seconds:
            break
        speed.maybe_sample()
        output = outcome = None
        if traced:
            tracer.begin_op(index)
        t0 = perf_counter()
        try:
            with budget:
                output = workload.op(item, traced=traced)
        except measure.OverBudget:
            outcome = "over budget"
            result.over_budget += 1
        except CapacityError:
            outcome = "capacity error"
            result.capacity_errors += 1
        except Exception:
            outcome = "error"
            result.errors += 1
            traceback.print_exc()
        elapsed = (perf_counter() - t0) * speed.current
        if traced:
            tracer.end_op()

        result.attempted += 1
        result.busy_s += elapsed
        if outcome is None:
            if workload.check(item, output):
                result.answered += 1
                result.latencies.append(elapsed)
            else:
                outcome = "wrong output"
                result.wrong += 1
                print(f"perfbench: wrong output on {workload.name} input {item[0]}", file=sys.stderr)
            for verdict in workload.verdicts(output):
                result.count_verdict(verdict)
        if outcome is not None:
            result.latencies.append(workload.budget_s * speed.current)
        if index < workload.digest_ops:
            text = workload.digest(item, output) if output is not None else f"{item[0]}\t{outcome}"
            result.digest.update(text.encode() + b"\n")
            result.digested += 1
    return result


def setup_seconds(workload_name: str) -> float:
    """One set-up in a fresh interpreter: import knowhow plus one warm-up op."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload_name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def end_to_end_metrics(result: PassResult, setup_samples: list[float]) -> dict:
    """Times are at reference machine speed, as ``run_pass`` scaled them."""
    latency = measure.latency_summary(result.latencies)
    return {
        "ops_per_s": (result.answered / result.busy_s, "1/s"),
        "latency_p50_ms": (latency["p50"] * 1000, "ms"),
        "latency_p90_ms": (latency["p90"] * 1000, "ms"),
        "answered_share": (result.answered / result.attempted, "ratio"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def per_layer_metrics(tracer, result: PassResult, overhead: float, speed: measure.SpeedProbe) -> dict:
    """Span times are scaled by the traced pass's machine-speed factor."""
    scale = speed.scale()
    totals = spans.span_totals(tracer)
    with_setup = spans.span_totals(tracer, include_setup=True)
    counters = tracer.counters
    ops = result.attempted

    def span(name: str, key: str) -> float:
        value = totals.get(name, {}).get(key, 0)
        return value if key == "calls" else value * scale

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    built = span("certificate.build", "calls") - counters["certificate.build.errors"]
    verified = span("certificate.verify", "calls") - counters["certificate.verify.errors"]
    rows = [
        ("op.s", span("op", "s") / ops, "s/op"),
        ("certificate.build.calls", span("certificate.build", "calls") / ops, "count/op"),
        ("certificate.build.self_s", span("certificate.build", "self_s") / ops, "s/op"),
        ("certificate.state_enumeration.s", span("certificate.state_enumeration", "s") / ops, "s/op"),
        ("certificate.states", ratio(counters["certificate.states"], built), "count"),
        ("certificate.edges", ratio(counters["certificate.edges"], built), "count"),
        ("certificate.capacity_errors", counters["certificate.build.errors"] / ops, "count/op"),
        ("cert_states_mean", ratio(sum(result.sat_states), len(result.sat_states)), "count"),
        ("certificate.verify.calls", span("certificate.verify", "calls") / ops, "count/op"),
        ("certificate.verify.s", span("certificate.verify", "s") / ops, "s/op"),
        ("certificate.verify_pass_ratio", ratio(counters["certificate.verify.passed"], verified), "ratio"),
        ("propsat.is_sat.calls", span("propsat.is_sat", "calls") / ops, "count/op"),
        ("propsat.is_sat.s", span("propsat.is_sat", "s") / ops, "s/op"),
        ("propsat.is_sat.sat_ratio",
         ratio(counters["propsat.is_sat.sat"], span("propsat.is_sat", "calls")), "ratio"),
        ("propsat.to_cnf.s", span("propsat.to_cnf", "s") / ops, "s/op"),
        ("propsat.enumerate.calls", span("propsat.enumerate", "calls") / ops, "count/op"),
        ("propsat.enumerate.models", counters["propsat.enumerate.models"] / ops, "count/op"),
        ("khsat.guess_enumeration.s", span("khsat.guess_enumeration", "s") / ops, "s/op"),
        ("khsat.guesses", result.guesses / ops, "count/op"),
        ("khsat.guesses_compatible", result.guesses_compatible / ops, "count/op"),
        ("khsat.compatible_unverified", result.compatible_unverified / ops, "count/op"),
        ("khsat.rescues", result.rescues / ops, "count/op"),
        ("khsat.useful_guess_ratio", ratio(result.sat_verdicts, result.guesses), "ratio"),
        ("khsat.context.s", span("khsat.context", "s") / ops, "s/op"),
        ("khsat.compatible.s", span("khsat.compatible", "s") / ops, "s/op"),
        ("khsat.decide.self_s", span("khsat.decide", "self_s") / ops, "s/op"),
        ("normalform.flatten.s", span("normalform.flatten", "s") / ops, "s/op"),
        ("normalform.defs", counters["normalform.defs"] / ops, "count/op"),
        ("semantics.eval.calls", span("semantics.eval", "calls") / ops, "count/op"),
        ("semantics.eval.self_s", span("semantics.eval", "self_s") / ops, "s/op"),
        ("semantics.desugar.s", span("semantics.desugar", "s") / ops, "s/op"),
        ("semantics.witness.calls", span("semantics.witness", "calls") / ops, "count/op"),
        ("semantics.witness.s", span("semantics.witness", "s") / ops, "s/op"),
        ("oracle.falsify.calls", span("oracle.falsify", "calls") / ops, "count/op"),
        ("oracle.falsify.s", span("oracle.falsify", "s") / ops, "s/op"),
        ("oracle.falsify.exhaustive.s", span("oracle.falsify.exhaustive", "s") / ops, "s/op"),
        ("oracle.falsify.hits", counters["oracle.falsify.hits"] / ops, "count/op"),
        # The witness tables are built once, by the warm-up op: a set-up cost.
        ("oracle.witness_table.s", with_setup.get("oracle.witness_table", {}).get("s", 0.0) * scale, "s"),
        ("trace.overhead_share", overhead, "ratio"),
        ("machine.reference_work_s", statistics.median(speed.samples), "s"),
    ]
    return {name: (value, unit) for name, value, unit in rows}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    measure.use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    if args.trace:
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        tracer.begin_op(spans.SETUP_OP)
        workload.warm_up()
        tracer.end_op()
        tracer.counters.clear()
        speed, replay_speed = measure.SpeedProbe(), measure.SpeedProbe()
        result = run_pass(workload, args.seed, args.seconds, speed, tracer)
        tracer.uninstall()
        replay = run_pass(workload, args.seed, args.seconds, replay_speed, limit=result.attempted)
        overhead = result.busy_s / replay.busy_s - 1
        metrics = per_layer_metrics(tracer, result, overhead, speed)
        tracer.dump(HERE / "out" / f"spans-{workload.name}-seed{args.seed}.npz")
        correct = result.correct and replay.correct
    else:
        speed = measure.SpeedProbe()
        setup_samples = []
        for _ in range(SETUP_SAMPLES):
            speed.sample()
            setup_samples.append(setup_seconds(workload.name) * speed.current)
        workload.warm_up()
        result = run_pass(workload, args.seed, args.seconds, speed)
        metrics = end_to_end_metrics(result, setup_samples)
        correct = result.correct

    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: {result.attempted} ops, "
        f"{result.answered} answered, {result.over_budget} over budget, "
        f"{result.capacity_errors} capacity errors, {result.wrong} wrong outputs, "
        f"{result.errors} errors; latency samples {len(result.latencies)}; "
        f"times scaled by machine-speed factor {speed.scale():.4f}"
    )
    print(
        f"parity digest (compare across runs and commits; not a metric): "
        f"sha256 {result.digest.hexdigest()} over the first {result.digested} ops"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.attempted - result.answered,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
