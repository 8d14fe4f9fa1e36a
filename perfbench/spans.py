"""In-memory span tracing around the public layer boundaries of ``knowhow``.

The benchmark does not change the program: ``install_layers`` replaces each
boundary function, where its callers look it up, with a wrapper that records
one span per call.  A span has a name, a start, an end, its parent span and
the op it belongs to.  Spans stay in flat arrays until ``dump`` writes them
out, so a traced run of a few million spans stays small.

Wrappers record only while an op is open; calls made between ops (the
benchmark's own correctness checks) pass straight through.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

SETUP_OP = -1  # op id of the warm-up op, traced so the lazy caches it fills show


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.ops = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.counters: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.ops.append(self.op)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        while self.stack and self.stack.pop() != index:
            pass

    def current(self) -> str | None:
        return self.names[self.name_ids[self.stack[-1]]] if self.stack else None

    def begin_op(self, op: int) -> None:
        self.op = op
        self.open("op")

    def end_op(self) -> None:
        """Close the op span and any span a budget interrupt left open."""
        now = perf_counter()
        n = min(len(self.name_ids), len(self.ops), len(self.parents), len(self.starts), len(self.ends))
        for column in (self.name_ids, self.ops, self.parents, self.starts, self.ends):
            del column[n:]
        for index in self.stack:
            if index < n:
                self.ends[index] = now
        self.stack.clear()

    def wrap(self, fn, name, observe=None):
        """``fn`` recording a span named ``name`` (or ``name(tracer)``).

        ``observe(result)`` returns counter increments for a successful call;
        a call that raises an ``Exception`` bumps ``<name>.errors``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            span = name(tracer) if callable(name) else name
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[span + ".errors"] += 1
                raise
            finally:
                tracer.close(index)
            if observe is not None:
                tracer.counters.update(observe(result))
            return result

        return traced

    def patch(self, owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def _enumeration_span(tracer: Tracer) -> str:
    # One oracle method serves both stages; the caller tells them apart.
    if tracer.current() == "certificate.build":
        return "certificate.state_enumeration"
    return "khsat.guess_enumeration"


def _certificate_size(certificate) -> dict[str, int]:
    return {
        "certificate.states": len(certificate.model.states),
        "certificate.edges": sum(len(pairs) for pairs in certificate.model.rel.values()),
    }


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    Each function is patched in every module namespace its callers read it
    from: ``decide`` looks ``build_model`` up on ``knowhow.certificate`` at
    call time, while ``verify_certificate`` reaches ``eval_formula`` through
    its own module's import.
    """
    from knowhow import certificate, khsat, oracle, propsat, semantics

    tracer.patch(khsat, "decide", "khsat.decide")
    tracer.patch(khsat, "flatten", "normalform.flatten", lambda r: {"normalform.defs": len(r.defs)})
    tracer.patch(propsat.SatOracle, "enumerate_models", _enumeration_span)
    tracer.patch(khsat, "global_indices", "khsat.context")
    tracer.patch(khsat, "compatible", "khsat.compatible")
    tracer.patch(certificate, "build_model", "certificate.build", _certificate_size)
    tracer.patch(
        certificate, "verify_certificate", "certificate.verify",
        lambda ok: {"certificate.verify.passed": int(ok)},
    )
    tracer.patch(propsat, "is_sat", "propsat.is_sat", lambda r: {"propsat.is_sat.sat": int(r[0])})
    tracer.patch(propsat, "to_cnf", "propsat.to_cnf")
    tracer.patch(
        propsat, "enumerate_models", "propsat.enumerate",
        lambda r: {"propsat.enumerate.models": len(r)},
    )
    for module in (semantics, certificate, oracle):
        tracer.patch(module, "eval_formula", "semantics.eval")
    tracer.patch(semantics, "desugar", "semantics.desugar")
    tracer.patch(semantics, "has_witness_plan", "semantics.witness")
    tracer.patch(
        oracle, "bounded_sat_search", "oracle.falsify",
        lambda model: {"oracle.falsify.hits": int(model is not None)},
    )
    tracer.patch(oracle, "_exhaustive_tier", "oracle.falsify.exhaustive")
    tracer.patch(oracle, "_witness_table", "oracle.witness_table")


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are indexed in start order and every parent precedes its children,
    as ``Tracer.open`` allocates them; overlapping children are counted once.
    """
    covered = [0.0] * len(starts)
    reach = list(starts)  # end of the covered prefix of each span so far
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[i], reach[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - cov for start, end, cov in zip(starts, ends, covered)]


def span_totals(tracer: Tracer, *, include_setup: bool = False) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in tracer.names}
    for i, name_id in enumerate(tracer.name_ids):
        if tracer.ops[i] == SETUP_OP and not include_setup:
            continue
        entry = totals[tracer.names[name_id]]
        entry["calls"] += 1
        entry["s"] += tracer.ends[i] - tracer.starts[i]
        entry["self_s"] += selfs[i]
    return totals
