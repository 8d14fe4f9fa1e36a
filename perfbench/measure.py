"""Measurement helpers shared by the benchmark entry points.

Nothing here imports ``knowhow``: ``setup_probe.py`` imports this module
before it starts its clock, and the clock must cover the first ``knowhow``
import.
"""

from __future__ import annotations

import math
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy, so a tree without ``src/knowhow`` is an error.
    """
    src = ROOT / "src"
    if not (src / "knowhow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no knowhow sources under {src}")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# Percentiles

P90_TAIL = 10  # samples that must lie beyond a reported percentile


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """Median and 90th percentile, in the unit of the samples.

    The 90th percentile is reported only when at least ``P90_TAIL`` samples
    lie beyond it, so a run needs ``10 * P90_TAIL`` samples.
    """
    n = len(latencies)
    beyond = n - math.ceil(0.9 * n)
    if beyond < P90_TAIL:
        raise ValueError(
            f"{n} latency samples leave {beyond} beyond the 90th percentile; "
            f"need {P90_TAIL} (run longer)"
        )
    return {"p50": percentile(latencies, 0.5), "p90": percentile(latencies, 0.9), "samples": n}


# ---------------------------------------------------------------------------
# Per-op time budget


class OverBudget(BaseException):
    """Raised inside an op whose time budget ran out.

    A ``BaseException`` so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _raise_over_budget(signum, frame):
    raise OverBudget()


class Budget:
    """Interrupts the calling thread after ``seconds`` via SIGALRM."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        signal.signal(signal.SIGALRM, _raise_over_budget)

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Machine speed


def reference_work() -> int:
    """A fixed piece of pure-Python work, independent of ``knowhow``:
    list and dict traffic, tuple building, recursion and a sort."""
    rng = random.Random(12345)
    data = [rng.getrandbits(16) for _ in range(3000)]
    counts: dict[int, int] = {}
    for x in data:
        counts[x % 97] = counts.get(x % 97, 0) + 1

    def depth(tree, d=0):
        return d if not isinstance(tree, tuple) else max(depth(tree[0], d + 1), depth(tree[1], d + 1))

    total = 0
    for i in range(300):
        tree = i
        for j in range(8):
            tree = (tree, j) if (i >> j) & 1 else (j, tree)
        total += depth(tree)
    return sorted(data)[1500] + total + len(counts)


class SpeedProbe:
    """Times ``reference_work`` every ``INTERVAL_S`` of a run.

    The machine the benchmark runs on is shared, and its speed drifts by
    tens of percent over seconds to minutes, so runs of the same code on
    different seeds spread far more than their inputs do.  Python work slows
    down with the machine by about the same factor as the reference work, so
    a time multiplied by ``current`` (the factor from the last few samples)
    cancels the drift: it reads as if the reference work took
    ``REFERENCE_S``.
    """

    INTERVAL_S = 0.25
    REFERENCE_S = 0.0025  # about what the reference work takes on the 2-CPU machine of the baseline
    WINDOW = 5  # samples the current factor is the median of

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.current = 1.0
        self._next = 0.0

    def sample(self) -> None:
        started = perf_counter()
        reference_work()
        ended = perf_counter()
        self.samples.append(ended - started)
        self.current = self.REFERENCE_S / statistics.median(self.samples[-self.WINDOW:])
        self._next = ended + self.INTERVAL_S

    def maybe_sample(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def scale(self) -> float:
        """The factor over the whole run."""
        return self.REFERENCE_S / statistics.median(self.samples)
