"""One set-up sample: import knowhow, then run the workload's warm-up op.

    python3 perfbench/setup_probe.py <workload>

Prints the seconds taken.  ``run.py`` starts this in a fresh interpreter
several times per run, because an import can be timed only once per process.
"""

import sys
from time import perf_counter

import measure


def main() -> None:
    measure.use_checkout_source()
    started = perf_counter()
    import workloads  # imports knowhow

    workloads.WORKLOADS[sys.argv[1]].warm_up()
    print(perf_counter() - started)


if __name__ == "__main__":
    main()
