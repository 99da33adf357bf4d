"""Cold start of one workload in a fresh interpreter: ``setup_s`` is the time
from the first statement below, through ``import repro...`` and the build, to
ready (``Workload.ready``).  ``bench.py`` launches this a dozen times per
run, spread between the timed passes, and reads the one JSON line it prints.

usage: coldstart.py WORKLOAD SEED PROBE(0|1)

With PROBE=1 engine construction is timed as well (``engine.lower_cold_s``:
every switch's lowering, in a process whose caches are empty); the end-to-end
runs leave it off so that nothing is wrapped while ``setup_s`` is taken.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

from workloads import WORKLOADS  # noqa: E402


def main():
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    probe = sys.argv[3] == "1"
    workload.load()
    imported = perf_counter()
    lowering = [0.0]
    if probe and "scenario" in workload.layers:
        import repro.interp.network as network

        make_engine = network.make_engine

        def timed_make_engine(*args, **kwargs):
            start = perf_counter()
            try:
                return make_engine(*args, **kwargs)
            finally:
                lowering[0] += perf_counter() - start

        network.make_engine = timed_make_engine
    workload.ready(seed)
    ready = perf_counter()
    print(json.dumps({"import_s": imported - _T0, "setup_s": ready - _T0,
                      "lower_cold_s": lowering[0]}))


if __name__ == "__main__":
    main()
