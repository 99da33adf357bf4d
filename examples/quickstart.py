#!/usr/bin/env python3
"""Quickstart: write a tiny Lucid program, check it, compile it to P4, and run
it in the interpreter.

Run with::

    python examples/quickstart.py
"""

from repro.core import EventInstance, compile_program, single_switch_network

PROGRAM = r"""
// A per-destination packet counter with a periodic reset thread.
const int TBL = 64;
const int RESET_DELAY_NS = 1000000;

global counts = new Array<<32>>(TBL);

memop plus(int stored, int x) { return stored + x; }
memop zero(int stored, int unused) { return 0; }

event pkt(int dst);
event reset(int idx);

handle pkt(int dst) {
  Array.set(counts, dst, plus, 1);
  forward(1);
}

handle reset(int idx) {
  Array.set(counts, idx, zero, 0);
  int next = idx + 1;
  if (next == TBL) {
    next = 0;
  }
  generate Event.delay(reset(next), RESET_DELAY_NS);
}
"""


def main() -> None:
    # 1. compile: type/memop/ordering checks, layout, and P4 generation
    compiled = compile_program(PROGRAM, name="quickstart")
    print("== compilation ==")
    for key, value in compiled.summary().items():
        print(f"  {key:22s} {value}")

    print("\n== first lines of the generated P4 ==")
    for line in compiled.p4.full_text().splitlines()[:12]:
        print(" ", line)

    # 2. interpret: run the program on a simulated switch.
    #
    # The simulator has three engines (see repro.interp.engine): the default
    # engine="codegen" emits each handler as flat Python source once per
    # program and is the fastest on event-heavy workloads; engine="reference"
    # selects the tree-walking interpreter, the oracle the others are tested
    # against; engine="pisa" executes events through the compiled pipeline
    # layout, stage by stage, with recirculation and delay-queue cost
    # accounting.  All three are behaviourally identical
    # (tests/test_compiled_interp.py and tests/test_engines.py), so
    # prototype with any.  For bulk simulations, also set
    # network.trace_enabled = False to skip per-event trace allocation;
    # e2ebench/bench.py measures end-to-end throughput.
    network, switch = single_switch_network(compiled.checked, engine="codegen")
    for i in range(20):
        network.inject(0, EventInstance("pkt", (i % 4,)), at_ns=i * 1000)
    network.inject(0, EventInstance("reset", (0,)), at_ns=50_000)
    network.run(until_ns=2_000_000)

    print("\n== runtime state ==")
    print("  counts[0..3] =", switch.array("counts").snapshot()[:4])
    print("  events handled:", switch.stats.events_handled)
    print("  recirculations:", switch.stats.recirculations)


if __name__ == "__main__":
    main()
