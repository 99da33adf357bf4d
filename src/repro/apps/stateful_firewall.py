"""The stateful firewall (SFW) — the paper's running case study (Section 7.4).

Outbound flows from trusted hosts are inserted into a cuckoo hash table with
two possible locations per flow and a stash; inbound packets are only allowed
if their (reversed) flow key is present.  Control events perform cuckoo
installation (with bounded re-install recursion) and a periodic timeout scan
that ages out idle entries — both entirely in the data plane.

The module also provides :class:`FirewallExperiment`, the driver used by the
Figure 17 benchmark: it replays a flow workload through the interpreter,
measures per-flow installation time (data-plane integrated control), and
compares against the Mantis-style remote controller model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.base import Application
from repro.control import ControlPlaneConfig, RemoteController
from repro.frontend.type_checker import check_program
from repro.interp import EventInstance, Network, SchedulerConfig, single_switch_network
from repro.interp.engine import DEFAULT_ENGINE
from repro.interp.interpreter import lucid_hash
from repro.workloads import FlowWorkload

SOURCE = r"""
// Stateful firewall with a data-plane cuckoo hash table (Section 7.4).
// Flow keys live in two tables (one per hash function) plus a stash that
// holds a victim while it is being re-installed, so installs are transparent
// to concurrent lookups.
symbolic size TBL_SLOTS = 1024;
const int SEED1 = 10398247;
const int SEED2 = 1295981879;
const int MAX_CUCKOO_RETRIES = 2;
const int TIMEOUT_NS = 100000000;
const int SCAN_DELAY_NS = 100000;
const int TRUSTED_PORT = 1;
const int UNTRUSTED_PORT = 2;

global keys1 = new Array<<32>>(TBL_SLOTS);
global keys2 = new Array<<32>>(TBL_SLOTS);
global stash = new Array<<32>>(4);
global ts1 = new Array<<32>>(TBL_SLOTS);
global ts2 = new Array<<32>>(TBL_SLOTS);

// memops: one stateful-ALU operation each
memop keep(int stored, int unused) { return stored; }
memop overwrite(int stored, int newval) { return newval; }
memop set_if_empty(int stored, int newval) {
  if (stored == 0) { return newval; } else { return stored; }
}
memop refresh(int stored, int now) { return now; }

event pkt_out(int src, int dst);
event pkt_in(int src, int dst);
event install(int key, int retries);
event evict_slot(int slot, int idx);
event scan_timeouts(int idx);

fun int flow_key(int src, int dst) {
  return hash<<32>>(src, dst, SEED1);
}

handle pkt_out(int src, int dst) {
  int key = flow_key(src, dst);
  int h1 = hash<<10>>(key, SEED1);
  int h2 = hash<<10>>(key, SEED2);
  // opportunistic install: claim an empty slot during this packet's own pass,
  // so most flows install with an effective latency of 0 ns (Section 7.4)
  int k1 = Array.update(keys1, h1, keep, 0, set_if_empty, key);
  if (k1 == 0 || k1 == key) {
    Array.set(ts1, h1, refresh, Sys.time());
  } else {
    int k2 = Array.update(keys2, h2, keep, 0, set_if_empty, key);
    if (k2 == 0 || k2 == key) {
      Array.set(ts2, h2, refresh, Sys.time());
    } else {
      // both slots hold other flows: run a cuckoo install as a control event
      generate install(key, 0);
    }
  }
  forward(UNTRUSTED_PORT);
}

handle pkt_in(int src, int dst) {
  // return traffic: allowed only when the outbound flow was installed
  int key = flow_key(dst, src);
  int h1 = hash<<10>>(key, SEED1);
  int h2 = hash<<10>>(key, SEED2);
  int k1 = Array.get(keys1, h1);
  int k2 = Array.get(keys2, h2);
  int stashed = Array.get(stash, 0);
  if (k1 == key || k2 == key || stashed == key) {
    forward(TRUSTED_PORT);
  } else {
    drop();
  }
}

handle install(int key, int retries) {
  int h1 = hash<<10>>(key, SEED1);
  int old1 = Array.update(keys1, h1, keep, 0, set_if_empty, key);
  if (old1 == 0) {
    Array.set(ts1, h1, refresh, Sys.time());
  } else {
    if (old1 != key) {
      int h2 = hash<<10>>(key, SEED2);
      int old2 = Array.update(keys2, h2, keep, 0, overwrite, key);
      if (old2 != 0 && old2 != key) {
        // we evicted a victim: stash it and re-install it with a new pass
        Array.set(stash, 0, overwrite, old2);
        if (retries < MAX_CUCKOO_RETRIES) {
          generate install(old2, retries + 1);
        }
      }
      Array.set(ts2, h2, refresh, Sys.time());
    }
  }
}

handle evict_slot(int slot, int idx) {
  // delete a timed-out entry; issued by the timeout scan
  if (slot == 1) {
    Array.set(keys1, idx, overwrite, 0);
  } else {
    Array.set(keys2, idx, overwrite, 0);
  }
}

handle scan_timeouts(int idx) {
  int seen1 = Array.get(ts1, idx);
  int seen2 = Array.get(ts2, idx);
  int now = Sys.time();
  if (seen1 != 0 && now - seen1 > TIMEOUT_NS) {
    generate evict_slot(1, idx);
  }
  if (seen2 != 0 && now - seen2 > TIMEOUT_NS) {
    generate evict_slot(2, idx);
  }
  int next = idx + 1;
  if (next == TBL_SLOTS) {
    next = 0;
  }
  generate Event.delay(scan_timeouts(next), SCAN_DELAY_NS);
}
"""

APP = Application(
    key="SFW",
    name="Stateful Firewall",
    description="Blocks connections not initiated by trusted hosts; control "
    "events update a cuckoo hash table.",
    control_role="Control events update a Cuckoo hash table",
    source=SOURCE,
    paper_lucid_loc=189,
    paper_p4_loc=2267,
    paper_stages=10,
    invariants=("firewall-solicited-only",),
)


# ---------------------------------------------------------------------------
# Figure 17 driver
# ---------------------------------------------------------------------------
@dataclass
class InstallMeasurement:
    """Flow-installation latency for one flow."""

    flow_key: int
    first_packet_ns: int
    installed_ns: int

    @property
    def latency_ns(self) -> int:
        return self.installed_ns - self.first_packet_ns


@dataclass
class FirewallExperiment:
    """Replays a flow workload through the Lucid stateful firewall and
    measures flow-installation time (the Figure 17 metric)."""

    table_slots: int = 1024
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: execution engine name ("reference", "pisa", or "codegen"); the
    #: codegen engine is several times faster than the reference
    #: interpreter and behaviourally identical
    engine: str = DEFAULT_ENGINE

    def _flow_key(self, src: int, dst: int) -> int:
        return lucid_hash(32, [src, dst, 10398247])

    def run_data_plane(self, workload: FlowWorkload) -> List[InstallMeasurement]:
        """Integrated control: install happens via data-plane events."""
        checked = check_program(
            SOURCE, name="SFW", symbolic_bindings={"TBL_SLOTS": self.table_slots}
        )
        network, switch = single_switch_network(
            checked, config=self.scheduler, engine=self.engine
        )
        first_packet: Dict[int, int] = {}
        installed: Dict[int, int] = {}
        keys1 = switch.array("keys1")
        keys2 = switch.array("keys2")
        stash = switch.array("stash")

        def _is_installed(key: int) -> bool:
            h1 = lucid_hash(10, [key, 10398247])
            h2 = lucid_hash(10, [key, 1295981879])
            return (
                keys1.cells[h1 % keys1.size] == key
                or keys2.cells[h2 % keys2.size] == key
                or stash.cells[0] == key
            )

        def on_handle(entry) -> None:
            # an install completes at the end of whichever pass wrote the key:
            # the first packet's own pass (0 ns) or a later cuckoo recirculation
            if entry.event.name == "pkt_out":
                key = self._flow_key(entry.event.args[0], entry.event.args[1])
            elif entry.event.name == "install":
                key = entry.event.args[0]
            else:
                return
            if key not in installed and _is_installed(key):
                installed[key] = entry.time_ns

        network.on_handle = on_handle
        for flow in workload:
            if not flow.outbound:
                continue
            key = self._flow_key(flow.src, flow.dst)
            first_packet.setdefault(key, flow.start_ns)
            for t in flow.packet_times():
                network.inject(0, EventInstance("pkt_out", (flow.src, flow.dst)), at_ns=t)
        network.run()
        measurements = []
        for key, first_ns in first_packet.items():
            done_ns = installed.get(key)
            if done_ns is None:
                # installed during the first packet's own pipeline pass
                done_ns = first_ns
            measurements.append(
                InstallMeasurement(flow_key=key, first_packet_ns=first_ns, installed_ns=max(done_ns, first_ns))
            )
        return measurements

    def run_remote_control(
        self, workload: FlowWorkload, config: Optional[ControlPlaneConfig] = None
    ) -> List[InstallMeasurement]:
        """Baseline: every new flow is installed by the switch-CPU controller."""
        controller = RemoteController(config=config)
        measurements = []
        seen: Dict[int, int] = {}
        for flow in sorted((f for f in workload if f.outbound), key=lambda f: f.start_ns):
            key = self._flow_key(flow.src, flow.dst)
            if key in seen:
                continue
            seen[key] = flow.start_ns
            record = controller.install_flow(key, flow.start_ns)
            measurements.append(
                InstallMeasurement(
                    flow_key=key,
                    first_packet_ns=flow.start_ns,
                    installed_ns=record.completed_at_ns,
                )
            )
        return measurements

    @staticmethod
    def latency_cdf(measurements: List[InstallMeasurement]) -> List[Tuple[int, float]]:
        """(latency_ns, cumulative probability) points for a CDF plot."""
        latencies = sorted(m.latency_ns for m in measurements)
        n = len(latencies)
        return [(lat, (i + 1) / n) for i, lat in enumerate(latencies)]
