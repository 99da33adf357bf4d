"""Simple NAT (NAT) — basic network address translation.

Internal flows are mapped to external ports allocated from a counter; the
mapping is installed by a control event, and packets of unmapped flows are
(conceptually) buffered by re-generating them with a small delay until the
mapping exists — the idiom the paper's Figure 9 describes as "control events
buffer packets and install entries".
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Simple NAT: allocate external ports in the data plane.
symbolic size NAT_SLOTS = 1024;
const int SEED = 97;
const int FIRST_PORT = 1024;
const int RETRY_DELAY_NS = 10000;
const int WAN_PORT = 2;
const int LAN_PORT = 1;

global next_port = new Array<<32>>(4);
global map_key = new Array<<32>>(NAT_SLOTS);
global map_port = new Array<<32>>(NAT_SLOTS);

memop keep(int stored, int unused) { return stored; }
memop overwrite(int stored, int newval) { return newval; }
memop plus(int stored, int x) { return stored + x; }
memop set_if_empty(int stored, int newval) {
  if (stored == 0) { return newval; } else { return stored; }
}

event pkt_internal(int src, int dst);
event pkt_external(int dst, int port);
event add_mapping(int src, int dst);

fun int nat_index(int src, int dst) {
  return hash<<10>>(src, dst, SEED);
}

// Outbound packet: translate if a mapping exists, otherwise install one and
// retry the packet shortly after (buffering via a delayed event).
handle pkt_internal(int src, int dst) {
  int key = hash<<32>>(src, dst, SEED);
  int idx = nat_index(src, dst);
  int held = Array.get(map_key, idx);
  int port = Array.get(map_port, idx);
  if (held == key) {
    forward(WAN_PORT);
  } else {
    generate add_mapping(src, dst);
    generate Event.delay(pkt_internal(src, dst), RETRY_DELAY_NS);
  }
}

// Control: allocate a fresh external port and pin the mapping.
handle add_mapping(int src, int dst) {
  int key = hash<<32>>(src, dst, SEED);
  int idx = nat_index(src, dst);
  int offset = Array.update(next_port, 0, plus, 1, plus, 1);
  int claimed = Array.update(map_key, idx, keep, 0, set_if_empty, key);
  if (claimed == 0) {
    Array.set(map_port, idx, overwrite, FIRST_PORT + offset);
  }
}

// Inbound packet: reverse translation by external port.
handle pkt_external(int dst, int port) {
  int idx = hash<<10>>(dst, port, SEED);
  int held = Array.get(map_key, idx);
  if (held == 0) {
    drop();
  } else {
    forward(LAN_PORT);
  }
}
"""

APP = Application(
    key="NAT",
    name="Simple NAT",
    description="Basic network address translation; control events buffer "
    "packets and install entries.",
    control_role="Control events buffer packets and install entries",
    source=SOURCE,
    paper_lucid_loc=41,
    paper_p4_loc=707,
    paper_stages=11,
)
