"""Single-destination RIP (RIP) — classic distance-vector routing.

Each switch keeps its distance to the destination and the neighbour that
advertised it.  Control events periodically advertise the local distance to
all neighbours; receiving an advertisement with a shorter path updates the
local route.  Data packets simply follow the current next hop.
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Single-destination Routing Information Protocol in the data plane.
const int INFINITY = 1048576;
const int ADVERTISE_DELAY_NS = 1000000;
const group NEIGHBORS = {1, 2, 3};

global dist = new Array<<32>>(4);
global nexthop = new Array<<32>>(4);

memop keep(int stored, int unused) { return stored; }
memop overwrite(int stored, int newval) { return newval; }
memop min_update(int stored, int candidate) {
  if (candidate < stored) { return candidate; } else { return stored; }
}

event advertise(int sender_id, int sender_dist);
event periodic_advertise();
event data_pkt(int dst);

// An advertisement updates the route if it offers a shorter path.
handle advertise(int sender_id, int sender_dist) {
  int candidate = sender_dist + 1;
  int old = Array.update(dist, 0, keep, 0, min_update, candidate);
  if (candidate < old) {
    Array.set(nexthop, 0, overwrite, sender_id);
  }
}

// The control thread: advertise our distance to every neighbour on a timer.
handle periodic_advertise() {
  int mine = Array.get(dist, 0);
  if (mine < INFINITY) {
    mgenerate Event.locate(advertise(SELF, mine), NEIGHBORS);
  }
  generate Event.delay(periodic_advertise(), ADVERTISE_DELAY_NS);
}

// Forwarding: follow the current next hop (drop if we have no route yet).
handle data_pkt(int dst) {
  int mine = Array.get(dist, 0);
  int hop = Array.get(nexthop, 0);
  if (mine >= INFINITY) {
    drop();
  } else {
    forward(hop);
  }
}
"""

APP = Application(
    key="RIP",
    name="Single-dest. RIP",
    description="Routing with the classic Routing Information Protocol; "
    "control events distribute routes.",
    control_role="Control events distribute routes",
    source=SOURCE,
    paper_lucid_loc=81,
    paper_p4_loc=764,
    paper_stages=8,
)
