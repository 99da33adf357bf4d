"""The fast rerouter (RR) — the paper's driving example (Section 2, Figure 2).

Forwarding looks up a next hop and checks that it is still reachable; fault
detection pings neighbours on a timer; rerouting queries all neighbours for
their path length and adopts the best reply.  All three components are control
events interleaved with packet forwarding.
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Fast rerouter: forwarding + fault detection + distributed rerouting.
symbolic size TBL_SZ = 64;
const int INFINITY = 1048576;
const int PROBE_DELAY_NS = 1000000;
const int SCAN_DELAY_NS = 1000;
const int LINK_FRESH = 3;
const group NEIGHBORS = {1, 2, 3};

global pathlens = new Array<<32>>(TBL_SZ);
global nexthops = new Array<<32>>(TBL_SZ);
global linkstat = new Array<<32>>(128);

memop keep(int stored, int unused) { return stored; }
memop overwrite(int stored, int newval) { return newval; }
memop min_update(int stored, int candidate) {
  if (candidate < stored) { return candidate; } else { return stored; }
}
memop decay(int stored, int unused) {
  if (stored > 0) { return stored - 1; } else { return stored; }
}

event data_pkt(int dst);
event route_query(int sender_id, int dst);
event route_reply(int sender_id, int dst, int pathlen);
event check_route(int dst);
event link_probe(int sender_id);
event link_probe_reply(int sender_id);
event probe_links();
event age_links(int port);

fun int get_pathlen(int dst) {
  return Array.get(pathlens, dst);
}

// Forwarding: look up the next hop, verify the link, reroute if it is down.
handle data_pkt(int dst) {
  int hop = Array.get(nexthops, dst);
  int alive = Array.get(linkstat, hop);
  if (alive == 0) {
    // next hop unreachable: ask every neighbour for its path length
    mgenerate Event.locate(route_query(SELF, dst), NEIGHBORS);
  } else {
    forward(hop);
  }
}

// Routing: answer queries with our own path length, adopt shorter replies.
handle route_query(int sender_id, int dst) {
  int pathlen = get_pathlen(dst);
  event reply = route_reply(SELF, dst, pathlen);
  generate Event.locate(reply, sender_id);
}

handle route_reply(int sender_id, int dst, int pathlen) {
  int candidate = pathlen + 1;
  int old = Array.update(pathlens, dst, keep, 0, min_update, candidate);
  if (candidate < old) {
    Array.set(nexthops, dst, overwrite, sender_id);
  }
}

// Periodic route-table scan: re-query routes that have become unreachable.
handle check_route(int dst) {
  int pathlen = get_pathlen(dst);
  if (pathlen >= INFINITY) {
    mgenerate Event.locate(route_query(SELF, dst), NEIGHBORS);
  }
  int next = dst + 1;
  if (next == TBL_SZ) {
    next = 0;
  }
  generate Event.delay(check_route(next), SCAN_DELAY_NS);
}

// Fault detection: ping all neighbours, age the link table between pings.
handle probe_links() {
  mgenerate Event.locate(link_probe(SELF), NEIGHBORS);
  generate Event.delay(probe_links(), PROBE_DELAY_NS);
}

handle link_probe(int sender_id) {
  generate Event.locate(link_probe_reply(SELF), sender_id);
}

handle link_probe_reply(int sender_id) {
  Array.set(linkstat, sender_id, overwrite, LINK_FRESH);
}

handle age_links(int port) {
  Array.set(linkstat, port, decay, 0);
  int next = port + 1;
  if (next == 128) {
    next = 0;
  }
  generate Event.delay(age_links(next), SCAN_DELAY_NS);
}
"""

APP = Application(
    key="RR",
    name="Fast Rerouter",
    description="Forwards packets, identifies failures, and routes around them.",
    control_role="Control events perform fault detection and routing",
    source=SOURCE,
    paper_lucid_loc=115,
    paper_p4_loc=899,
    paper_stages=8,
)
