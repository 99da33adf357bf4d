"""The stateful firewall (SFW) — the paper's running case study (Section 7.4).

Outbound flows from trusted hosts are inserted into a cuckoo hash table with
two possible locations per flow and a stash; inbound packets are only allowed
if their (reversed) flow key is present.  Control events perform cuckoo
installation (with bounded re-install recursion) and a periodic timeout scan
that ages out idle entries — both entirely in the data plane.

Figure 17 (flow-installation time against the Mantis-style remote controller)
is measured by the ``sfw-install-latency`` scenario in
:mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

from repro.apps.base import Application

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
)
