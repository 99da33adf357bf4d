"""The distributed probabilistic firewall (DFW), with and without aging.

Every border switch holds a replicated Bloom filter of allowed flows.  When a
trusted host opens a flow through any switch, that switch sets the flow's bits
locally and synchronises the update to its peers, so return traffic is
admitted no matter which border switch it enters through.  The aging variant
(DFW(a) in Figure 9) adds a second filter generation and control events that
rotate and clear the filters so stale entries eventually expire.
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Distributed Bloom-filter firewall: updates are synchronised to all peers.
symbolic size FILTER_BITS = 4096;
const int SEED_A = 3;
const int SEED_B = 59;
const group PEERS = {1, 2, 3};
const int TRUSTED_PORT = 1;
const int UNTRUSTED_PORT = 2;

global bloom_a = new Array<<32>>(FILTER_BITS);
global bloom_b = new Array<<32>>(FILTER_BITS);

memop mark(int stored, int unused) { return 1; }

event pkt_out(int src, int dst);
event pkt_in(int src, int dst);
event sync_add(int ha, int hb);

fun int hash_a(int src, int dst) { return hash<<12>>(src, dst, SEED_A); }
fun int hash_b(int src, int dst) { return hash<<12>>(src, dst, SEED_B); }

// Outbound traffic marks the flow as allowed and tells the other borders.
handle pkt_out(int src, int dst) {
  int ha = hash_a(src, dst);
  int hb = hash_b(src, dst);
  Array.set(bloom_a, ha, mark, 0);
  Array.set(bloom_b, hb, mark, 0);
  mgenerate Event.locate(sync_add(ha, hb), PEERS);
  forward(UNTRUSTED_PORT);
}

// Return traffic is admitted only if the flow is in the filter.
handle pkt_in(int src, int dst) {
  int ha = hash_a(dst, src);
  int hb = hash_b(dst, src);
  int hit_a = Array.get(bloom_a, ha);
  int hit_b = Array.get(bloom_b, hb);
  if (hit_a == 1 && hit_b == 1) {
    forward(TRUSTED_PORT);
  } else {
    drop();
  }
}

// Peers apply synchronised updates directly.
handle sync_add(int ha, int hb) {
  Array.set(bloom_a, ha, mark, 0);
  Array.set(bloom_b, hb, mark, 0);
}
"""

AGING_SOURCE = r"""
// Distributed Bloom-filter firewall with aging: two filter generations are
// kept; lookups accept a flow present in either, inserts go to the active
// generation, and a control thread periodically clears the inactive one and
// swaps the active generation (rotate).
symbolic size FILTER_BITS = 4096;
const int SEED_A = 3;
const int SEED_B = 59;
const group PEERS = {1, 2, 3};
const int TRUSTED_PORT = 1;
const int UNTRUSTED_PORT = 2;
const int CLEAR_DELAY_NS = 100000;

global generation = new Array<<32>>(4);
global young_a = new Array<<32>>(FILTER_BITS);
global young_b = new Array<<32>>(FILTER_BITS);
global old_a = new Array<<32>>(FILTER_BITS);
global old_b = new Array<<32>>(FILTER_BITS);

memop mark(int stored, int unused) { return 1; }
memop clear(int stored, int unused) { return 0; }
memop keep(int stored, int unused) { return stored; }
memop plus(int stored, int x) { return stored + x; }

event pkt_out(int src, int dst);
event pkt_in(int src, int dst);
event sync_add(int ha, int hb);
event age_clear(int idx);
event rotate();

fun int hash_a(int src, int dst) { return hash<<12>>(src, dst, SEED_A); }
fun int hash_b(int src, int dst) { return hash<<12>>(src, dst, SEED_B); }

handle pkt_out(int src, int dst) {
  int ha = hash_a(src, dst);
  int hb = hash_b(src, dst);
  Array.set(young_a, ha, mark, 0);
  Array.set(young_b, hb, mark, 0);
  mgenerate Event.locate(sync_add(ha, hb), PEERS);
  forward(UNTRUSTED_PORT);
}

handle pkt_in(int src, int dst) {
  int ha = hash_a(dst, src);
  int hb = hash_b(dst, src);
  int young_hit_a = Array.get(young_a, ha);
  int young_hit_b = Array.get(young_b, hb);
  int old_hit_a = Array.get(old_a, ha);
  int old_hit_b = Array.get(old_b, hb);
  int young_hit = 0;
  if (young_hit_a == 1 && young_hit_b == 1) {
    young_hit = 1;
  }
  int old_hit = 0;
  if (old_hit_a == 1 && old_hit_b == 1) {
    old_hit = 1;
  }
  if (young_hit == 1 || old_hit == 1) {
    forward(TRUSTED_PORT);
  } else {
    drop();
  }
}

handle sync_add(int ha, int hb) {
  Array.set(young_a, ha, mark, 0);
  Array.set(young_b, hb, mark, 0);
}

// Aging: clear the old generation one cell per pass, then rotate.
handle age_clear(int idx) {
  Array.set(old_a, idx, clear, 0);
  Array.set(old_b, idx, clear, 0);
  int next = idx + 1;
  if (next == FILTER_BITS) {
    generate rotate();
  } else {
    generate Event.delay(age_clear(next), CLEAR_DELAY_NS);
  }
}

handle rotate() {
  // swap generations: the young filter becomes old and a fresh scan begins
  Array.set(generation, 0, plus, 1);
  generate Event.delay(age_clear(0), CLEAR_DELAY_NS);
}
"""

APP = Application(
    key="DFW",
    name="Distributed Prob. Firewall",
    description="Distributed Bloom-filter firewall; control events synchronise "
    "updates between border switches.",
    control_role="Control events sync updates",
    source=SOURCE,
    paper_lucid_loc=66,
    paper_p4_loc=1073,
    paper_stages=10,
)

AGING_APP = Application(
    key="DFW(a)",
    name="Distributed Prob. Firewall + Aging",
    description="DFW plus control events that age and rotate the Bloom filters.",
    control_role="Control events sync updates and age filters",
    source=AGING_SOURCE,
    paper_lucid_loc=119,
    paper_p4_loc=1595,
    paper_stages=10,
)
