"""The closed-loop DNS reflection defense (DNS).

Queries from internal clients mark a Bloom filter of solicited (client,
server) pairs; responses that do not match the filter are counted per client
in a count-min sketch; clients whose unsolicited-response count crosses a
threshold are blocked.  Control events age the Bloom filter and the sketch so
the defense adapts over time — all in the data plane.
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Closed-loop DNS reflection defense with sketches and Bloom filters.
symbolic size FILTER_BITS = 2048;
symbolic size SKETCH_COLS = 1024;
const int BLOCK_THRESHOLD = 100;
const int AGE_DELAY_NS = 1000000;
const int SEED_A = 7;
const int SEED_B = 131;

global bloom0 = new Array<<32>>(FILTER_BITS);
global bloom1 = new Array<<32>>(FILTER_BITS);
global cms0 = new Array<<32>>(SKETCH_COLS);
global cms1 = new Array<<32>>(SKETCH_COLS);
global blocked = new Array<<32>>(SKETCH_COLS);

memop mark(int stored, int unused) { return 1; }
memop clear(int stored, int unused) { return 0; }
memop plus(int stored, int x) { return stored + x; }
memop keep(int stored, int unused) { return stored; }
memop overwrite(int stored, int newval) { return newval; }

event dns_query(int client, int server);
event dns_response(int client, int server);
event block_client(int client);
event age_bloom(int idx);
event age_sketch(int idx);

fun int pair_hash_a(int client, int server) {
  return hash<<11>>(client, server, SEED_A);
}
fun int pair_hash_b(int client, int server) {
  return hash<<11>>(client, server, SEED_B);
}

// A query from an internal client marks the pair as solicited.
handle dns_query(int client, int server) {
  int ha = pair_hash_a(client, server);
  int hb = pair_hash_b(client, server);
  Array.set(bloom0, ha, mark, 0);
  Array.set(bloom1, hb, mark, 0);
  forward(2);
}

// A response is unsolicited when the pair is not in the Bloom filter.
handle dns_response(int client, int server) {
  int ha = pair_hash_a(client, server);
  int hb = pair_hash_b(client, server);
  int hit0 = Array.get(bloom0, ha);
  int hit1 = Array.get(bloom1, hb);
  int ca = hash<<10>>(client, SEED_A);
  int cb = hash<<10>>(client, SEED_B);
  if (hit0 == 1 && hit1 == 1) {
    // solicited: let it through
    forward(1);
  } else {
    // unsolicited: count it against the client in the sketch
    int cnt0 = Array.update(cms0, ca, plus, 1, plus, 1);
    int cnt1 = Array.update(cms1, cb, plus, 1, plus, 1);
    int minimum = cnt0;
    if (cnt1 < cnt0) {
      minimum = cnt1;
    }
    if (minimum > BLOCK_THRESHOLD) {
      generate block_client(client);
    }
    int isblocked = Array.get(blocked, ca);
    if (isblocked == 1) {
      drop();
    } else {
      forward(1);
    }
  }
}

handle block_client(int client) {
  int ca = hash<<10>>(client, SEED_A);
  Array.set(blocked, ca, overwrite, 1);
}

// Control events: age the Bloom filter and the sketch, one cell per pass.
handle age_bloom(int idx) {
  Array.set(bloom0, idx, clear, 0);
  Array.set(bloom1, idx, clear, 0);
  int next = idx + 1;
  if (next == FILTER_BITS) {
    next = 0;
  }
  generate Event.delay(age_bloom(next), AGE_DELAY_NS);
}

handle age_sketch(int idx) {
  Array.set(cms0, idx, clear, 0);
  Array.set(cms1, idx, clear, 0);
  Array.set(blocked, idx, clear, 0);
  int next = idx + 1;
  if (next == SKETCH_COLS) {
    next = 0;
  }
  generate Event.delay(age_sketch(next), AGE_DELAY_NS);
}
"""

APP = Application(
    key="DNS",
    name="Closed-loop DNS Defense",
    description="Detects and blocks DNS reflection attacks with sketches and "
    "Bloom filters; control events age the data structures.",
    control_role="Control events age data structures",
    source=SOURCE,
    paper_lucid_loc=215,
    paper_p4_loc=1874,
    paper_stages=10,
)
