"""Historical probabilistic queries (CM) — count-min sketches with periodic
export, Figure 9's last row.

Packets update a two-row count-min sketch.  A control thread walks the sketch
on a timer, exports each cell to a collector switch, and clears it, so the
collector accumulates a history of per-epoch sketches that can answer
historical queries.
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Count-min sketch with periodic export for historical queries.
symbolic size SKETCH_COLS = 1024;
const int SEED_A = 5;
const int SEED_B = 211;
const int EXPORT_DELAY_NS = 1000000;
const int COLLECTOR = 9;

global epoch = new Array<<32>>(4);
global row_a = new Array<<32>>(SKETCH_COLS);
global row_b = new Array<<32>>(SKETCH_COLS);

memop plus(int stored, int x) { return stored + x; }
memop keep(int stored, int unused) { return stored; }
memop zero(int stored, int unused) { return 0; }

event pkt(int src, int dst);
event export_cell(int idx);
event cell_record(int epoch_id, int idx, int count_a, int count_b);
event query(int src, int dst, int client);
event query_reply(int estimate, int client);

// Data path: update both sketch rows.
handle pkt(int src, int dst) {
  int ha = hash<<10>>(src, dst, SEED_A);
  int hb = hash<<10>>(src, dst, SEED_B);
  Array.set(row_a, ha, plus, 1);
  Array.set(row_b, hb, plus, 1);
  forward(1);
}

// Control: walk the sketch, export each cell to the collector, reset it.
handle export_cell(int idx) {
  int epoch_id = Array.get(epoch, 0);
  int count_a = Array.update(row_a, idx, keep, 0, zero, 0);
  int count_b = Array.update(row_b, idx, keep, 0, zero, 0);
  event record = cell_record(epoch_id, idx, count_a, count_b);
  generate Event.locate(record, COLLECTOR);
  int next = idx + 1;
  if (next == SKETCH_COLS) {
    next = 0;
    generate bump_epoch();
  }
  generate Event.delay(export_cell(next), EXPORT_DELAY_NS);
}

event bump_epoch();
handle bump_epoch() {
  Array.set(epoch, 0, plus, 1);
}

// Queries read the current estimate (the minimum of the two rows).
handle query(int src, int dst, int client) {
  int ha = hash<<10>>(src, dst, SEED_A);
  int hb = hash<<10>>(src, dst, SEED_B);
  int count_a = Array.get(row_a, ha);
  int count_b = Array.get(row_b, hb);
  int estimate = count_a;
  if (count_b < count_a) {
    estimate = count_b;
  }
  generate Event.locate(query_reply(estimate, client), client);
}
"""

APP = Application(
    key="CM",
    name="Historical Prob. Queries",
    description="Measures flows with sketches for historical queries; control "
    "events age and export state periodically.",
    control_role="Control events age and export state periodically",
    source=SOURCE,
    paper_lucid_loc=93,
    paper_p4_loc=856,
    paper_stages=5,
)
