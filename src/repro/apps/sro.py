"""Consistent shared state (SRO) — strongly consistent distributed arrays.

A designated sequencer switch orders writes by stamping them with a sequence
number; the write is then synchronised to every replica, which applies it only
if the sequence number is newer than the one it holds for that key.  Reads are
served locally.  Control events carry the synchronisation.
"""

from __future__ import annotations

from repro.apps.base import Application

SOURCE = r"""
// Strongly consistent replicated arrays via a data-plane sequencer.
symbolic size STORE_SZ = 1024;
const int SEQUENCER = 0;
const group REPLICAS = {0, 1, 2};

global next_seq = new Array<<32>>(4);
global seqs = new Array<<32>>(STORE_SZ);
global values = new Array<<32>>(STORE_SZ);

memop keep(int stored, int unused) { return stored; }
memop plus(int stored, int x) { return stored + x; }
memop overwrite(int stored, int newval) { return newval; }
memop max_update(int stored, int candidate) {
  if (candidate > stored) { return candidate; } else { return stored; }
}

event write_req(int key, int value);
event write_ordered(int key, int value, int seq);
event read_req(int key, int client);
event read_reply(int key, int value, int client);

// A write request reaches the sequencer, gets a global order, and fans out.
handle write_req(int key, int value) {
  int seq = Array.update(next_seq, 0, plus, 1, plus, 1);
  mgenerate Event.locate(write_ordered(key, value, seq), REPLICAS);
}

// Replicas apply a write only if it is newer than what they already hold.
handle write_ordered(int key, int value, int seq) {
  int held = Array.update(seqs, key, keep, 0, max_update, seq);
  if (seq > held) {
    Array.set(values, key, overwrite, value);
  }
}

// Reads are served from the local replica.
handle read_req(int key, int client) {
  int value = Array.get(values, key);
  generate Event.locate(read_reply(key, value, client), client);
}
"""

APP = Application(
    key="SRO",
    name="Consistent Shared State",
    description="Strongly consistent distributed arrays; control events "
    "synchronise writes across replicas.",
    control_role="Control events synchronize writes",
    source=SOURCE,
    paper_lucid_loc=94,
    paper_p4_loc=897,
    paper_stages=11,
)
