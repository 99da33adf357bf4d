"""Tests for the differential fuzzer itself: generator validity and
determinism, unparse round-tripping, the differential runner's observables,
the shrinker's contract, and the ``python -m repro.fuzz`` CLI."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.frontend.parser import parse_program
from repro.frontend.type_checker import check_program
from repro.frontend.unparse import unparse
from repro.fuzz.case import FuzzCase, load_case, save_case
from repro.fuzz.diff import run_case, run_differential
from repro.fuzz.gen import CaseGenerator
from repro.fuzz.shrink import shrink_case
from repro.interp.engine import ENGINE_NAMES
from repro.interp.network import single_switch_network


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------
def test_generator_is_deterministic():
    a = CaseGenerator(seed=7).generate(3)
    b = CaseGenerator(seed=7).generate(3)
    assert a.source == b.source
    assert a.events == b.events
    assert a.switches == b.switches
    assert a.links == b.links


def test_generator_does_not_depend_on_the_hash_seed():
    """A set of enums iterates in an order drawn from ``PYTHONHASHSEED``."""
    script = (
        "from repro.fuzz.gen import CaseGenerator\n"
        "for i in range(20):\n"
        "    print(CaseGenerator(seed=0).generate(i).source)\n"
    )
    printed = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                              capture_output=True, text=True, check=True)
        printed.append(done.stdout)
    assert "memop" in printed[0] and printed[0] == printed[1]


def test_generator_seeds_differ():
    sources = {CaseGenerator(seed=s).generate(0).source for s in range(4)}
    assert len(sources) > 1


def test_generated_programs_type_check_and_round_trip():
    generator = CaseGenerator(seed=1)
    for index in range(8):
        case = generator.generate(index)
        check_program(case.source)  # the generator's validity oracle held
        # unparse(parse(.)) is a fixpoint on generated sources
        reprinted = unparse(parse_program(case.source))
        assert reprinted == unparse(parse_program(reprinted))


def test_generated_traffic_targets_declared_switches():
    generator = CaseGenerator(seed=2)
    for index in range(8):
        case = generator.generate(index)
        assert case.events, "cases must carry traffic"
        for _t, switch_id, _name, _args in case.events:
            assert 0 <= switch_id < case.switches


# ---------------------------------------------------------------------------
# differential runner
# ---------------------------------------------------------------------------
COUNTER = """
global tally = new Array<<32>>(4);
event tick(int slot, int hops);
handle tick(int slot, int hops) {
  Array.setm(tally, slot, incr, 1);
  if ((hops > 0)) {
    generate tick(slot, (hops - 1));
  }
}
memop incr(int stored, int x) {
  return (stored + x);
}
"""


def test_run_case_collects_observables():
    case = FuzzCase(source=COUNTER, events=[(0, 0, "tick", (1, 2))])
    result = run_case(case, "reference")
    assert result.error is None
    assert len(result.trace) == 3  # injected event + 2 hops
    assert result.digest is not None
    assert result.stats[0]["events_handled"] == 3
    assert result.stats[0]["events_generated"] == 2


def test_run_differential_agreement():
    case = FuzzCase(source=COUNTER, events=[(0, 0, "tick", (2, 1))])
    outcome = run_differential(case)
    assert outcome.ok, outcome.summary()
    digests = {r.digest for r in outcome.results.values()}
    assert len(digests) == 1


def test_run_differential_flags_crashes():
    # an event name the program does not declare is harmless (unknown events
    # are ignored), but a broken source must be reported, not raised
    case = FuzzCase(source="event e(); handle e() { }", events=[(0, 0, "e", ())])
    bad = FuzzCase(source="event e(; handle", events=[])
    assert run_differential(case).ok
    outcome = run_differential(bad)
    assert not outcome.ok
    assert "frontend rejects" in outcome.divergences[0]


def test_small_fuzz_batch_has_no_divergence():
    generator = CaseGenerator(seed=3)
    for index in range(6):
        case = generator.generate(index)
        outcome = run_differential(case)
        assert outcome.ok, outcome.summary()


def test_checkpoint_differential_agrees_on_generated_cases(monkeypatch):
    """The checkpoint/restore mutation: interrupt each case mid-run, write
    the snapshot with the checkpoint store's encoder, decode it, restore
    into a fresh network, resume — every observable must still match the
    straight-through run on all engines, and every snapshot's text must be
    the bytes ``json.dumps`` gives."""
    from repro.fuzz import diff
    from repro.service.checkpoint import write_json

    texts = []

    def recording_write_json(write, value):
        buffer = io.StringIO()
        write_json(buffer.write, value)
        texts.append((buffer.getvalue(), json.dumps(value, separators=(",", ":"))))
        write(buffer.getvalue())

    monkeypatch.setattr(diff, "write_json", recording_write_json)
    generator = CaseGenerator(seed=6)
    for index in range(4):
        case = generator.generate(index)
        straight = run_differential(case)
        assert straight.ok, straight.summary()
        handled = len(next(iter(straight.results.values())).trace)
        split = max(1, handled // 2)
        texts.clear()
        outcome = diff.run_checkpoint_differential(case, split, straight=straight)
        assert outcome.ok, outcome.summary()
        assert len(texts) == len(ENGINE_NAMES)
        for written, dumped in texts:
            assert written == dumped
        # checkpointed observables equal the straight run's, engine by engine
        for engine, base in straight.results.items():
            ck = outcome.results[f"{engine}+checkpoint"]
            assert ck.error is None
            assert ck.digest == base.digest
            assert ck.trace == base.trace


def test_checkpoint_differential_split_positions_are_all_safe():
    """Any split point — 0, mid, past the end — must be a no-op mutation."""
    from repro.fuzz.diff import run_case, run_case_checkpointed

    case = FuzzCase(source=COUNTER, events=[(0, 0, "tick", (1, 4))])
    base = run_case(case, "codegen")
    for split in (0, 1, 3, 10_000):
        ck = run_case_checkpointed(case, "codegen", split=split)
        assert ck.error is None, ck.error
        assert ck.digest == base.digest
        assert ck.trace == base.trace
        assert ck.stats == base.stats


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------
def test_shrinker_minimises_while_predicate_holds():
    generator = CaseGenerator(seed=4)
    case = generator.generate(0)

    # synthetic "bug": the program mentions Array.setm/set at all; the
    # shrinker should strip everything not needed to keep one array write
    def still_fails(candidate: FuzzCase) -> bool:
        return "Array.set" in candidate.source

    if not still_fails(case):  # make the predicate initially true
        case = FuzzCase(source=COUNTER, events=[(0, 0, "tick", (0, 0))])
    shrunk = shrink_case(case, still_fails, max_evaluations=250)
    assert "Array.set" in shrunk.source
    assert len(shrunk.source) <= len(case.source)
    check_program(shrunk.source)  # shrunk cases stay well-typed
    assert len(shrunk.events) <= len(case.events)


def test_shrink_preserves_real_divergence_semantics(tmp_path):
    # round-trip a case through JSON and keep behaviour identical
    case = FuzzCase(source=COUNTER, events=[(1000, 0, "tick", (3, 0))], name="rt")
    path = tmp_path / "rt.json"
    save_case(case, str(path))
    loaded = load_case(str(path))
    assert loaded.source == case.source
    assert loaded.events == case.events
    before = run_case(case, "codegen")
    after = run_case(loaded, "codegen")
    assert before.digest == after.digest
    assert before.trace == after.trace


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_smoke_and_replay(tmp_path, capsys):
    from repro.fuzz.__main__ import main

    assert main(["--count", "3", "--seed", "5", "--out", ""]) == 0
    out = capsys.readouterr().out
    assert "zero divergences" in out

    case = FuzzCase(source=COUNTER, events=[(0, 0, "tick", (0, 1))], name="cli-case")
    save_case(case, str(tmp_path / "cli-case.json"))
    assert main(["--replay", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[ok] cli-case" in out


# ---------------------------------------------------------------------------
# division/modulo parity (regression: raw '/' and '%' on event data paths)
# ---------------------------------------------------------------------------
DIV_PROGRAM = """
global quo = new Array<<32>>(1);
global rem = new Array<<32>>(1);
event div(int a, int b, int hops);
handle div(int a, int b, int hops) {
  int q = (a / b);
  int r = (a % b);
  Array.set(quo, 0, q);
  Array.set(rem, 0, r);
}
"""


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("a,b", [(10, 3), (10, 0), (0, 0), (0xFFFFFFFF, 7)])
def test_division_by_zero_is_total_on_every_engine(engine, a, b):
    from repro.interp.events import EventInstance
    from repro.ops import div32, mod32

    network, switch = single_switch_network(DIV_PROGRAM, engine=engine)
    network.inject(0, EventInstance(name="div", args=(a, b, 0)))
    network.run()
    assert switch.array("quo").cells[0] == div32(a, b)
    assert switch.array("rem").cells[0] == mod32(a, b)


def test_no_raw_division_in_engine_value_paths():
    """Audit: engine execution must route '/' and '%' through div32/mod32.

    Tokenises the PISA executor (the codegen engine emits its arithmetic as
    source text, checked by the differential suites instead) and rejects any
    '//' operator and any '%' operator that is not string formatting (a '%'
    whose left operand is a string literal)."""
    import io
    import os
    import tokenize

    import repro.pisa.pipeline as pipeline_mod

    path = pipeline_mod.__file__
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.OP:
            continue
        assert tok.string not in ("//", "//="), (
            f"raw floor division in {os.path.basename(path)}:{tok.start[0]}"
        )
        if tok.string in ("%", "%="):
            prev = tokens[i - 1]
            assert prev.type == tokenize.STRING, (
                f"raw modulo in {os.path.basename(path)}:{tok.start[0]}"
            )
