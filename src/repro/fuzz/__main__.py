"""``python -m repro.fuzz`` — differential fuzzing CLI.

Modes:

* generate-and-check (default): draw ``--count`` cases from
  ``CaseGenerator(--seed)``, run each under every registered engine, shrink any
  failure to a minimal reproducer (``--no-shrink`` disables), and write
  reproducers as JSON into ``--out`` (default ``tests/regressions``).
  Exits non-zero if any case diverged.  Each agreeing case is additionally
  run through the checkpoint/restore mutation: snapshot after a
  seed-determined number of handled events, write it with the checkpoint
  store's encoder and decode it, restore into a fresh network, resume — and
  every observable (trace, digest, stats, logs) must still match the
  straight-through run (``--no-checkpoint`` disables).
* ``--replay PATH...``: re-run saved reproducers (files or directories of
  ``*.json``) instead of generating; exits non-zero if any diverges.  This
  is what the regression loader test and the CI smoke job call.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from repro.fuzz.case import FuzzCase, load_case, save_case
from repro.fuzz.diff import run_checkpoint_differential, run_differential
from repro.fuzz.gen import CaseGenerator
from repro.fuzz.shrink import shrink_case


def _still_fails(case: FuzzCase) -> bool:
    return not run_differential(case).ok


def _split_for(seed: int, index: int, handled: int) -> int:
    """Deterministic pseudo-random checkpoint position within the case's
    handled-event count (xorshift over seed/index, no global RNG state)."""
    x = (seed * 0x9E3779B1 + index * 0x85EBCA77 + 0x165667B1) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 13
    return 1 + x % max(1, handled)


def _collect_cases(paths: List[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".json")
            )
        else:
            files.append(path)
    return files


def _replay(paths: List[str]) -> int:
    files = _collect_cases(paths)
    if not files:
        print("no reproducer files found", file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        case = load_case(path)
        outcome = run_differential(case)
        status = "ok" if outcome.ok else "DIVERGED"
        print(f"[{status}] {case.name} ({path})")
        if not outcome.ok:
            failures += 1
            print(outcome.summary())
    print(f"replayed {len(files)} case(s), {failures} divergent")
    return 1 if failures else 0


def _fuzz(args: argparse.Namespace) -> int:
    generator = CaseGenerator(args.seed)
    failures = 0
    for index in range(args.count):
        case = generator.generate(index)
        outcome = run_differential(case)
        checkpoint_split = None
        if outcome.ok and args.checkpoint:
            # the checkpoint/restore mutation: interrupt at a seed-determined
            # point and require identical observables on resume
            baseline = next(iter(outcome.results.values()))
            split = _split_for(args.seed, index, len(baseline.trace))
            ck = run_checkpoint_differential(case, split, straight=outcome)
            if not ck.ok:
                checkpoint_split = split
                outcome = ck
        if outcome.ok:
            if (index + 1) % 25 == 0 or index + 1 == args.count:
                print(f"{index + 1}/{args.count} cases: all engines agree so far")
            continue
        failures += 1
        if checkpoint_split is not None:
            print(f"{case.name}: checkpoint/restore at event {checkpoint_split} diverges")
        print(outcome.summary())
        if args.shrink:
            print(f"shrinking {case.name} ...")
            if checkpoint_split is None:
                predicate = _still_fails
            else:
                def predicate(c, _split=checkpoint_split):
                    return not run_checkpoint_differential(c, _split).ok
            case = shrink_case(case, predicate, max_evaluations=args.max_shrink_evals)
            if checkpoint_split is None:
                outcome = run_differential(case)
            else:
                outcome = run_checkpoint_differential(case, checkpoint_split)
            print("minimal reproducer:")
            print(case.source)
            print(outcome.summary())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            case.description = (
                f"{case.description}; divergence: "
                + "; ".join(outcome.divergences)
            ).strip("; ")
            path = os.path.join(args.out, f"{case.name}.json")
            save_case(case, path)
            print(f"wrote reproducer: {path}")
    if failures:
        print(f"{failures}/{args.count} case(s) diverged")
        return 1
    print(f"{args.count} case(s), zero divergences")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing of the reference/pisa/codegen engines",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument("--count", type=int, default=100, help="cases to generate")
    parser.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="do not shrink failing cases to minimal reproducers",
    )
    parser.add_argument(
        "--max-shrink-evals",
        type=int,
        default=600,
        help="cap on differential re-runs during shrinking (default 600)",
    )
    parser.add_argument(
        "--no-checkpoint",
        dest="checkpoint",
        action="store_false",
        help="do not run agreeing cases through the checkpoint/restore mutation",
    )
    parser.add_argument(
        "--out",
        default="tests/regressions",
        help="directory for shrunk reproducers ('' disables writing)",
    )
    parser.add_argument(
        "--replay",
        nargs="+",
        metavar="PATH",
        help="replay saved reproducer files/directories instead of generating",
    )
    args = parser.parse_args(argv)
    if args.replay:
        return _replay(args.replay)
    return _fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
