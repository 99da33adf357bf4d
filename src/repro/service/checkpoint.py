"""The on-disk checkpoint store of the service mode.

A service checkpoint is one JSON document wrapping everything a resumed run
needs, under a versioned envelope:

.. code-block:: text

    {
      "format":   "repro-service-checkpoint",
      "version":  1,
      "scenario": "...", "engine": "...", "seed": ..., "events": ...,
      "handled":  <events handled so far>,
      "cursor":   {"consumed": ..., "injected": ..., "last_ns": ...},
      "network":  <Network.snapshot() — itself versioned>,
      "invariants": [<per-invariant observation state or null>, ...]
    }

Files are named ``checkpoint-<handled, zero-padded>.json`` so lexicographic
order is progress order, written atomically (temp file + ``os.replace``) so
a SIGKILL mid-write never leaves a truncated latest checkpoint (the file and
then its directory are fsynced, so a power loss cannot lose the rename), and
pruned to the ``keep`` most recent; the next save removes a ``.tmp`` file
that a kill mid-write left behind.  The bytes are those of
``json.dumps(state, separators=(",", ":"))``, written by :func:`write_json`
in bounded pieces.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.errors import SimulationError

CHECKPOINT_FORMAT = "repro-service-checkpoint"
CHECKPOINT_VERSION = 1

#: elements per ``json.dumps`` call on a flat list: large enough that the C
#: encoder does the work, small enough that its accumulator stays small
SLICE = 2048

_dumps = json.JSONEncoder(separators=(",", ":")).encode


def write_json(write: Callable[[str], object], value: object) -> None:
    """Write ``value`` as ``json.dumps(value, separators=(",", ":"))`` does,
    through ``write``, one bounded piece at a time.

    ``json.dump`` streams through the pure-Python encoder, and one
    ``json.dumps`` of a whole checkpoint holds every fragment of it in
    memory at once.  This writer emits the braces, keys and commas of dicts
    and of lists that hold dicts itself, and hands every other list to the C
    encoder in slices of :data:`SLICE` elements."""
    if isinstance(value, dict):
        write("{")
        sep = ""
        for key, item in value.items():
            # '{"key":0}' → '"key":', with json's own rules for non-str keys
            write(sep + _dumps({key: 0})[1:-2])
            write_json(write, item)
            sep = ","
        write("}")
    elif isinstance(value, (list, tuple)):
        write("[")
        if dict in map(type, value):
            for index, item in enumerate(value):
                if index:
                    write(",")
                write_json(write, item)
        else:
            for start in range(0, len(value), SLICE):
                if start:
                    write(",")
                write(_dumps(value[start:start + SLICE])[1:-1])
        write("]")
    else:
        write(_dumps(value))


def validate_checkpoint(state: Dict[str, object]) -> Dict[str, object]:
    """Check the envelope of a loaded checkpoint; returns it for chaining."""
    if state.get("format") != CHECKPOINT_FORMAT:
        raise SimulationError(
            f"not a service checkpoint (format={state.get('format')!r})"
        )
    if state.get("version") != CHECKPOINT_VERSION:
        raise SimulationError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    missing = [
        key
        for key in ("scenario", "engine", "seed", "handled", "cursor", "network", "invariants")
        if key not in state
    ]
    if missing:
        raise SimulationError(f"checkpoint is missing fields: {missing}")
    return state


def load_checkpoint(path: Union[str, Path]) -> Dict[str, object]:
    """Read and validate one checkpoint file.  A file that is truncated, not
    UTF-8 or not a JSON object raises :class:`SimulationError` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SimulationError(f"checkpoint {path} is truncated or corrupt: {exc}") from None
    if not isinstance(state, dict):
        raise SimulationError(
            f"checkpoint {path} is not a JSON object (got {type(state).__name__})"
        )
    return validate_checkpoint(state)


class CheckpointStore:
    """A directory of rolling checkpoints for one service run."""

    def __init__(self, directory: Union[str, Path], keep: int = 3):
        self.directory = Path(directory)
        if keep < 1:
            raise SimulationError(f"keep must be >= 1 (got {keep})")
        self.keep = keep

    def paths(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("checkpoint-*.json"))

    def latest(self) -> Optional[Path]:
        paths = self.paths()
        return paths[-1] if paths else None

    def save(self, state: Dict[str, object]) -> Path:
        """Atomically write ``state`` as the newest checkpoint and prune old
        ones.  The filename encodes ``state["handled"]`` so progress order is
        filename order."""
        validate_checkpoint(state)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"checkpoint-{int(state['handled']):015d}.json"
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as fh:
            write_json(fh.write, state)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # the rename is durable only once the directory entry is on disk
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self.prune()
        return path

    def load(self, path: Optional[Union[str, Path]] = None) -> Dict[str, object]:
        """Load ``path``, or the latest checkpoint when not given."""
        if path is None:
            path = self.latest()
            if path is None:
                raise SimulationError(f"no checkpoints in {self.directory}")
        return load_checkpoint(path)

    def prune(self) -> None:
        """Delete all but the ``keep`` newest checkpoints, and any
        ``.tmp`` file a save killed before its rename left behind."""
        paths = self.paths()
        stale = paths[: max(0, len(paths) - self.keep)]
        for path in stale + list(self.directory.glob("checkpoint-*.json.tmp")):
            path.unlink(missing_ok=True)
