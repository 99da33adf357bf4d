"""The unit the fuzzer works on: one program plus one traffic schedule.

A :class:`FuzzCase` is deliberately plain data — program *source text* (not
an AST) and a list of timed event injections — so failing cases serialise to
JSON, check into ``tests/regressions/``, and replay byte-identically forever
after.  The AST lives only inside the generator and the shrinker; both ends
meet at :func:`repro.frontend.unparse.unparse`.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from repro.records import field, record

#: one injection: (time_ns, switch_id, event_name, args)
Injection = Tuple[int, int, str, Tuple[int, ...]]


@record
class FuzzCase:
    """One differential test case."""

    source: str
    events: List[Injection] = field(default_factory=list)
    switches: int = 1
    #: bidirectional links, as (a, b) pairs; empty for a single switch
    links: List[Tuple[int, int]] = field(default_factory=list)
    name: str = "fuzz-case"
    description: str = ""
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "switches": self.switches,
            "links": [list(link) for link in self.links],
            "events": [
                [time_ns, switch_id, event, list(args)]
                for time_ns, switch_id, event, args in self.events
            ],
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        return cls(
            source=data["source"],
            events=[
                (int(t), int(sid), str(name), tuple(int(a) for a in args))
                for t, sid, name, args in data.get("events", [])
            ],
            switches=int(data.get("switches", 1)),
            links=[(int(a), int(b)) for a, b in data.get("links", [])],
            name=str(data.get("name", "fuzz-case")),
            description=str(data.get("description", "")),
            seed=int(data.get("seed", 0)),
        )


def save_case(case: FuzzCase, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case.to_dict(), fh, indent=2)
        fh.write("\n")


def load_case(path: str) -> FuzzCase:
    with open(path, "r", encoding="utf-8") as fh:
        return FuzzCase.from_dict(json.load(fh))
