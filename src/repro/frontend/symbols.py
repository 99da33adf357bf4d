"""Symbol tables summarising the top-level declarations of a program.

The :class:`ProgramInfo` structure is shared by the type checker, the
interpreter, and the compiler backend.  It records:

* every declared event and its payload;
* every handler and whether a matching event exists;
* every function and memop;
* every global (persistent array), in declaration order — the order *is* the
  abstract stage used by the type-and-effect system (Section 5);
* resolved constants and multicast groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TypeError_
from repro.frontend import ast
from repro.frontend.const_eval import ConstEnv, build_const_env, resolve_global_sizes


#: Built-in module functions available in every program: name -> arity options.
BUILTIN_FUNCTIONS: Dict[str, List[int]] = {
    # Array module (Section 4.1).  get/set may take a memop and an extra arg.
    "Array.get": [2, 3, 4],
    "Array.set": [3, 4],
    "Array.update": [5, 6],
    "Array.getm": [4],
    "Array.setm": [4],
    # Event combinators (Section 3.1).
    "Event.delay": [2],
    "Event.locate": [2],
    "Event.sslocate": [2],
    # Misc built-ins used by the applications.
    "hash": [1, 2, 3, 4, 5, 6],
    "Sys.time": [0],
    "Sys.self": [0],
    "Sys.random": [0, 1],
    "drop": [0],
    "forward": [1],
    "flood": [1],
    "printf": [1, 2, 3, 4, 5],
}

#: Array-module methods that access persistent state (used by the effect
#: system and the backend to identify stateful operations).
ARRAY_METHODS = frozenset(
    {"Array.get", "Array.set", "Array.update", "Array.getm", "Array.setm"}
)

#: Event combinators (pure; operate on event values).
EVENT_COMBINATORS = frozenset({"Event.delay", "Event.locate", "Event.sslocate"})


@dataclass
class GlobalInfo:
    """A persistent array and its position in the declaration order."""

    name: str
    stage: int  # declaration index == abstract pipeline stage
    cell_width: int
    size: int
    decl: ast.DGlobal


@dataclass
class ProgramInfo:
    """Aggregated symbol information for one program."""

    program: ast.Program
    consts: ConstEnv
    events: Dict[str, ast.DEvent] = field(default_factory=dict)
    handlers: Dict[str, ast.DHandler] = field(default_factory=dict)
    functions: Dict[str, ast.DFun] = field(default_factory=dict)
    memops: Dict[str, ast.DMemop] = field(default_factory=dict)
    externs: Dict[str, ast.DExtern] = field(default_factory=dict)
    globals: Dict[str, GlobalInfo] = field(default_factory=dict)
    global_order: List[str] = field(default_factory=list)

    # -- queries ----------------------------------------------------------
    def is_event(self, name: str) -> bool:
        return name in self.events

    def is_memop(self, name: str) -> bool:
        return name in self.memops

    def is_function(self, name: str) -> bool:
        return name in self.functions

    def is_global(self, name: str) -> bool:
        return name in self.globals


def collect_program_info(
    program: ast.Program,
    symbolic_bindings: Optional[Dict[str, int]] = None,
) -> ProgramInfo:
    """Build a :class:`ProgramInfo`, checking for duplicate declarations and
    handler/event consistency."""
    consts = build_const_env(program, symbolic_bindings)
    resolve_global_sizes(program, consts)
    info = ProgramInfo(program=program, consts=consts)

    for decl in program.decls:
        if isinstance(decl, ast.DEvent):
            if decl.name in info.events:
                raise TypeError_(f"event '{decl.name}' is declared twice", decl.span)
            info.events[decl.name] = decl
        elif isinstance(decl, ast.DHandler):
            if decl.name in info.handlers:
                raise TypeError_(f"handler '{decl.name}' is declared twice", decl.span)
            info.handlers[decl.name] = decl
        elif isinstance(decl, ast.DFun):
            if decl.name in info.functions:
                raise TypeError_(f"function '{decl.name}' is declared twice", decl.span)
            info.functions[decl.name] = decl
        elif isinstance(decl, ast.DMemop):
            if decl.name in info.memops:
                raise TypeError_(f"memop '{decl.name}' is declared twice", decl.span)
            info.memops[decl.name] = decl
        elif isinstance(decl, ast.DExtern):
            info.externs[decl.name] = decl
        elif isinstance(decl, ast.DGlobal):
            if decl.name in info.globals:
                raise TypeError_(f"global '{decl.name}' is declared twice", decl.span)
            stage = len(info.global_order)
            info.globals[decl.name] = GlobalInfo(
                name=decl.name,
                stage=stage,
                cell_width=decl.cell_width,
                size=decl.size or 0,
                decl=decl,
            )
            info.global_order.append(decl.name)

    _check_handler_event_consistency(info)
    return info


def _check_handler_event_consistency(info: ProgramInfo) -> None:
    """Every handler must correspond to a declared event with the same
    parameter list (names may differ; arity and base types must match)."""
    for name, handler in info.handlers.items():
        event = info.events.get(name)
        if event is None:
            raise TypeError_(
                f"handler '{name}' has no matching event declaration", handler.span
            )
        if len(event.params) != len(handler.params):
            raise TypeError_(
                f"handler '{name}' takes {len(handler.params)} parameters but event "
                f"'{name}' declares {len(event.params)}",
                handler.span,
            )
        for ep, hp in zip(event.params, handler.params):
            if type(ep.ty) is not type(hp.ty):
                raise TypeError_(
                    f"handler '{name}' parameter '{hp.name}' has a different type than "
                    f"the event's parameter '{ep.name}'",
                    hp.span,
                )
