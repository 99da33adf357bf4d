"""Seeded generation of small well-typed Lucid programs plus traffic.

The generator builds a random program *as an AST* (cheap to assemble and to
shrink), renders it through :mod:`repro.frontend.unparse`, and uses the real
type checker as the validity oracle: a draw that fails any frontend check
(typing, memop shape, global ordering, constant evaluation) is simply
re-drawn.  The construction is biased so most draws pass on the first try —
in particular it threads the type-and-effect system's *stage cursor* through
statement and expression generation, so globals are only ever accessed in
declaration order and at most once per handler pass (Section 5 of the
paper), and event chains always decrement a trailing ``hops`` parameter
under an ``if (hops > 0)`` guard, so every workload terminates.

What the programs deliberately exercise, because these are the places the
the engines have historically disagreed:

* memops in every valid shape (plain sALU arithmetic and the conditional
  form), reached through ``Array.get``/``getm``/``set``/``setm``/``update``;
* array reads nested inside larger expressions, including on the right of
  ``&&``/``||`` where short-circuiting is observable;
* ``/`` and ``%`` with arbitrary (possibly zero) divisors;
* ``hash`` at degenerate widths (0, 1, 33) as well as ordinary ones;
* early ``return`` inside ``if``/``match`` branches of handlers and
  functions with partial-path returns (the inliner's returnify transform);
* event combinators — ``Event.delay`` (delay-queue quantisation),
  ``Event.locate`` and multicast groups on multi-switch rings — plus
  ``Sys.time``/``Sys.self``/``Sys.random`` primitives.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import LucidError
from repro.frontend import ast
from repro.frontend.source import dummy_span
from repro.frontend.type_checker import check_program
from repro.frontend.unparse import unparse
from repro.fuzz.case import FuzzCase, Injection
from repro.ops import OpKind, binops

_SPAN = dummy_span()

#: hash widths to draw from — the degenerate ones (0, 33) are deliberate
HASH_WIDTHS = (0, 1, 8, 16, 32, 32, 33)
#: Event.delay values; all interact with the 100 us delay-queue quantum
DELAYS = (1_000, 50_000, 250_000)
#: Sys.random bounds — non-powers-of-two and 0 (= unbounded) included
RANDOM_BOUNDS = (0, 3, 5, 7, 8, 16)

# the operators to draw from, each in declaration order (so a seed names the
# same programs whatever the hash seed)
_ARITHMETIC = binops(OpKind.ARITHMETIC, OpKind.SALU_ARITHMETIC)
_COMPARISONS = binops(OpKind.COMPARISON)
_LOGICAL = binops(OpKind.LOGICAL)
_SALU = binops(OpKind.SALU_ARITHMETIC)

_INT_LITERALS = (0, 1, 2, 3, 5, 7, 10, 255, 4096, 0xFFFF, 0xDEADBEEF)


def _int(value: int) -> ast.EInt:
    return ast.EInt(span=_SPAN, value=value)


def _var(name: str) -> ast.EVar:
    return ast.EVar(span=_SPAN, name=name)


def _bin(op: ast.BinOp, left: ast.Expr, right: ast.Expr) -> ast.EBinary:
    return ast.EBinary(span=_SPAN, op=op, left=left, right=right)


def _call(func: str, args: Sequence[ast.Expr], width: Optional[int] = None) -> ast.ECall:
    return ast.ECall(
        span=_SPAN,
        func=func,
        args=list(args),
        size_args=[width] if width is not None else [],
    )


class _HandlerState:
    """Mutable context while generating one handler (or function) body."""

    def __init__(self, params: List[str], hops_var: Optional[str]):
        self.locals: List[str] = list(params)
        #: declaration index of the next global this pass may still access
        self.cursor = 0
        self.fresh = 0
        #: the trailing hop-count parameter (handlers only) — generate
        #: statements must stay behind an ``if (hops > 0)`` guard on it
        self.hops_var = hops_var

    def new_local(self) -> str:
        name = f"x{self.fresh}"
        self.fresh += 1
        return name


class _ProgramBuilder:
    """Assembles one random program; one instance per attempt."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.switch_count = 1
        self.consts: List[str] = []
        self.groups: List[str] = []
        self.globals: List[Tuple[str, int, int]] = []  # (name, width, size)
        self.memops: List[str] = []
        self.funs: List[Tuple[str, int]] = []  # (name, arity)
        self.events: List[Tuple[str, int]] = []  # (name, data-arity); + hops
        self.decls: List[ast.Decl] = []

    # -- program skeleton ---------------------------------------------------
    def build(self) -> ast.Program:
        rng = self.rng
        self.switch_count = rng.choice([1] * 7 + [2, 2, 3])
        for i in range(rng.randint(1, 2)):
            name = f"C{i}"
            self.decls.append(
                ast.DConst(
                    span=_SPAN,
                    ty=ast.TInt(span=_SPAN),
                    name=name,
                    value=_int(rng.randint(1, 7)),
                )
            )
            self.consts.append(name)
        if self.switch_count > 1 and rng.random() < 0.5:
            members = sorted(rng.sample(range(self.switch_count), 2))
            self.decls.append(
                ast.DConst(
                    span=_SPAN,
                    ty=ast.TGroup(span=_SPAN),
                    name="ALL",
                    value=ast.EGroup(span=_SPAN, members=[_int(m) for m in members]),
                )
            )
            self.groups.append("ALL")
        for i in range(rng.randint(1, 3)):
            name = f"a{i}"
            width = rng.choice((16, 32, 32))
            size = rng.choice((2, 3, 4, 8))
            self.decls.append(
                ast.DGlobal(
                    span=_SPAN,
                    name=name,
                    cell_width=width,
                    size_expr=_int(size),
                )
            )
            self.globals.append((name, width, size))
        for i in range(rng.randint(2, 4)):
            name = f"m{i}"
            self.decls.append(self._gen_memop(name))
            self.memops.append(name)
        for i in range(rng.randint(0, 2)):
            name = f"f{i}"
            arity = rng.randint(1, 2)
            self.decls.append(self._gen_fun(name, arity))
            self.funs.append((name, arity))
        for i in range(rng.randint(1, 3)):
            name = f"ev{i}"
            data_arity = rng.randint(0, 2)
            self.events.append((name, data_arity))
        for name, data_arity in self.events:
            params = [
                ast.Param(ty=ast.TInt(span=_SPAN), name=f"p{j}", span=_SPAN)
                for j in range(data_arity)
            ]
            params.append(ast.Param(ty=ast.TInt(span=_SPAN), name="hops", span=_SPAN))
            self.decls.append(ast.DEvent(span=_SPAN, name=name, params=params))
        for name, data_arity in self.events:
            params = [
                ast.Param(ty=ast.TInt(span=_SPAN), name=f"p{j}", span=_SPAN)
                for j in range(data_arity)
            ]
            params.append(ast.Param(ty=ast.TInt(span=_SPAN), name="hops", span=_SPAN))
            body = self._gen_handler_body([p.name for p in params])
            self.decls.append(ast.DHandler(span=_SPAN, name=name, params=params, body=body))
        return ast.Program(decls=self.decls, name="<fuzz>")

    # -- memops -------------------------------------------------------------
    def _memop_atom(self, vars_left: List[str]) -> ast.Expr:
        """An sALU operand; consumes a variable (each at most once per expr)."""
        rng = self.rng
        if vars_left and rng.random() < 0.75:
            return _var(vars_left.pop(rng.randrange(len(vars_left))))
        return _int(rng.choice((0, 1, 2, 3, 5, 0xFF)))

    def _memop_expr(self) -> ast.Expr:
        """``atom`` or ``atom op atom`` with sALU ops, each var used once."""
        rng = self.rng
        vars_left = ["stored", "x"]
        if rng.random() < 0.8:
            return _bin(
                rng.choice(_SALU),
                self._memop_atom(vars_left),
                self._memop_atom(vars_left),
            )
        return self._memop_atom(vars_left)

    def _gen_memop(self, name: str) -> ast.DMemop:
        rng = self.rng
        params = [
            ast.Param(ty=ast.TInt(span=_SPAN), name="stored", span=_SPAN),
            ast.Param(ty=ast.TInt(span=_SPAN), name="x", span=_SPAN),
        ]
        if rng.random() < 0.5:
            body: List[ast.Stmt] = [ast.SReturn(span=_SPAN, value=self._memop_expr())]
        else:
            cond_vars = ["stored", "x"]
            cond = _bin(
                rng.choice(_COMPARISONS),
                self._memop_atom(cond_vars),
                self._memop_atom(cond_vars),
            )
            body = [
                ast.SIf(
                    span=_SPAN,
                    cond=cond,
                    then_body=[ast.SReturn(span=_SPAN, value=self._memop_expr())],
                    else_body=[ast.SReturn(span=_SPAN, value=self._memop_expr())],
                )
            ]
        return ast.DMemop(span=_SPAN, name=name, params=params, body=body)

    # -- pure functions (returnify stress) -----------------------------------
    def _gen_fun(self, name: str, arity: int) -> ast.DFun:
        """A pure int function whose branches return on *some* paths only —
        exactly the shape the inliner's returnify transform must get right."""
        rng = self.rng
        params = [
            ast.Param(ty=ast.TInt(span=_SPAN), name=f"q{j}", span=_SPAN)
            for j in range(arity)
        ]
        names = [p.name for p in params]
        state = _HandlerState(names, hops_var=None)
        body: List[ast.Stmt] = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.5:
                # partial-path return: no else, or an else that falls through
                then_body: List[ast.Stmt] = [
                    ast.SReturn(span=_SPAN, value=self._pure_expr(state, 1))
                ]
                else_body: List[ast.Stmt] = []
                if rng.random() < 0.4:
                    local = state.new_local()
                    else_body = [
                        ast.SLocal(
                            span=_SPAN,
                            ty=ast.TInt(span=_SPAN),
                            name=local,
                            init=self._pure_expr(state, 1),
                        )
                    ]
                    state.locals.append(local)
                body.append(
                    ast.SIf(
                        span=_SPAN,
                        cond=self._pure_cond(state),
                        then_body=then_body,
                        else_body=else_body,
                    )
                )
            elif kind < 0.75 and names:
                # a match where only some arms return
                arms: List[Tuple[List[Optional[int]], List[ast.Stmt]]] = []
                for lit in rng.sample(range(4), rng.randint(1, 2)):
                    arm: List[ast.Stmt] = []
                    if rng.random() < 0.6:
                        arm.append(ast.SReturn(span=_SPAN, value=self._pure_expr(state, 1)))
                    arms.append(([lit], arm))
                arms.append(([None], []))
                body.append(
                    ast.SMatch(
                        span=_SPAN,
                        scrutinees=[_var(rng.choice(names))],
                        branches=arms,
                    )
                )
            else:
                local = state.new_local()
                body.append(
                    ast.SLocal(
                        span=_SPAN,
                        ty=ast.TInt(span=_SPAN),
                        name=local,
                        init=self._pure_expr(state, 1),
                    )
                )
                state.locals.append(local)
        body.append(ast.SReturn(span=_SPAN, value=self._pure_expr(state, 1)))
        return ast.DFun(
            span=_SPAN, ret=ast.TInt(span=_SPAN), name=name, params=params, body=body
        )

    def _pure_expr(self, state: _HandlerState, depth: int) -> ast.Expr:
        """An int expression with no global/array access (function bodies)."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.45:
            if state.locals and rng.random() < 0.6:
                return _var(rng.choice(state.locals))
            return _int(rng.choice(_INT_LITERALS))
        return _bin(
            rng.choice(_ARITHMETIC),
            self._pure_expr(state, depth - 1),
            self._pure_expr(state, depth - 1),
        )

    def _pure_cond(self, state: _HandlerState) -> ast.Expr:
        return _bin(
            self.rng.choice(_COMPARISONS),
            self._pure_expr(state, 1),
            self._pure_expr(state, 1),
        )

    # -- handler expressions (may touch globals, cursor-threaded) ------------
    def _array_read(self, state: _HandlerState) -> Optional[ast.Expr]:
        """An effectful read (Array.get/getm/update); advances the cursor."""
        rng = self.rng
        if state.cursor >= len(self.globals):
            return None
        index = rng.randrange(state.cursor, len(self.globals))
        name, _width, size = self.globals[index]
        state.cursor = index + 1
        idx = self._int_expr(state, 0, effects=False)
        shape = rng.random()
        if shape < 0.4 or not self.memops:
            return _call("Array.get", [_var(name), idx])
        memop = rng.choice(self.memops)
        arg = self._int_expr(state, 0, effects=False)
        if shape < 0.65:
            return _call("Array.get", [_var(name), idx, _var(memop), arg])
        if shape < 0.85:
            return _call("Array.getm", [_var(name), idx, _var(memop), arg])
        get_memop = rng.choice(self.memops)
        set_memop = rng.choice(self.memops)
        set_arg = self._int_expr(state, 0, effects=False)
        if rng.random() < 0.5:
            return _call(
                "Array.update", [_var(name), idx, _var(get_memop), arg, set_arg]
            )
        return _call(
            "Array.update",
            [_var(name), idx, _var(get_memop), arg, _var(set_memop), set_arg],
        )

    def _int_expr(self, state: _HandlerState, depth: int, effects: bool = True) -> ast.Expr:
        """An int expression; with ``effects`` it may read arrays (in cursor
        order) and call builtins that consume shared runtime state."""
        rng = self.rng
        draw = rng.random()
        if depth > 0 and draw < 0.4:
            return _bin(
                rng.choice(_ARITHMETIC),
                self._int_expr(state, depth - 1, effects),
                self._int_expr(state, depth - 1, effects),
            )
        if effects and draw < 0.5:
            read = self._array_read(state)
            if read is not None:
                return read
        roll = rng.random()
        if roll < 0.10:
            width = rng.choice(HASH_WIDTHS)
            args = [
                self._int_expr(state, 0, effects=False)
                for _ in range(rng.randint(1, 3))
            ]
            return _call("hash", args, width=width)
        if roll < 0.16:
            return _call("Sys.random", [_int(rng.choice(RANDOM_BOUNDS))])
        if roll < 0.20:
            return _call("Sys.self", [])
        if roll < 0.23:
            return _call("Sys.time", [])
        if roll < 0.33 and self.funs:
            fun, arity = rng.choice(self.funs)
            return _call(
                fun, [self._int_expr(state, 0, effects=False) for _ in range(arity)]
            )
        if roll < 0.45 and self.consts:
            return _var(rng.choice(self.consts))
        if state.locals and roll < 0.8:
            return _var(rng.choice(state.locals))
        return _int(rng.choice(_INT_LITERALS))

    def _bool_expr(self, state: _HandlerState, depth: int, effects: bool = True) -> ast.Expr:
        rng = self.rng
        draw = rng.random()
        if depth > 0 and draw < 0.35:
            # &&/|| — with effects on the right operand this is exactly where
            # short-circuit vs strict evaluation becomes observable
            op = rng.choice(_LOGICAL)
            return _bin(
                op,
                self._bool_expr(state, depth - 1, effects=False),
                self._bool_expr(state, depth - 1, effects),
            )
        if draw < 0.45:
            return ast.EUnary(
                span=_SPAN, op=ast.UnOp.NOT, operand=self._bool_expr(state, 0, effects)
            )
        return _bin(
            rng.choice(_COMPARISONS),
            self._int_expr(state, 1, effects),
            self._int_expr(state, 0, effects=False),
        )

    # -- handler statements --------------------------------------------------
    def _gen_handler_body(self, params: List[str]) -> List[ast.Stmt]:
        state = _HandlerState(params, hops_var="hops")
        body: List[ast.Stmt] = []
        for _ in range(self.rng.randint(2, 5)):
            body.append(self._gen_stmt(state, depth=0))
        return body

    def _gen_stmt(self, state: _HandlerState, depth: int) -> ast.Stmt:
        rng = self.rng
        roll = rng.random()
        if roll < 0.26:
            local = state.new_local()
            stmt = ast.SLocal(
                span=_SPAN,
                ty=ast.TInt(span=_SPAN),
                name=local,
                init=self._int_expr(state, 2),
            )
            state.locals.append(local)
            return stmt
        # never reassign the hop counter: generates are guarded on it, and an
        # overwritten counter turns the event chain into an unbounded loop
        assignable = [name for name in state.locals if name != state.hops_var]
        if roll < 0.34 and assignable:
            return ast.SAssign(
                span=_SPAN,
                name=rng.choice(assignable),
                value=self._int_expr(state, 2),
            )
        if roll < 0.50 and state.cursor < len(self.globals):
            return self._gen_array_stmt(state)
        if roll < 0.62 and depth < 2:
            return self._gen_if(state, depth)
        if roll < 0.70 and depth < 2:
            return self._gen_match(state, depth)
        if roll < 0.82 and self.events:
            return self._gen_guarded_generate(state)
        if roll < 0.88:
            args = [self._int_expr(state, 0, effects=False) for _ in range(rng.randint(1, 3))]
            return ast.SExpr(span=_SPAN, expr=_call("printf", args))
        if roll < 0.92 and depth > 0:
            return ast.SReturn(span=_SPAN, value=None)
        if roll < 0.95:
            return ast.SExpr(span=_SPAN, expr=_call("drop", []))
        local = state.new_local()
        stmt = ast.SLocal(
            span=_SPAN, ty=ast.TInt(span=_SPAN), name=local, init=self._int_expr(state, 1)
        )
        state.locals.append(local)
        return stmt

    def _gen_array_stmt(self, state: _HandlerState) -> ast.Stmt:
        """A statement-level array access — write forms, or a read into a local."""
        rng = self.rng
        shape = rng.random()
        if shape < 0.45 or not self.memops:
            index = rng.randrange(state.cursor, len(self.globals))
            name, _width, _size = self.globals[index]
            state.cursor = index + 1
            idx = self._int_expr(state, 0, effects=False)
            value = self._int_expr(state, 1, effects=False)
            if shape < 0.30 or not self.memops:
                call = _call("Array.set", [_var(name), idx, value])
            else:
                memop = rng.choice(self.memops)
                if rng.random() < 0.5:
                    call = _call("Array.set", [_var(name), idx, _var(memop), value])
                else:
                    call = _call("Array.setm", [_var(name), idx, _var(memop), value])
            return ast.SExpr(span=_SPAN, expr=call)
        read = self._array_read(state)
        assert read is not None  # guarded by the caller's cursor check
        local = state.new_local()
        stmt = ast.SLocal(span=_SPAN, ty=ast.TInt(span=_SPAN), name=local, init=read)
        state.locals.append(local)
        return stmt

    def _gen_if(self, state: _HandlerState, depth: int) -> ast.SIf:
        rng = self.rng
        cond = self._bool_expr(state, 2)
        then_state_cursor = state.cursor
        then_body = [self._gen_stmt(state, depth + 1) for _ in range(rng.randint(1, 3))]
        then_cursor = state.cursor
        state.cursor = then_state_cursor
        else_body = (
            [self._gen_stmt(state, depth + 1) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5
            else []
        )
        # branches replay from the same stage; the join is the furthest stage
        state.cursor = max(state.cursor, then_cursor)
        return ast.SIf(span=_SPAN, cond=cond, then_body=then_body, else_body=else_body)

    def _gen_match(self, state: _HandlerState, depth: int) -> ast.SMatch:
        rng = self.rng
        n_scrutinees = rng.randint(1, 2)
        scrutinees = [self._int_expr(state, 0) for _ in range(n_scrutinees)]
        start_cursor = state.cursor
        join_cursor = start_cursor
        branches: List[Tuple[List[Optional[int]], List[ast.Stmt]]] = []
        for _ in range(rng.randint(1, 2)):
            pattern: List[Optional[int]] = [
                rng.choice([0, 1, 2, 3, None]) for _ in range(n_scrutinees)
            ]
            state.cursor = start_cursor
            arm = [self._gen_stmt(state, depth + 1) for _ in range(rng.randint(0, 2))]
            join_cursor = max(join_cursor, state.cursor)
            branches.append((pattern, arm))
        state.cursor = start_cursor
        wildcard = (
            [self._gen_stmt(state, depth + 1)] if rng.random() < 0.6 else []
        )
        join_cursor = max(join_cursor, state.cursor)
        branches.append(([None] * n_scrutinees, wildcard))
        state.cursor = join_cursor
        return ast.SMatch(span=_SPAN, scrutinees=scrutinees, branches=branches)

    def _gen_guarded_generate(self, state: _HandlerState) -> ast.Stmt:
        """``if (hops > 0) { generate ...(args, hops - 1); }`` — the hop-count
        decrement under a positive guard is what bounds every event chain."""
        rng = self.rng
        event, data_arity = rng.choice(self.events)
        args: List[ast.Expr] = [
            self._int_expr(state, 1, effects=False) for _ in range(data_arity)
        ]
        args.append(_bin(ast.BinOp.SUB, _var(state.hops_var), _int(1)))
        ctor: ast.Expr = _call(event, args)
        multicast = False
        combinator = rng.random()
        if combinator < 0.25:
            ctor = _call("Event.delay", [ctor, _int(rng.choice(DELAYS))])
        elif combinator < 0.45 and self.switch_count > 1:
            if self.groups and rng.random() < 0.4:
                ctor = _call("Event.locate", [ctor, _var(rng.choice(self.groups))])
                multicast = True
            else:
                target = rng.randrange(self.switch_count)
                ctor = _call("Event.locate", [ctor, _int(target)])
            if rng.random() < 0.3:
                ctor = _call("Event.delay", [ctor, _int(rng.choice(DELAYS))])
        gen = ast.SGenerate(span=_SPAN, event=ctor, multicast=multicast)
        guard = _bin(ast.BinOp.GT, _var(state.hops_var), _int(0))
        return ast.SIf(span=_SPAN, cond=guard, then_body=[gen], else_body=[])


class CaseGenerator:
    """Deterministic stream of checked (program, traffic) cases.

    ``CaseGenerator(seed).generate(i)`` is a pure function of ``(seed, i)``:
    re-running with the same pair reproduces the same case byte for byte.
    """

    #: attempts at drawing a program that passes the frontend, per case
    MAX_ATTEMPTS = 50

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, index: int) -> FuzzCase:
        last_error: Optional[LucidError] = None
        for attempt in range(self.MAX_ATTEMPTS):
            rng = random.Random(f"lucid-fuzz:{self.seed}:{index}:{attempt}")
            builder = _ProgramBuilder(rng)
            program = builder.build()
            source = unparse(program)
            try:
                check_program(source)
            except LucidError as error:
                last_error = error
                continue
            return FuzzCase(
                source=source,
                events=self._gen_traffic(rng, builder),
                switches=builder.switch_count,
                links=self._ring_links(builder.switch_count),
                name=f"seed{self.seed}-case{index}",
                description=f"generated by CaseGenerator(seed={self.seed}).generate({index})",
                seed=self.seed,
            )
        raise RuntimeError(
            f"could not draw a checkable program for case {index} after "
            f"{self.MAX_ATTEMPTS} attempts; last frontend error: {last_error}"
        )

    @staticmethod
    def _ring_links(switch_count: int) -> List[Tuple[int, int]]:
        if switch_count <= 1:
            return []
        if switch_count == 2:
            return [(0, 1)]
        return [(i, (i + 1) % switch_count) for i in range(switch_count)]

    @staticmethod
    def _gen_traffic(rng: random.Random, builder: _ProgramBuilder) -> List[Injection]:
        events: List[Injection] = []
        time_ns = 0
        for _ in range(rng.randint(2, 6)):
            time_ns += rng.choice((0, 100, 1_000, 10_000, 120_000))
            name, data_arity = rng.choice(builder.events)
            args = tuple(rng.randint(0, 300) for _ in range(data_arity)) + (
                rng.randint(0, 2),
            )
            events.append((time_ns, rng.randrange(builder.switch_count), name, args))
        return events
