"""A recursive-descent parser for Lucid.

The grammar follows the concrete syntax used throughout the paper (Sections 3
through 6).  It is deliberately small and regular: declarations at the top
level, C-like statements inside handler / function / memop bodies, and a
conventional expression grammar with precedence climbing.

The only syntactic subtlety is the ``<<w>>`` size-bracket syntax used by
``Array<<32>>`` and ``hash<<16>>(...)``: the token sequence ``<< INT >>`` is
interpreted as a size argument when it immediately follows a callee name and
is itself followed by ``(`` — otherwise ``<<`` and ``>>`` are the shift
operators.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.lexer import Lexer
from repro.frontend.source import SourceFile, Span
from repro.frontend.tokens import Token, TokenKind
from repro.ops import BINOPS

#: operators are spelled as their tokens: token kind -> (operator, precedence)
_BINARY = {TokenKind(op.value): (op, BINOPS[op].level) for op in ast.BinOp}
_UNARY = {TokenKind(op.value): op for op in ast.UnOp}


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast.Program`."""

    def __init__(self, source: SourceFile):
        self.source = source
        tokens = Lexer(source).tokenize()
        # ``pos`` never passes the one ``EOF`` and no rule looks further than
        # three tokens ahead (``_looks_like_size_args``): pad, don't clamp
        self.tokens = tokens + tokens[-1:] * 3
        self.pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _at(self, kind: TokenKind, offset: int = 0) -> bool:
        return self.tokens[self.pos + offset].kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            expected = what or kind.value
            raise ParseError(
                f"expected {expected}, found {tok.text!r}" if tok.text else f"expected {expected}, found end of input",
                tok.span,
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _error(self, message: str, span: Optional[Span] = None) -> ParseError:
        return ParseError(message, span or self._peek().span)

    # ------------------------------------------------------------------
    # program / declarations
    # ------------------------------------------------------------------
    def parse_program(self, name: str = "<program>") -> ast.Program:
        """Parse the whole token stream as a program."""
        decls: List[ast.Decl] = []
        while not self._at(TokenKind.EOF):
            decls.append(self.parse_decl())
        return ast.Program(decls=decls, name=name)

    def parse_decl(self) -> ast.Decl:
        tok = self._peek()
        if tok.kind is TokenKind.KW_CONST:
            return self._parse_const()
        if tok.kind is TokenKind.KW_SYMBOLIC:
            return self._parse_symbolic()
        if tok.kind is TokenKind.KW_GLOBAL:
            return self._parse_global(explicit_keyword=True)
        if tok.kind is TokenKind.IDENT and tok.text == "Array":
            return self._parse_global(explicit_keyword=False)
        if tok.kind is TokenKind.KW_EVENT:
            return self._parse_event()
        if tok.kind is TokenKind.KW_HANDLE:
            return self._parse_handler()
        if tok.kind is TokenKind.KW_FUN:
            return self._parse_fun()
        if tok.kind is TokenKind.KW_MEMOP:
            return self._parse_memop()
        if tok.kind is TokenKind.KW_EXTERN:
            return self._parse_extern()
        raise self._error(
            f"expected a declaration (const/global/event/handle/fun/memop), found {tok.text!r}"
        )

    def _parse_const(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_CONST)
        if self._at(TokenKind.KW_GROUP):
            self._advance()
            name = self._expect(TokenKind.IDENT, "group name").text
            self._expect(TokenKind.ASSIGN)
            value = self._parse_group_literal()
            semi = self._expect(TokenKind.SEMI)
            span = start.span.merge(semi.span)
            return ast.DConst(span=span, ty=ast.TGroup(span=start.span), name=name, value=value)
        ty = self._parse_type()
        name = self._expect(TokenKind.IDENT, "constant name").text
        self._expect(TokenKind.ASSIGN)
        value = self.parse_expr()
        semi = self._expect(TokenKind.SEMI)
        return ast.DConst(span=start.span.merge(semi.span), ty=ty, name=name, value=value)

    def _parse_symbolic(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_SYMBOLIC)
        self._accept(TokenKind.KW_SIZE)
        self._accept(TokenKind.KW_INT)
        name = self._expect(TokenKind.IDENT, "symbolic name").text
        default = 1024
        if self._accept(TokenKind.ASSIGN):
            tok = self._expect(TokenKind.INT, "integer default")
            default = tok.value or 0
        semi = self._expect(TokenKind.SEMI)
        return ast.DSymbolic(span=start.span.merge(semi.span), name=name, default=default)

    def _parse_global(self, explicit_keyword: bool) -> ast.Decl:
        """Parse ``global name = new Array<<w>>(size);`` and the shorthand
        ``Array name = new Array<<w>>(size);`` used in Figure 6."""
        start = self._advance()  # 'global' or 'Array'
        declared_width: Optional[int] = None
        if explicit_keyword and self._at(TokenKind.IDENT) and self._peek().text == "Array":
            # `global Array<<w>> name = ...`
            self._advance()
            declared_width = self._maybe_parse_size_brackets()
        elif not explicit_keyword:
            declared_width = self._maybe_parse_size_brackets()
        name = self._expect(TokenKind.IDENT, "global name").text
        self._expect(TokenKind.ASSIGN)
        self._expect(TokenKind.KW_NEW)
        ctor = self._expect(TokenKind.IDENT, "Array constructor")
        kind = "array"
        if ctor.text == "Counter":
            kind = "counter"
        elif ctor.text != "Array":
            raise self._error(f"unknown global constructor {ctor.text!r}", ctor.span)
        width = self._maybe_parse_size_brackets()
        if width is None:
            width = declared_width if declared_width is not None else 32
        self._expect(TokenKind.LPAREN)
        size_expr = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        semi = self._expect(TokenKind.SEMI)
        return ast.DGlobal(
            span=start.span.merge(semi.span),
            name=name,
            cell_width=width,
            size_expr=size_expr,
            kind=kind,
        )

    def _maybe_parse_size_brackets(self) -> Optional[int]:
        """Parse ``<< INT >>`` if present, returning the integer."""
        if not self._at(TokenKind.LSHIFT_SIZE):
            return None
        self._advance()
        tok = self._expect(TokenKind.INT, "bit width")
        self._expect(TokenKind.RSHIFT_SIZE)
        return tok.value or 0

    def _parse_params(self) -> List[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: List[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                ty = self._parse_type()
                name_tok = self._expect(TokenKind.IDENT, "parameter name")
                params.append(ast.Param(ty=ty, name=name_tok.text, span=name_tok.span))
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_event(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_EVENT)
        name = self._expect(TokenKind.IDENT, "event name").text
        params = self._parse_params()
        semi = self._expect(TokenKind.SEMI)
        return ast.DEvent(span=start.span.merge(semi.span), name=name, params=params)

    def _parse_handler(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_HANDLE)
        name = self._expect(TokenKind.IDENT, "handler name").text
        params = self._parse_params()
        body, end_span = self._parse_block()
        return ast.DHandler(span=start.span.merge(end_span), name=name, params=params, body=body)

    def _parse_fun(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_FUN)
        ret = self._parse_type()
        name = self._expect(TokenKind.IDENT, "function name").text
        params = self._parse_params()
        body, end_span = self._parse_block()
        return ast.DFun(span=start.span.merge(end_span), ret=ret, name=name, params=params, body=body)

    def _parse_memop(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_MEMOP)
        name = self._expect(TokenKind.IDENT, "memop name").text
        params = self._parse_params()
        body, end_span = self._parse_block()
        return ast.DMemop(span=start.span.merge(end_span), name=name, params=params, body=body)

    def _parse_extern(self) -> ast.Decl:
        start = self._expect(TokenKind.KW_EXTERN)
        self._accept(TokenKind.KW_FUN)
        ret = self._parse_type()
        name = self._expect(TokenKind.IDENT, "extern name").text
        params = self._parse_params()
        semi = self._expect(TokenKind.SEMI)
        return ast.DExtern(span=start.span.merge(semi.span), ret=ret, name=name, params=params)

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------
    def _parse_type(self) -> ast.TypeExpr:
        tok = self._peek()
        if tok.kind is TokenKind.KW_INT:
            self._advance()
            width = self._maybe_parse_size_brackets()
            return ast.TInt(span=tok.span, width=width if width is not None else 32)
        if tok.kind is TokenKind.KW_BOOL:
            self._advance()
            return ast.TBool(span=tok.span)
        if tok.kind is TokenKind.KW_VOID:
            self._advance()
            return ast.TVoid(span=tok.span)
        if tok.kind is TokenKind.KW_EVENT:
            self._advance()
            return ast.TEvent(span=tok.span)
        if tok.kind is TokenKind.KW_GROUP:
            self._advance()
            return ast.TGroup(span=tok.span)
        if tok.kind is TokenKind.KW_AUTO:
            self._advance()
            return ast.TNamed(span=tok.span, name="auto")
        if tok.kind is TokenKind.IDENT and tok.text == "Array":
            self._advance()
            width = self._maybe_parse_size_brackets()
            return ast.TArray(span=tok.span, width=width if width is not None else 32)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.TNamed(span=tok.span, name=tok.text)
        raise self._error(f"expected a type, found {tok.text!r}")

    def _starts_type(self) -> bool:
        tok = self._peek()
        if tok.kind in (
            TokenKind.KW_INT,
            TokenKind.KW_BOOL,
            TokenKind.KW_EVENT,
            TokenKind.KW_GROUP,
            TokenKind.KW_AUTO,
        ):
            # `event` can also begin a nested event declaration only at top
            # level; inside statements `event x = ...` declares a local.
            return True
        if tok.kind is TokenKind.IDENT and tok.text == "Array":
            # `Array.get(...)` is a call, `Array<<32>> x` is a type.  Calls are
            # always followed by a dot.
            return not self._at(TokenKind.DOT, 1)
        return False

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> Tuple[List[ast.Stmt], Span]:
        self._expect(TokenKind.LBRACE)
        body: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise self._error("unexpected end of input inside block")
            body.append(self.parse_stmt())
        end = self._expect(TokenKind.RBRACE)
        return body, end.span

    def parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.KW_IF:
            return self._parse_if()
        if tok.kind is TokenKind.KW_MATCH:
            return self._parse_match()
        if tok.kind is TokenKind.KW_RETURN:
            return self._parse_return()
        if tok.kind in (TokenKind.KW_GENERATE, TokenKind.KW_MGENERATE):
            return self._parse_generate()
        if tok.kind is TokenKind.SEMI:
            self._advance()
            return ast.SNoop(span=tok.span)
        if self._starts_type():
            return self._parse_local()
        # assignment or expression statement
        if tok.kind is TokenKind.IDENT and self._at(TokenKind.ASSIGN, 1):
            return self._parse_assign()
        expr = self.parse_expr()
        semi = self._expect(TokenKind.SEMI)
        return ast.SExpr(span=tok.span.merge(semi.span), expr=expr)

    def _parse_local(self) -> ast.Stmt:
        start = self._peek()
        ty = self._parse_type()
        name = self._expect(TokenKind.IDENT, "variable name").text
        self._expect(TokenKind.ASSIGN)
        init = self.parse_expr()
        semi = self._expect(TokenKind.SEMI)
        return ast.SLocal(span=start.span.merge(semi.span), ty=ty, name=name, init=init)

    def _parse_assign(self) -> ast.Stmt:
        name_tok = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.ASSIGN)
        value = self.parse_expr()
        semi = self._expect(TokenKind.SEMI)
        return ast.SAssign(span=name_tok.span.merge(semi.span), name=name_tok.text, value=value)

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        if self._at(TokenKind.LBRACE):
            then_body, end_span = self._parse_block()
        else:
            stmt = self.parse_stmt()
            then_body, end_span = [stmt], stmt.span
        else_body: List[ast.Stmt] = []
        if self._accept(TokenKind.KW_ELSE):
            if self._at(TokenKind.KW_IF):
                nested = self._parse_if()
                else_body, end_span = [nested], nested.span
            elif self._at(TokenKind.LBRACE):
                else_body, end_span = self._parse_block()
            else:
                stmt = self.parse_stmt()
                else_body, end_span = [stmt], stmt.span
        return ast.SIf(span=start.span.merge(end_span), cond=cond, then_body=then_body, else_body=else_body)

    def _parse_match(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_MATCH)
        self._expect(TokenKind.LPAREN)
        scrutinees = [self.parse_expr()]
        while self._accept(TokenKind.COMMA):
            scrutinees.append(self.parse_expr())
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.KW_WITH)
        branches: List[Tuple[List[Optional[int]], List[ast.Stmt]]] = []
        end_span = start.span
        while self._accept(TokenKind.PIPE):
            pattern: List[Optional[int]] = []
            while True:
                if self._at(TokenKind.INT):
                    pattern.append(self._advance().value)
                elif self._at(TokenKind.IDENT) and self._peek().text == "_":
                    self._advance()
                    pattern.append(None)
                else:
                    raise self._error("expected an integer or '_' in match pattern")
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.MINUS)
            self._expect(TokenKind.GT)
            body, end_span = self._parse_block()
            branches.append((pattern, body))
        if not branches:
            raise self._error("match statement has no branches", start.span)
        return ast.SMatch(span=start.span.merge(end_span), scrutinees=scrutinees, branches=branches)

    def _parse_return(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_RETURN)
        if self._at(TokenKind.SEMI):
            semi = self._advance()
            return ast.SReturn(span=start.span.merge(semi.span), value=None)
        value = self.parse_expr()
        semi = self._expect(TokenKind.SEMI)
        return ast.SReturn(span=start.span.merge(semi.span), value=value)

    def _parse_generate(self) -> ast.Stmt:
        start = self._advance()
        multicast = start.kind is TokenKind.KW_MGENERATE
        event = self.parse_expr()
        semi = self._expect(TokenKind.SEMI)
        return ast.SGenerate(span=start.span.merge(semi.span), event=event, multicast=multicast)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self, min_level: int = 1) -> ast.Expr:
        """An expression whose binary operators all bind at ``min_level`` or
        tighter; operators of one level associate left."""
        left = self._parse_unary()
        while True:
            binary = _BINARY.get(self.tokens[self.pos].kind)
            if binary is None or binary[1] < min_level:
                return left
            self.pos += 1
            right = self.parse_expr(binary[1] + 1)
            left = ast.EBinary(span=left.span.merge(right.span), op=binary[0], left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        op = _UNARY.get(tok.kind)
        if op is None:
            return self._parse_primary()
        self.pos += 1
        operand = self._parse_unary()
        return ast.EUnary(span=tok.span.merge(operand.span), op=op, operand=operand)

    def _parse_group_literal(self) -> ast.Expr:
        start = self._expect(TokenKind.LBRACE)
        members: List[ast.Expr] = []
        if not self._at(TokenKind.RBRACE):
            members.append(self.parse_expr())
            while self._accept(TokenKind.COMMA):
                members.append(self.parse_expr())
        end = self._expect(TokenKind.RBRACE)
        return ast.EGroup(span=start.span.merge(end.span), members=members)

    def _looks_like_size_args(self) -> bool:
        """True when the upcoming tokens are ``<< INT >> (``."""
        return (
            self._at(TokenKind.LSHIFT_SIZE)
            and self._at(TokenKind.INT, 1)
            and self._at(TokenKind.RSHIFT_SIZE, 2)
            and self._at(TokenKind.LPAREN, 3)
        )

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._advance()
            return ast.EInt(span=tok.span, value=tok.value or 0)
        if tok.kind is TokenKind.KW_TRUE:
            self._advance()
            return ast.EBool(span=tok.span, value=True)
        if tok.kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.EBool(span=tok.span, value=False)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        if tok.kind is TokenKind.LBRACE:
            return self._parse_group_literal()
        if tok.kind is TokenKind.IDENT or tok.kind is TokenKind.KW_EVENT:
            return self._parse_path_or_call()
        raise self._error(f"expected an expression, found {tok.text!r}")

    def _parse_path_or_call(self) -> ast.Expr:
        start = self._advance()
        parts = [start.text]
        end_span = start.span
        while self._at(TokenKind.DOT):
            self._advance()
            part = self._expect(TokenKind.IDENT, "member name")
            parts.append(part.text)
            end_span = part.span
        name = ".".join(parts)
        size_args: List[int] = []
        if self._looks_like_size_args():
            self._advance()  # <<
            size_tok = self._advance()
            size_args.append(size_tok.value or 0)
            self._advance()  # >>
        if self._at(TokenKind.LPAREN):
            self._advance()
            args: List[ast.Expr] = []
            if not self._at(TokenKind.RPAREN):
                args.append(self.parse_expr())
                while self._accept(TokenKind.COMMA):
                    args.append(self.parse_expr())
            end = self._expect(TokenKind.RPAREN)
            return ast.ECall(span=start.span.merge(end.span), func=name, args=args, size_args=size_args)
        if len(parts) > 1:
            raise self._error(f"dotted name {name!r} must be called", start.span.merge(end_span))
        return ast.EVar(span=start.span, name=name)


def parse_program(text: str, name: str = "<string>") -> ast.Program:
    """Parse ``text`` into a :class:`Program` (the main frontend entry point)."""
    return Parser(SourceFile(name, text)).parse_program(name=name)


def parse_expression(text: str, name: str = "<expr>") -> ast.Expr:
    """Parse a single expression (used by tests and the REPL-ish helpers)."""
    parser = Parser(SourceFile(name, text))
    expr = parser.parse_expr()
    parser._expect(TokenKind.EOF)
    return expr
