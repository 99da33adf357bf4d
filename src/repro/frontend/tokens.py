"""Token definitions for the Lucid lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.frontend.source import Span


class TokenKind(enum.Enum):
    """All token categories produced by :mod:`repro.frontend.lexer`."""

    # literals / identifiers
    INT = "int literal"
    IDENT = "identifier"
    STRING = "string literal"

    # keywords
    KW_CONST = "const"
    KW_GLOBAL = "global"
    KW_EVENT = "event"
    KW_HANDLE = "handle"
    KW_FUN = "fun"
    KW_MEMOP = "memop"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_RETURN = "return"
    KW_GENERATE = "generate"
    KW_MGENERATE = "mgenerate"
    KW_NEW = "new"
    KW_INT = "int type"
    KW_BOOL = "bool type"
    KW_VOID = "void"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_GROUP = "group"
    KW_AUTO = "auto"
    KW_EXTERN = "extern"
    KW_INCLUDE = "include"
    KW_MATCH = "match"
    KW_WITH = "with"
    KW_SIZE = "size"
    KW_SYMBOLIC = "symbolic"

    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ASSIGN = "="
    LSHIFT_SIZE = "<<"  # used both for shift and the Array<<n>> size syntax
    RSHIFT_SIZE = ">>"

    # operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "&&"
    OR = "||"
    HASH = "#"

    EOF = "end of input"


#: Reserved words and the token kind they map to.
KEYWORDS = {
    "const": TokenKind.KW_CONST,
    "global": TokenKind.KW_GLOBAL,
    "event": TokenKind.KW_EVENT,
    "handle": TokenKind.KW_HANDLE,
    "fun": TokenKind.KW_FUN,
    "memop": TokenKind.KW_MEMOP,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "return": TokenKind.KW_RETURN,
    "generate": TokenKind.KW_GENERATE,
    "mgenerate": TokenKind.KW_MGENERATE,
    "new": TokenKind.KW_NEW,
    "int": TokenKind.KW_INT,
    "bool": TokenKind.KW_BOOL,
    "void": TokenKind.KW_VOID,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "group": TokenKind.KW_GROUP,
    "auto": TokenKind.KW_AUTO,
    "extern": TokenKind.KW_EXTERN,
    "include": TokenKind.KW_INCLUDE,
    "match": TokenKind.KW_MATCH,
    "with": TokenKind.KW_WITH,
    "size": TokenKind.KW_SIZE,
    "symbolic": TokenKind.KW_SYMBOLIC,
}


class Token(NamedTuple):
    """A single lexical token."""

    kind: TokenKind
    text: str
    span: Span
    value: Optional[int] = None  # populated for integer literals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"
