"""The lexer for Lucid source text: one compiled pattern.

The concrete syntax follows the snippets in the paper: C-like statements,
``//`` and ``/* */`` comments, decimal / hexadecimal / binary integer
literals, time-suffixed literals (``10ms``, ``100us``, ``1s``) which are
normalised to nanoseconds, and the ``<<`` ``>>`` size brackets used by
``Array<<32>>`` and ``hash<<16>>``.

Each step of the scan is one ``match`` of :data:`_TOKEN` at the current
offset: it skips whitespace and comments and then takes exactly one
alternative — an identifier, an operator, a literal, or one of the error
shapes — so the cost is per token, not per character.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError
from repro.frontend.source import SourceFile, Span
from repro.frontend.tokens import KEYWORDS, Token, TokenKind

#: Multipliers for time-suffixed integer literals, normalised to nanoseconds.
TIME_SUFFIXES = {
    "ns": 1,
    "us": 1_000,
    "ms": 1_000_000,
    "s": 1_000_000_000,
}

#: every operator and punctuation mark, by its text
_OPERATORS = {
    kind.value: kind
    for kind in (
        TokenKind.EQ, TokenKind.NEQ, TokenKind.LE, TokenKind.GE, TokenKind.AND,
        TokenKind.OR, TokenKind.LSHIFT_SIZE, TokenKind.RSHIFT_SIZE,
        TokenKind.ASSIGN, TokenKind.LT, TokenKind.GT, TokenKind.BANG,
        TokenKind.AMP, TokenKind.PIPE, TokenKind.LPAREN, TokenKind.RPAREN,
        TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.LBRACKET,
        TokenKind.RBRACKET, TokenKind.SEMI, TokenKind.COMMA, TokenKind.DOT,
        TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
        TokenKind.PERCENT, TokenKind.TILDE, TokenKind.CARET, TokenKind.HASH,
    )
}

# ``\w`` is "alphanumeric or underscore" and ``\d`` the digits ``int()``
# accepts, in any script; ``[^\W_]`` is ``str.isalnum``.  A letter outside
# ASCII starts an identifier only if ``str.isalpha`` says so (``word``).
_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/ )*
    (?: (?P<ident>   [A-Za-z_]\w* )
      | (?P<comment> /\* )
      | (?P<op>      OPERATORS )
      | (?P<hex>     0[xX][^\W_]* )
      | (?P<bin>     0[bB][^\W_]* )
      | (?P<dec>     (?P<digits>\d+) (?P<suffix>[^\W\d_]*) )
      | (?P<string>  "[^"\n]*" )
      | (?P<word>    [^\W\d]\w* )
      | (?P<other>   . )
    )?
    """.replace(  # longest operators first
        "OPERATORS", "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    ),
    re.VERBOSE | re.DOTALL,
)


class Lexer:
    """Converts Lucid source text into a list of :class:`Token`."""

    def __init__(self, source: SourceFile):
        self.source = source

    def tokenize(self) -> List[Token]:
        """Lex the whole input, returning tokens terminated by ``EOF``."""
        source, text = self.source, self.source.text
        match = _TOKEN.match
        keyword = KEYWORDS.get
        ident, integer = TokenKind.IDENT, TokenKind.INT
        tokens: List[Token] = []
        emit = tokens.append
        pos = 0
        while True:
            found = match(text, pos)
            group = found.lastgroup
            if group is None:  # nothing but whitespace and comments is left
                break
            start, pos = found.span(group)
            lexeme = text[start:pos]
            if group == "ident":
                emit(Token(keyword(lexeme, ident), lexeme, Span(source, start, pos)))
            elif group == "op":
                emit(Token(_OPERATORS[lexeme], lexeme, Span(source, start, pos)))
            elif group == "dec":
                value = int(found["digits"])
                suffix = found["suffix"]
                if suffix in TIME_SUFFIXES:
                    value *= TIME_SUFFIXES[suffix]
                elif suffix and suffix != "w":  # a width, as in P4's 32w: ignored
                    raise LexError(f"unknown numeric suffix {suffix!r}", Span(source, start, pos))
                emit(Token(integer, lexeme, Span(source, start, pos), value))
            elif group in ("hex", "bin"):
                base, what = (16, "hexadecimal") if group == "hex" else (2, "binary")
                try:
                    value = int(lexeme, base)
                except ValueError:
                    raise LexError(
                        f"invalid {what} literal {lexeme!r}", Span(source, start, pos)
                    ) from None
                emit(Token(integer, lexeme, Span(source, start, pos), value))
            elif group == "string":
                emit(Token(TokenKind.STRING, lexeme, Span(source, start, pos)))
            elif group == "word" and lexeme[0].isalpha():
                emit(Token(ident, lexeme, Span(source, start, pos)))
            elif group == "comment":
                raise LexError("unterminated block comment", Span(source, start, len(text)))
            elif text[start] == '"':
                line_end = text.find("\n", start)
                raise LexError(
                    "unterminated string literal",
                    Span(source, start, len(text) if line_end < 0 else line_end),
                )
            else:
                raise LexError(f"unexpected character {text[start]!r}", Span(source, start, start + 1))
        emit(Token(TokenKind.EOF, "", Span(source, len(text), len(text))))
        return tokens


def tokenize(text: str, name: str = "<string>") -> List[Token]:
    """Convenience wrapper: lex ``text`` and return its tokens."""
    return Lexer(SourceFile(name, text)).tokenize()
