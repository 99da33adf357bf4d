"""Tests for the lexer and parser."""

import functools
import json
from pathlib import Path

import pytest

from ast_golden_recorder import ast_summary, sources as ast_sources
from repro.errors import LexError, ParseError
from repro.frontend import ast, parse_expression, parse_program, tokenize
from repro.frontend.tokens import TokenKind
from token_golden_recorder import sources, token_summary

TOKEN_GOLDEN = json.loads((Path(__file__).parent / "golden" / "tokens_sha256.json").read_text())
TOKEN_SOURCES = sources()
AST_GOLDEN = json.loads((Path(__file__).parent / "golden" / "ast_sha256.json").read_text())


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------
def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def test_lex_integers_decimal():
    toks = tokenize("42")
    assert toks[0].kind is TokenKind.INT and toks[0].value == 42


def test_lex_integers_hex():
    assert tokenize("0xff")[0].value == 255


def test_lex_integers_binary():
    assert tokenize("0b1010")[0].value == 10


@pytest.mark.parametrize(
    "literal,expected_ns",
    [("5ns", 5), ("3us", 3_000), ("10ms", 10_000_000), ("2s", 2_000_000_000)],
)
def test_lex_time_suffixes_normalise_to_ns(literal, expected_ns):
    assert tokenize(literal)[0].value == expected_ns


def test_lex_unknown_suffix_rejected():
    with pytest.raises(LexError):
        tokenize("10parsecs")


def test_lex_keywords_vs_identifiers():
    assert kinds("handle handler") == [TokenKind.KW_HANDLE, TokenKind.IDENT]


def test_lex_two_char_operators():
    assert kinds("== != <= >= && ||") == [
        TokenKind.EQ,
        TokenKind.NEQ,
        TokenKind.LE,
        TokenKind.GE,
        TokenKind.AND,
        TokenKind.OR,
    ]


def test_lex_size_brackets():
    assert kinds("Array<<32>>") == [TokenKind.IDENT, TokenKind.LSHIFT_SIZE, TokenKind.INT, TokenKind.RSHIFT_SIZE]


def test_lex_line_comments_skipped():
    assert kinds("1 // two three\n4") == [TokenKind.INT, TokenKind.INT]


def test_lex_block_comments_skipped():
    assert kinds("1 /* 2\n 3 */ 4") == [TokenKind.INT, TokenKind.INT]


def test_lex_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_lex_unexpected_character():
    with pytest.raises(LexError):
        tokenize("int x = $1;")


def test_lex_positions_are_tracked():
    toks = tokenize("a\n  b")
    assert toks[1].span.line == 2 and toks[1].span.column == 3


@pytest.mark.parametrize(
    "text,message,start",
    [
        ("a /* never closed", "unterminated block comment", 2),
        ('x = "abc', "unterminated string literal", 4),
        ('x = "ab\nc";', "unterminated string literal", 4),
        ("y = 0xZZ;", "invalid hexadecimal literal '0xZZ'", 4),
        ("y = 0x;", "invalid hexadecimal literal '0x'", 4),
        ("y = 0b102;", "invalid binary literal '0b102'", 4),
        ("t = 10parsecs;", "unknown numeric suffix 'parsecs'", 4),
        ("int x = $1;", "unexpected character '$'", 8),
        ("a\fb", "unexpected character '\\x0c'", 1),
        # str.isdigit() takes a superscript for a digit, int() does not
        ("int x = \u00b2;", "unexpected character '\u00b2'", 8),
        ("\u00bd", "unexpected character '\u00bd'", 0),
    ],
)
def test_lex_errors_keep_their_message_and_position(text, message, start):
    with pytest.raises(LexError) as err:
        tokenize(text)
    assert (err.value.message, err.value.span.start) == (message, start)


def test_lex_ends_in_exactly_one_eof():
    for text in ("", "  // only a comment", "a b", "0"):
        toks = tokenize(text)
        assert [t.kind for t in toks].count(TokenKind.EOF) == 1 and toks[-1].kind is TokenKind.EOF
        assert toks[-1].span.start == toks[-1].span.end == len(text)


@pytest.mark.parametrize("label", sorted(TOKEN_GOLDEN))
def test_tokens_match_golden(label):
    """Recorded from the hand-written scanner this one replaced; regenerate
    only on purpose, with tests/token_golden_recorder.py."""
    assert token_summary(TOKEN_SOURCES[label]) == TOKEN_GOLDEN[label]


def test_token_golden_covers_every_bundled_source():
    assert sorted(TOKEN_SOURCES) == sorted(TOKEN_GOLDEN)


# ---------------------------------------------------------------------------
# parser: expressions
# ---------------------------------------------------------------------------
def test_parse_precedence_mul_over_add():
    expr = parse_expression("1 + 2 * 3")
    assert isinstance(expr, ast.EBinary) and expr.op is ast.BinOp.ADD
    assert isinstance(expr.right, ast.EBinary) and expr.right.op is ast.BinOp.MUL


def test_parse_precedence_cmp_over_and():
    expr = parse_expression("a == 1 && b == 2")
    assert expr.op is ast.BinOp.AND
    assert expr.left.op is ast.BinOp.EQ and expr.right.op is ast.BinOp.EQ


def test_parse_parentheses_override_precedence():
    expr = parse_expression("(1 + 2) * 3")
    assert expr.op is ast.BinOp.MUL and expr.left.op is ast.BinOp.ADD


def test_parse_unary_operators():
    expr = parse_expression("!x")
    assert isinstance(expr, ast.EUnary) and expr.op is ast.UnOp.NOT


def test_parse_dotted_call():
    expr = parse_expression("Array.get(tbl, 3)")
    assert isinstance(expr, ast.ECall) and expr.func == "Array.get" and len(expr.args) == 2


def test_parse_hash_with_size_args():
    expr = parse_expression("hash<<16>>(a, b)")
    assert isinstance(expr, ast.ECall) and expr.size_args == [16]


def test_parse_shift_still_works_outside_calls():
    expr = parse_expression("a << 2")
    assert isinstance(expr, ast.EBinary) and expr.op is ast.BinOp.SHL


def test_parse_shifts_that_look_like_size_brackets_are_shifts():
    """Only ``hash`` takes ``<<w>>``: after any other name, ``<< 2 >> (b)``
    is two shifts, not a sized call of ``a``."""
    expr = parse_expression("a << 2 >> (b)")
    assert expr.op is ast.BinOp.SHR and expr.left.op is ast.BinOp.SHL and expr.left.right.value == 2


def test_parse_nested_event_combinators():
    expr = parse_expression("Event.delay(Event.locate(ping(1), 3), 10ms)")
    assert expr.func == "Event.delay"
    inner = expr.args[0]
    assert inner.func == "Event.locate" and inner.args[0].func == "ping"


def test_parse_dotted_name_must_be_called():
    with pytest.raises(ParseError):
        parse_expression("Array.get")


#: the binary operators by binding strength, loosest first
LEVELS = [
    ["||"],
    ["&&"],
    ["==", "!=", "<", ">", "<=", ">="],
    ["|"],
    ["^"],
    ["&"],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


def _shape(expr):
    if isinstance(expr, ast.EBinary):
        return f"({_shape(expr.left)} {expr.op.value} {_shape(expr.right)})"
    return expr.name


def test_level_list_covers_every_operator():
    assert sorted(op for level in LEVELS for op in level) == sorted(op.value for op in ast.BinOp)


@pytest.mark.parametrize(
    "first,second", [(i, j) for i in range(len(LEVELS)) for j in range(len(LEVELS))]
)
def test_parse_precedence_follows_the_level_list(first, second):
    """``a o1 b o2 c`` groups the tighter operator first; within one level,
    operators associate left."""
    for o1 in LEVELS[first]:
        for o2 in LEVELS[second]:
            expected = f"(a {o1} (b {o2} c))" if second > first else f"((a {o1} b) {o2} c)"
            assert _shape(parse_expression(f"a {o1} b {o2} c")) == expected


@pytest.mark.parametrize(
    "text,message,start",
    [
        ("a + * b", "expected an expression, found '*'", 4),
        ("(a", "expected ), found end of input", 2),
        ("a <<", "expected an expression, found ''", 4),
        ("!", "expected an expression, found ''", 1),
        ("a == == b", "expected an expression, found '=='", 5),
        ("1 +", "expected an expression, found ''", 3),
    ],
)
def test_parse_errors_keep_their_message_and_position(text, message, start):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.message, err.value.span.start) == (message, start)


@functools.lru_cache(maxsize=None)
def _ast_sources():
    return ast_sources()


@pytest.mark.parametrize("label", sorted(AST_GOLDEN))
def test_ast_matches_golden(label):
    """Trees and spans as the per-level parser built them; regenerate only
    on purpose, with tests/ast_golden_recorder.py."""
    assert ast_summary(_ast_sources()[label]) == AST_GOLDEN[label]


def test_ast_golden_covers_every_bundled_source():
    assert sorted(_ast_sources()) == sorted(AST_GOLDEN)


# ---------------------------------------------------------------------------
# parser: declarations and statements
# ---------------------------------------------------------------------------
FULL_PROGRAM = """
const int SIZE = 16;
const group PEERS = {1, 2, 3};
symbolic size COLS = 512;
global tbl = new Array<<32>>(SIZE);
extern fun int report(int value);
memop plus(int stored, int x) { return stored + x; }
fun int bump(int idx) { return Array.get(tbl, idx, plus, 1); }
event pkt(int src, int dst);
handle pkt(int src, int dst) {
  int x = bump(src);
  if (x > 10) {
    generate Event.locate(pkt(src, dst), PEERS);
  } else {
    drop();
  }
}
"""


def test_parse_full_program_declaration_counts():
    program = parse_program(FULL_PROGRAM)
    assert len(program.consts()) == 2
    assert len(program.symbolics()) == 1
    assert len(program.globals()) == 1
    assert len(program.externs()) == 1
    assert len(program.memops()) == 1
    assert len(program.functions()) == 1
    assert len(program.events()) == 1
    assert len(program.handlers()) == 1


def test_parse_global_declaration_width_and_size_expr():
    program = parse_program("global t = new Array<<16>>(4 * 8);")
    g = program.globals()[0]
    assert g.cell_width == 16
    assert isinstance(g.size_expr, ast.EBinary)


def test_parse_array_shorthand_without_global_keyword():
    program = parse_program("Array nexthops = new Array<<32>>(8);")
    assert program.globals()[0].name == "nexthops"


def test_parse_group_constant():
    program = parse_program("const group G = {4, 5};")
    const = program.consts()[0]
    assert isinstance(const.value, ast.EGroup) and len(const.value.members) == 2


def test_parse_if_else_chain():
    program = parse_program(
        "event e(int a); handle e(int a) { if (a == 1) { drop(); } else if (a == 2) { drop(); } else { drop(); } }"
    )
    handler = program.handlers()[0]
    outer = handler.body[0]
    assert isinstance(outer, ast.SIf)
    assert isinstance(outer.else_body[0], ast.SIf)


def test_parse_match_statement():
    program = parse_program(
        "event e(int a, int b); handle e(int a, int b) { match (a, b) with | 1, _ -> { drop(); } | _, 2 -> { flood(1); } }"
    )
    stmt = program.handlers()[0].body[0]
    assert isinstance(stmt, ast.SMatch)
    assert stmt.branches[0][0] == [1, None]
    assert stmt.branches[1][0] == [None, 2]


def test_parse_generate_and_mgenerate():
    program = parse_program(
        "event a(); event b(); handle a() { generate b(); mgenerate Event.locate(b(), {1,2}); }"
    )
    body = program.handlers()[0].body
    assert isinstance(body[0], ast.SGenerate) and not body[0].multicast
    assert isinstance(body[1], ast.SGenerate) and body[1].multicast


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_program("event e(int a) handle e(int a) {}")
    assert "expected" in str(err.value)


def test_parse_error_on_missing_semicolon():
    with pytest.raises(ParseError):
        parse_program("const int X = 3")


def test_parse_error_on_unclosed_block():
    with pytest.raises(ParseError):
        parse_program("event e(); handle e() { drop();")


@pytest.mark.parametrize(
    "text,message,at",
    [
        # every scalar is a 32-bit word: a sized int would be one width in the
        # P4 and another in every engine
        pytest.param(
            "event pkt(int x); handle pkt(int x) { int<<8>> y = x + x; }", "'int<<w>>' is not a type", "int", id="int8-local"
        ),
        pytest.param(
            "fun int f(int<<8>> x) { return x; }", "'int<<w>>' is not a type", "int", id="int8-fun-param"
        ),
        pytest.param(
            "event pkt(int<<8>> x);", "'int<<w>>' is not a type", "int", id="int8-event-arg"
        ),
        # a type name the language does not define used to mean 'int'
        pytest.param(
            "event pkt(flurb x);", "unknown type 'flurb'", "flurb", id="unknown-event-arg"
        ),
        pytest.param(
            "fun flurb f(int x) { return x; }", "unknown type 'flurb'", "flurb", id="unknown-fun-return"
        ),
        # 'auto' infers a local's type from its initialiser, and only there
        pytest.param(
            "event pkt(auto x);", "expected a type, found 'auto'", "auto", id="auto-param"
        ),
        pytest.param(
            "global t = new Counter<<32>>(4);", "unknown global constructor 'Counter'", "Counter", id="counter"
        ),
        # a cell width is written once, on the constructor
        pytest.param(
            "global Array<<8>> t = new Array<<16>>(4);", "'Array<<w>> name' declares no global", "Array", id="global-array-width"
        ),
        pytest.param(
            "Array<<8>> t = new Array(4);", "'Array<<w>> name' declares no global", "<<", id="shorthand-array-width"
        ),
        pytest.param(
            "global t = new Array<<0>>(4);", "'Array<<0>>': an array cell is 1 to 32 bits wide", "0", id="array-width-0"
        ),
        pytest.param(
            "global t = new Array<<40>>(4);", "'Array<<40>>': an array cell is 1 to 32 bits wide", "40", id="array-width-40"
        ),
        pytest.param(
            "fun int f(Array<<33>> a) { return 0; }", "'Array<<33>>': an array cell is 1 to 32 bits wide", "33", id="array-param-width-33"
        ),
        # of all calls only hash takes a width
        pytest.param(
            "event e(int x); handle e(int x) { int y = Sys.random<<8>>(); }", "dotted name 'Sys.random' must be called", "Sys.random", id="sized-call"
        ),
    ],
)
def test_retired_type_spellings_are_refused_by_name(text, message, at):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert err.value.message.startswith(message)
    assert err.value.span.text == at


def test_parser_spans_cover_declarations():
    program = parse_program(FULL_PROGRAM, name="prog.lucid")
    handler = program.handlers()[0]
    assert handler.span.source.name == "prog.lucid"
    assert "handle pkt" in handler.span.text


# ---------------------------------------------------------------------------
# ast.clone
# ---------------------------------------------------------------------------
def _scramble(node, seen):
    """Mutate every list and attribute reachable from ``node`` in place."""
    if isinstance(node, list):
        for item in node:
            _scramble(item, seen)
        node.append("scrambled")
    elif type(node) is tuple:
        for item in node:
            _scramble(item, seen)
    elif isinstance(node, (ast.Expr, ast.Stmt)) and id(node) not in seen:
        seen.add(id(node))
        for name, value in list(vars(node).items()):
            _scramble(value, seen)
            if not isinstance(value, list):
                setattr(node, name, "scrambled")


def test_clone_shares_no_mutable_state():
    source = """
    event e(int a, int b);
    handle e(int a, int b) {
        int h = hash<<16>>(a, b);
        match (a, h) with
        | 1, _ -> { if (b > 2 && !(a == 3)) { generate e(h, -b); } else { return; } }
        | _, _ -> { h = h + {1, 2}; }
    }
    """
    body = parse_program(source).handlers()[0].body
    reference = parse_program(source).handlers()[0].body
    copy = ast.clone(body)
    assert copy == body and copy is not body
    original_nodes = {id(s) for s in ast.walk_stmts(body)} | {
        id(x) for s in ast.walk_stmts(body) for e in ast.stmt_exprs(s) for x in ast.walk_expr(e)
    }
    copied_nodes = {id(s) for s in ast.walk_stmts(copy)} | {
        id(x) for s in ast.walk_stmts(copy) for e in ast.stmt_exprs(s) for x in ast.walk_expr(e)
    }
    assert len(copied_nodes) == len(original_nodes) and not copied_nodes & original_nodes
    pattern, _ = copy[1].branches[0]
    assert pattern == [1, None] and pattern is not body[1].branches[0][0]
    assert copy[0].init.size_args == [16] and copy[0].init.size_args is not body[0].init.size_args
    assert copy[0].span is body[0].span and copy[0].ty is body[0].ty  # immutable: shared
    _scramble(copy, set())
    assert copy != body and body == reference
