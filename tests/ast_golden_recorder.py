"""What the parser produces for every bundled program, for pinning against a golden.

Public API only (``repro.frontend.parse_program``, the AST node classes and
``repro.fuzz.gen.CaseGenerator``), so the same recorder runs against any
checkout.  Each entry hashes ``repr(program.decls)`` (spans are not part of a
node's repr) together with the ``(start, end)`` of every expression and
statement span, in tree order.  Regenerate ``tests/golden/ast_sha256.json``
only from a tree whose parser you trust::

    PYTHONPATH=src:tests python -m ast_golden_recorder > tests/golden/ast_sha256.json
"""

import hashlib
import json

from repro.frontend import ast, parse_program
from repro.fuzz.gen import CaseGenerator
from token_golden_recorder import sources as token_sources

#: the fuzz cases pinned beside the bundled programs: seed, and cases 0..N-1
FUZZ_SEED = 0
FUZZ_CASES = 100


def sources():
    """``{label: program text}``: every program the token golden pins (its
    ``quirks`` text is not a program) plus the first :data:`FUZZ_CASES`
    fuzz cases of seed :data:`FUZZ_SEED`."""
    out = {label: text for label, text in token_sources().items() if label != "quirks"}
    generator = CaseGenerator(FUZZ_SEED)
    for index in range(FUZZ_CASES):
        out[f"fuzz:{FUZZ_SEED}:{index}"] = generator.generate(index).source
    return out


def _spans(node, out):
    """Append the ``(start, end)`` of every expression and statement under
    ``node`` to ``out``, pre-order."""
    if isinstance(node, (list, tuple)):
        for item in node:
            _spans(item, out)
    elif isinstance(node, (ast.Expr, ast.Stmt, ast.Decl)):
        if not isinstance(node, ast.Decl):
            out.append((node.span.start, node.span.end))
        for name, value in vars(node).items():
            if name != "span":
                _spans(value, out)


def ast_summary(text):
    decls = parse_program(text).decls
    spans = []
    _spans(decls, spans)
    return {"decls": len(decls),
            "sha256": hashlib.sha256((repr(decls) + repr(spans)).encode()).hexdigest()}


if __name__ == "__main__":
    print(json.dumps({label: ast_summary(text) for label, text in sources().items()},
                     indent=2))
