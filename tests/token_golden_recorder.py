"""What the lexer produces for every bundled program, for pinning against a golden.

Public API only (``repro.frontend.lexer.tokenize`` and the token / span
attributes), so the same recorder runs against any checkout.  Regenerate
``tests/golden/tokens_sha256.json`` only from a tree whose lexer you trust::

    PYTHONPATH=src:tests python -m token_golden_recorder > tests/golden/tokens_sha256.json
"""

import glob
import hashlib
import json
import os

from repro.apps import ALL_APPLICATIONS
from repro.frontend.lexer import tokenize
from repro.scenarios.registry import SCENARIOS

REGRESSION_DIR = os.path.join(os.path.dirname(__file__), "regressions")

#: what the scanner accepts beyond the paper's syntax, so that it stays accepted
QUIRKS = (
    "int \u00e9t\u00e9 = \u0663 + 1_000 + 32w; // a comment\n"
    "/* a * block ** comment */ x = 0XfF | 0b101 << 10ms >> 2us;\n"
    'printf("a // string /* too */"); y = a<=b&&c||!d; z = 7ns + 1s;/**/\n'
)


def sources():
    """``{label: source text}``: the ten apps, the regression corpus and the
    program of every registered scenario, plus :data:`QUIRKS`."""
    out = {f"app:{key}": app.source for key, app in ALL_APPLICATIONS.items()}
    for path in sorted(glob.glob(os.path.join(REGRESSION_DIR, "*.json"))):
        with open(path) as handle:
            case = json.load(handle)
        out[f"regression:{case['name']}"] = case["source"]
    for name in sorted(SCENARIOS):
        out[f"scenario:{name}"] = ALL_APPLICATIONS[SCENARIOS[name].app_key].source
    out["quirks"] = QUIRKS
    return out


def token_summary(text):
    tokens = tokenize(text)
    rows = [(t.kind.name, t.text, t.span.start, t.span.end, t.value) for t in tokens]
    return {"tokens": len(tokens),
            "sha256": hashlib.sha256(repr(rows).encode()).hexdigest()}


if __name__ == "__main__":
    print(json.dumps({label: token_summary(text) for label, text in sources().items()},
                     indent=2))
