"""What the compiler emits for the ten applications, for pinning against a golden.

Public API only (``Application.compile`` and :class:`CompiledProgram`), so the
same recorder runs against any checkout.  Regenerate
``tests/golden/p4_sha256.json`` only from a tree whose P4 you trust::

    PYTHONPATH=src:tests python -m p4_golden_recorder > tests/golden/p4_sha256.json
"""

import hashlib
import json

from repro.apps import ALL_APPLICATIONS


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def p4_summary(compiled):
    return {
        "stages": compiled.stages(),
        "p4_loc": compiled.p4_loc(),
        "naive_p4_loc": compiled.naive_p4_loc(),
        "p4_sha256": _sha256(compiled.p4.full_text()),
        "naive_p4_sha256": _sha256(compiled.naive_p4.full_text()),
    }


if __name__ == "__main__":
    golden = {key: p4_summary(app.compile(emit_naive_p4=True))
              for key, app in ALL_APPLICATIONS.items()}
    print(json.dumps(golden, indent=2))
