"""Source-text management: files, positions, and spans.

Everything the frontend reports back to the programmer is anchored to a
:class:`Span`, which knows how to render a caret-annotated snippet.  This is
the substrate for the paper's "source-level error messages that tell us
exactly what is wrong" (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional


@dataclass(frozen=True)
class SourceFile:
    """A unit of Lucid source text.

    Parameters
    ----------
    name:
        A display name, e.g. a file path or ``"<string>"``.
    text:
        The full program text.
    """

    name: str
    text: str

    @property
    def line_starts(self) -> List[int]:
        """Offsets of the first character of every line (computed lazily)."""
        starts = [0]
        for i, ch in enumerate(self.text):
            if ch == "\n":
                starts.append(i + 1)
        return starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """Translate a character offset into a 1-based (line, column) pair."""
        offset = max(0, min(offset, len(self.text)))
        starts = self.line_starts
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - starts[lo] + 1

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line number (without newline)."""
        starts = self.line_starts
        if line < 1 or line > len(starts):
            return ""
        begin = starts[line - 1]
        end = self.text.find("\n", begin)
        if end == -1:
            end = len(self.text)
        return self.text[begin:end]

    def __deepcopy__(self, memo) -> "SourceFile":
        return self  # immutable: a copied AST shares its source text


class Span(NamedTuple):
    """A half-open range ``[start, end)`` of characters in a source file."""

    source: SourceFile
    start: int
    end: int

    def __deepcopy__(self, memo) -> "Span":
        return self

    @property
    def line(self) -> int:
        return self.source.line_col(self.start)[0]

    @property
    def column(self) -> int:
        return self.source.line_col(self.start)[1]

    @property
    def text(self) -> str:
        return self.source.text[self.start : self.end]

    def merge(self, other: Optional["Span"]) -> "Span":
        """Return the smallest span covering both ``self`` and ``other``."""
        if other is None:
            return self
        return Span(self.source, min(self.start, other.start), max(self.end, other.end))

    def render(self, context: int = 0) -> str:
        """Render a caret-annotated snippet pointing at this span."""
        line, col = self.source.line_col(self.start)
        end_line, end_col = self.source.line_col(max(self.start, self.end - 1))
        lines = []
        lines.append(f"  --> {self.source.name}:{line}:{col}")
        first = max(1, line - context)
        last = min(len(self.source.line_starts), end_line + context)
        width = len(str(last))
        for ln in range(first, last + 1):
            text = self.source.line_text(ln)
            lines.append(f"  {str(ln).rjust(width)} | {text}")
            if ln == line:
                if end_line == line:
                    n_carets = max(1, end_col - col + 1)
                else:
                    n_carets = max(1, len(text) - col + 1)
                lines.append("  " + " " * width + " | " + " " * (col - 1) + "^" * n_carets)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line, col = self.source.line_col(self.start)
        return f"Span({self.source.name}:{line}:{col})"


def dummy_span(text: str = "") -> Span:
    """A span for synthesised nodes that have no real source location."""
    src = SourceFile("<generated>", text)
    return Span(src, 0, len(text))
