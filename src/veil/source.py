"""Source files, spans and diagnostics."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class Span:
    """Half-open character range [start, end) into a source text."""

    start: int
    end: int

    def __post_init__(self):
        assert 0 <= self.start <= self.end

    def merge(self, other: "Span") -> "Span":
        return Span(min(self.start, other.start), max(self.end, other.end))

    @property
    def length(self) -> int:
        return self.end - self.start


class SourceFile:
    """A contract source with precomputed line offsets for diagnostics."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.line_index = self._index_lines(text)

    @staticmethod
    def _index_lines(text: str) -> List[int]:
        index = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                index.append(i + 1)
        return index

    @classmethod
    def load(cls, path: str) -> "SourceFile":
        with open(path, "r", encoding="utf-8") as f:
            return cls(path, f.read())

    def line_col(self, offset: int) -> tuple:
        """1-based (line, column) of a character offset; EOF maps past the last char."""
        offset = min(offset, len(self.text))
        lo, hi = 0, len(self.line_index) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_index[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self.line_index[lo] + 1

    def line_text(self, line: int) -> str:
        start = self.line_index[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]


ERROR = "error"
WARNING = "warning"


@dataclass
class Diagnostic:
    severity: str
    code: str
    span: Span
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR


def render_diagnostic(d: Diagnostic, source: SourceFile) -> str:
    """Render `path:line:col: severity: message` plus the offending line and a caret."""
    line, col = source.line_col(d.span.start)
    header = f"{source.path}:{line}:{col}: {d.severity}: {d.message}"
    if line <= len(source.line_index):
        text = source.line_text(line)
        width = max(1, min(d.span.length, len(text) - (col - 1))) if d.span.length else 1
        marker = " " * (col - 1) + "^" + "~" * (width - 1)
        return f"{header}\n{text}\n{marker}"
    return header


def render_all(diags: List[Diagnostic], source: SourceFile) -> str:
    return "\n".join(render_diagnostic(d, source) for d in diags)


class CompileError(Exception):
    """Raised when a stage produces error diagnostics."""

    def __init__(self, diagnostics: List[Diagnostic], source: Optional[SourceFile] = None):
        self.diagnostics = diagnostics
        self.source = source
        if source is not None:
            msg = "\n".join(render_diagnostic(d, source) for d in diagnostics)
        else:
            msg = "; ".join(d.message for d in diagnostics)
        super().__init__(msg)


@dataclass
class DiagnosticSink:
    """Ordered diagnostic collector used by every analysis stage."""

    items: List[Diagnostic] = field(default_factory=list)

    def error(self, code: str, span: Span, message: str):
        self.items.append(Diagnostic(ERROR, code, span, message))

    def warning(self, code: str, span: Span, message: str):
        self.items.append(Diagnostic(WARNING, code, span, message))

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.items if d.is_error]

    def raise_if_errors(self, source: Optional[SourceFile] = None):
        if self.errors:
            raise CompileError(self.items, source)
