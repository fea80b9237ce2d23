"""Per-version source metrics: classes, LOC, widgets, windows.

LOC counts every line that is neither blank nor comment-only; a line
carrying both code and a comment counts as code. The comment syntax is
``//`` line comments and ``/* */`` block comments, with comment markers
inside string or character literals left alone. A literal ends at its
closing quote or at any line break of ``str.splitlines``; a block
comment never closed runs to the end of the text.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import date
from pathlib import Path
from stat import S_IFDIR
from typing import NamedTuple

from .callgraph import ClassHierarchy
from .containers import exists_as
from .errors import IoFailure, UnsortedInput
from .guimodel import GuiModel

# the suffix of the source files LOC counting reads and classes pair with
JAVA_SUFFIX = ".java"

CSV_HEADER = ["version", "timestamp", "classes", "loc", "widgets", "windows"]
TABLE_COLUMNS = ["Version", "CVS Timestamp", "Classes", "LOC", "Widgets", "Windows"]


class VersionMetrics(NamedTuple):
    """The four per-version counts plus identifying label and date."""

    version_label: str
    timestamp: date
    classes: int
    loc: int
    widgets: int
    windows: int


_BREAK = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # the line breaks of str.splitlines
_BREAKS = frozenset(_BREAK)
# a block comment, to the end of the text if never closed; a line comment;
# or a string or char literal with its escapes, to the end of its line if
# never closed. re compiles it on the first count, not on import.
_COMMENT_OR_LITERAL = (rf"(/\*(?s:.*?)(?:\*/|\Z)|//[^{_BREAK}]*)"
                       rf'|"(?:[^"\\{_BREAK}]|\\[^{_BREAK}])*"?'
                       rf"|'(?:[^'\\{_BREAK}]|\\[^{_BREAK}])*'?")


def holds_line_break(text: str) -> bool:
    """Whether ``text`` holds a line break of ``str.splitlines``. A version
    label must not: :func:`version_table` prints each row on one line."""
    return not _BREAKS.isdisjoint(text)


def _code_only(match: re.Match) -> str:
    """A comment's line breaks, or one code character for a literal."""
    comment = match[1]
    return "x" if comment is None else "\n" * (len(comment.splitlines()) - 1)


def count_loc_text(text: str) -> int:
    """Count the non-blank, non-comment-only lines of one source text."""
    code = re.sub(_COMMENT_OR_LITERAL, _code_only, text)
    return sum(1 for line in code.splitlines() if line and not line.isspace())


def count_loc(sources_dir: Path | str) -> int:
    """Sum of per-file LOC over all ``.java`` sources under a directory."""
    root = Path(sources_dir)
    if not exists_as(root, S_IFDIR):
        raise IoFailure(f"not a readable directory: {root}")
    total = 0
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.suffix == JAVA_SUFFIX:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                raise IoFailure(f"cannot read {path}: {exc}") from exc
            total += count_loc_text(text)
    return total


def count_classes(hierarchy: ClassHierarchy) -> int:
    """Number of distinct classes the application partition provides.

    Library and framework classes never enter the count, and a class that
    several application containers provide counts once.
    """
    return sum(1 for flags in hierarchy.origins.values() if flags[2])


def version_metrics(label: str, timestamp: date, hierarchy: ClassHierarchy,
                    sources_dir: Path | None, model: GuiModel | None) -> VersionMetrics:
    """The metrics row of one version.

    A version without sources counts 0 LOC, and one without a GUI model
    0 widgets and 0 windows.
    """
    loc = count_loc(sources_dir) if sources_dir is not None else 0
    widgets, windows = model.counts() if model is not None else (0, 0)
    return VersionMetrics(label, timestamp, count_classes(hierarchy), loc, widgets, windows)


def _check_sorted(rows: list[VersionMetrics]) -> None:
    for earlier, later in zip(rows, rows[1:]):
        if later.timestamp < earlier.timestamp:
            raise UnsortedInput(
                f"rows not sorted by timestamp: {later.version_label}"
                f" ({later.timestamp}) after {earlier.version_label}"
                f" ({earlier.timestamp})")


def _table_timestamp(ts: date) -> str:
    return f"{ts.day:02d}.{ts.month:02d}.{ts.year:04d}"


def version_table(rows: list[VersionMetrics]) -> str:
    """Aligned text table of the version history, one row per version.

    Rows must already be sorted by timestamp. Output is byte-deterministic
    for a fixed input.
    """
    _check_sorted(rows)
    cells = [TABLE_COLUMNS] + [[row.version_label, _table_timestamp(row.timestamp),
                                *map(str, row[2:])] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    # text columns left-aligned, counts right-aligned, headers left-aligned
    lines = [" | ".join(cell.rjust(width) if index and column > 1 else cell.ljust(width)
                        for column, (cell, width) in enumerate(zip(line, widths))).rstrip()
             for index, line in enumerate(cells)]
    lines.insert(1, "-+-".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def version_csv(rows: list[VersionMetrics]) -> str:
    """RFC-4180 CSV variant of the version table."""
    _check_sorted(rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(CSV_HEADER)
    writer.writerows((row.version_label, row.timestamp.isoformat(), *row[2:]) for row in rows)
    return out.getvalue()


def parse_version_csv(text: str) -> list[VersionMetrics]:
    """Read back rows written by version_csv.

    A malformed document, row, date or count raises :class:`IoFailure`,
    a negative count too: a :class:`VersionMetrics` built directly is not checked.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise IoFailure(f"malformed metrics CSV: {exc}") from None
    if not rows or rows[0] != CSV_HEADER:
        raise IoFailure(f"unexpected metrics CSV header: {rows[:1]!r}")
    out = []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise IoFailure(f"malformed metrics CSV row: {row!r}")
        try:
            parsed = VersionMetrics(row[0], date.fromisoformat(row[1]), *map(int, row[2:]))
            for field, count in zip(CSV_HEADER[2:], parsed[2:]):
                if count < 0:
                    raise ValueError(f"{field} must be non-negative")
        except ValueError as exc:
            raise IoFailure(f"malformed metrics CSV row {row!r}: {exc}") from None
        out.append(parsed)
    return out
