"""Byte-deterministic XML writing, and the one XML document reader.

The standard library writer reorders nothing, but spelling out our own
emitter keeps attribute order, indentation, escaping and the declaration
line under this package's control, which the persistence round-trip
guarantees depend on.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from .errors import SchemaViolation

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

# the characters outside XML 1.0's Char production: C0 controls other than
# tab, newline and carriage return, surrogates, U+FFFE and U+FFFF (listed,
# not negated: the negated class over the whole range is slow to compile)
_NON_XML = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_NON_XML_CHAR = re.compile(f"[{_NON_XML}]")

# a run of characters that escape_attr writes as they are
_LITERAL = f'[^"&<>\t\n\r{_NON_XML}]*+'
# an attribute value (without its quotes) exactly as escape_attr spells it:
# literal characters and its seven references only. Each text has one such
# spelling, and each spelling reads as that text; a tree reader reads a
# literal tab or newline as a space, so neither is literal here.
ESCAPED_VALUE = f"{_LITERAL}(?:&(?:amp|lt|gt|quot|#10|#13|#9);{_LITERAL})*+"


def escape_attr(value: str) -> str:
    """Escape an attribute value, preserving tabs/newlines as char refs.

    ``& < > "`` become entity references, ``\\n \\r \\t`` numeric character
    references, and every other character is kept as it is. Each
    ``str.replace`` is one pass in C that returns the text itself when it
    holds no such character. ``&`` goes first, so the references the
    later passes write are not escaped again.
    """
    return (value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))


def unescape_attr(value: str) -> str:
    """The text of a value matching :data:`ESCAPED_VALUE`, the inverse of
    :func:`escape_attr` (``&amp;`` goes last, so ``&amp;lt;`` gives ``&lt;``)."""
    if "&" not in value:
        return value
    return (value.replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", '"')
            .replace("&#10;", "\n").replace("&#13;", "\r").replace("&#9;", "\t")
            .replace("&amp;", "&"))


def non_xml_char(text: str) -> str | None:
    """The first character of ``text`` that no XML 1.0 document can
    carry, not even as a character reference, or None if there is none."""
    found = _NON_XML_CHAR.search(text)
    return found.group() if found else None


def check_xml_text(text: str, what: str) -> None:
    """Raise :class:`SchemaViolation` if ``text``, the value of ``what``,
    holds a character that XML 1.0 cannot carry, naming the first one."""
    ch = non_xml_char(text)
    if ch is not None:
        held = ("an unpaired surrogate" if "\ud800" <= ch <= "\udfff"
                else f"character U+{ord(ch):04X}")
        raise SchemaViolation(f"{what} {text!r} holds {held}, which XML 1.0 cannot carry")


def read_document(doc: bytes | str, root_tag: str,
                  error: type[Exception]) -> ET.Element:
    """Parse an XML document whose root element must be ``<root_tag>``.

    Malformed XML, and a declared encoding that Python cannot decode with
    (``LookupError`` for an unknown or non-text codec, ``ValueError`` for
    a multi-byte or failing one), raise ``error`` with the message.
    """
    try:
        root = ET.fromstring(doc)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise error(f"not well-formed XML: {exc}") from exc
    if root.tag != root_tag:
        raise error(f"root element must be <{root_tag}>, got <{root.tag}>")
    return root


class XmlWriter:
    """Accumulates an indented XML document and renders it as UTF-8 bytes.

    An attribute value holding a character that XML 1.0 cannot carry
    raises :class:`SchemaViolation`, for the document would not read back.
    """

    def __init__(self):
        self._lines = [XML_DECLARATION.rstrip("\n")]
        self._stack: list[str] = []

    def _fmt(self, tag: str, attrs: list[tuple[str, str]] | None) -> str:
        parts = [tag]
        for name, value in attrs or []:
            check_xml_text(value, f"<{tag}> attribute {name}")
            parts.append(f'{name}="{escape_attr(value)}"')
        return " ".join(parts)

    def open(self, tag: str, attrs: list[tuple[str, str]] | None = None) -> None:
        indent = "  " * len(self._stack)
        self._lines.append(f"{indent}<{self._fmt(tag, attrs)}>")
        self._stack.append(tag)

    def close(self) -> None:
        tag = self._stack.pop()
        indent = "  " * len(self._stack)
        self._lines.append(f"{indent}</{tag}>")

    def leaf(self, tag: str, attrs: list[tuple[str, str]] | None = None) -> None:
        indent = "  " * len(self._stack)
        self._lines.append(f"{indent}<{self._fmt(tag, attrs)}/>")

    def element(self, tag: str, attrs: list[tuple[str, str]] | None,
                has_children: bool) -> None:
        if has_children:
            self.open(tag, attrs)
        else:
            self.leaf(tag, attrs)

    def tobytes(self) -> bytes:
        assert not self._stack, "unclosed elements"
        return ("\n".join(self._lines) + "\n").encode("utf-8")
