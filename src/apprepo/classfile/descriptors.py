"""Method and field descriptor grammar."""

from __future__ import annotations

from ..errors import MalformedDescriptor

BASE_TYPES = {
    "B": "byte",
    "C": "char",
    "D": "double",
    "F": "float",
    "I": "int",
    "J": "long",
    "S": "short",
    "Z": "boolean",
}


def _parse_type(text: str, pos: int) -> tuple[str, int]:
    """Parse one field type starting at ``pos``; returns (rendered type, next pos)."""
    if pos >= len(text):
        raise MalformedDescriptor("unexpected end of descriptor", pos)
    ch = text[pos]
    if ch in BASE_TYPES:
        return BASE_TYPES[ch], pos + 1
    if ch == "L":
        end = text.find(";", pos + 1)
        if end < 0:
            raise MalformedDescriptor("unterminated object type", pos)
        name = text[pos + 1:end]
        if not name:
            raise MalformedDescriptor("empty object type name", pos)
        return name, end + 1
    if ch == "[":
        dims = 0
        while pos < len(text) and text[pos] == "[":
            dims += 1
            pos += 1
        element, pos = _parse_type(text, pos)
        return element + "[]" * dims, pos
    raise MalformedDescriptor(f"invalid type tag {ch!r}", pos)


def parse_descriptor(text: str) -> tuple[list[str], str]:
    """Decode a method descriptor into (parameter types, return type).

    Types come back human-readably: base types by name (``int``),
    object types as internal names (``java/lang/String``) and arrays
    with ``[]`` suffixes.
    """
    if not text:
        raise MalformedDescriptor("empty descriptor", 0)
    if text[0] != "(":
        raise MalformedDescriptor("descriptor must start with '('", 0)
    pos = 1
    params: list[str] = []
    while pos < len(text) and text[pos] != ")":
        param, pos = _parse_type(text, pos)
        params.append(param)
    if pos >= len(text):
        raise MalformedDescriptor("missing ')'", pos)
    pos += 1
    if pos >= len(text):
        raise MalformedDescriptor("missing return type", pos)
    if text[pos] == "V":
        ret, pos = "void", pos + 1
    else:
        ret, pos = _parse_type(text, pos)
    if pos != len(text):
        raise MalformedDescriptor("trailing characters after return type", pos)
    return params, ret


def parse_field_descriptor(text: str) -> str:
    """Decode a field descriptor into its type, rendered as
    :func:`parse_descriptor` renders a parameter type."""
    rendered, pos = _parse_type(text, 0)
    if pos != len(text):
        raise MalformedDescriptor("trailing characters after field type", pos)
    return rendered
