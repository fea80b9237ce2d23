"""Constant pool decoding and symbolic rendering of pool entries."""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple, TypeVar

from ..errors import MalformedClassFile

T = TypeVar("T")

CONST_UTF8 = 1
CONST_INTEGER = 3
CONST_FLOAT = 4
CONST_LONG = 5
CONST_DOUBLE = 6
CONST_CLASS = 7
CONST_STRING = 8
CONST_FIELDREF = 9
CONST_METHODREF = 10
CONST_INTERFACE_METHODREF = 11
CONST_NAME_AND_TYPE = 12
CONST_METHOD_HANDLE = 15
CONST_METHOD_TYPE = 16
CONST_INVOKE_DYNAMIC = 18

TAG_NAMES = {
    CONST_UTF8: "Utf8",
    CONST_INTEGER: "Integer",
    CONST_FLOAT: "Float",
    CONST_LONG: "Long",
    CONST_DOUBLE: "Double",
    CONST_CLASS: "Class",
    CONST_STRING: "String",
    CONST_FIELDREF: "Fieldref",
    CONST_METHODREF: "Methodref",
    CONST_INTERFACE_METHODREF: "InterfaceMethodref",
    CONST_NAME_AND_TYPE: "NameAndType",
    CONST_METHOD_HANDLE: "MethodHandle",
    CONST_METHOD_TYPE: "MethodType",
    CONST_INVOKE_DYNAMIC: "InvokeDynamic",
}

# what a member reference operand must name -> the entry kinds that qualify
MEMBER_KINDS = {
    "a member reference": (CONST_FIELDREF, CONST_METHODREF, CONST_INTERFACE_METHODREF),
    "a method reference": (CONST_METHODREF, CONST_INTERFACE_METHODREF),
    "Fieldref": (CONST_FIELDREF,),
}


class ConstantEntry(NamedTuple):
    """One constant pool slot: a tag plus its decoded payload.

    Payloads are kept raw (indices unresolved); ``ConstantPool`` methods
    resolve and validate them on demand.
    """

    tag: int
    value: object


def _field(fmt: str):
    """A :class:`ByteReader` method that reads one big-endian ``fmt`` value."""
    unpack = struct.Struct(fmt).unpack_from
    size = struct.calcsize(fmt)

    def read(self: ByteReader):
        pos = self.pos
        if pos + size > len(self.data):
            raise self.fail("truncated class file")
        self.pos = pos + size
        return unpack(self.data, pos)[0]
    return read


class ByteReader:
    """Big-endian cursor over class file bytes.

    ``base`` is the file offset of ``data``'s first byte, so a reader over
    an attribute payload reports its failures at file offsets.
    """

    def __init__(self, data: bytes, source: str | None = None, base: int = 0):
        self.data = data
        self.pos = 0
        self.source = source
        self.base = base

    def fail(self, message: str, offset: int | None = None) -> MalformedClassFile:
        return MalformedClassFile(
            message, self.base + (self.pos if offset is None else offset), self.source)

    u1 = _field(">B")
    u2 = _field(">H")
    u4 = _field(">I")
    s2 = _field(">h")
    s4 = _field(">i")
    s8 = _field(">q")
    f4 = _field(">f")
    f8 = _field(">d")

    def raw(self, n: int) -> bytes:
        pos = self.pos
        if pos + n > len(self.data):
            raise self.fail("truncated class file")
        self.pos = pos + n
        return self.data[pos:pos + n]

    def s4s(self, count: int) -> tuple[int, ...]:
        """``count`` consecutive s4 values."""
        return struct.unpack(f">{count}i", self.raw(4 * count))

    def ref(self, lookup: Callable[[int], T]) -> T:
        """Read a u2 constant pool index and resolve it with ``lookup``.

        A bad reference is reported at the file offset of the index.
        """
        at = self.pos
        index = self.u2()
        try:
            return lookup(index)
        except MalformedClassFile as exc:
            raise self.fail(exc.reason, at) from exc


class ConstantPool:
    """The indexed constant pool of one class file.

    Slot 0 and the shadow slots after Long/Double entries hold ``None``.
    All lookups validate the index and the expected entry kind; a bad
    reference raises :class:`MalformedClassFile`.
    """

    def __init__(self, entries: list[ConstantEntry | None], source: str | None = None):
        self.entries = entries
        self.source = source

    def entry(self, index: int, tag: int | None = None) -> ConstantEntry:
        if index <= 0 or index >= len(self.entries) or self.entries[index] is None:
            raise MalformedClassFile(f"invalid constant pool index {index}", 0, self.source)
        got = self.entries[index]
        if tag is not None and got.tag != tag:
            raise MalformedClassFile(
                f"constant pool index {index} holds {TAG_NAMES.get(got.tag, got.tag)},"
                f" expected {TAG_NAMES[tag]}", 0, self.source)
        return got

    def utf8(self, index: int) -> str:
        return self.entry(index, CONST_UTF8).value

    def class_name(self, index: int) -> str:
        return self.utf8(self.entry(index, CONST_CLASS).value)

    def name_and_type(self, index: int) -> tuple[str, str]:
        name_idx, desc_idx = self.entry(index, CONST_NAME_AND_TYPE).value
        return self.utf8(name_idx), self.utf8(desc_idx)

    def member_ref(self, index: int, expected: str = "a member reference") -> tuple[str, str, str]:
        """Resolve an entry of a ``MEMBER_KINDS[expected]`` kind to (class, name, descriptor)."""
        got = self.entry(index)
        if got.tag not in MEMBER_KINDS[expected]:
            raise MalformedClassFile(
                f"constant pool index {index} holds {TAG_NAMES.get(got.tag, got.tag)},"
                f" expected {expected}", 0, self.source)
        class_idx, nat_idx = got.value
        name, desc = self.name_and_type(nat_idx)
        return self.class_name(class_idx), name, desc

    def invoke_dynamic(self, index: int) -> tuple[int, str, str]:
        """Resolve an InvokeDynamic entry to (bootstrap index, name, descriptor)."""
        bsm_idx, nat_idx = self.entry(index, CONST_INVOKE_DYNAMIC).value
        name, desc = self.name_and_type(nat_idx)
        return bsm_idx, name, desc

    def render(self, index: int) -> str:
        """Human-readable text for a loadable or referenced pool entry."""
        got = self.entry(index)
        tag = got.tag
        if tag == CONST_UTF8:
            return got.value
        if tag == CONST_INTEGER:
            return str(got.value)
        if tag == CONST_LONG:
            return f"{got.value}L"
        if tag == CONST_FLOAT:
            return f"{got.value!r}f"
        if tag == CONST_DOUBLE:
            return f"{got.value!r}d"
        if tag == CONST_CLASS:
            return self.class_name(index)
        if tag == CONST_STRING:
            return quote_string(self.utf8(got.value))
        if tag == CONST_FIELDREF:
            cls, name, desc = self.member_ref(index)
            return f"{cls}.{name}:{desc}"
        if tag in (CONST_METHODREF, CONST_INTERFACE_METHODREF):
            cls, name, desc = self.member_ref(index)
            return f"{cls}.{name}{desc}"
        if tag == CONST_NAME_AND_TYPE:
            name, desc = self.name_and_type(index)
            return f"{name}:{desc}"
        if tag == CONST_METHOD_TYPE:
            return self.utf8(got.value)
        if tag == CONST_METHOD_HANDLE:
            kind, ref_idx = got.value
            return f"handle[{kind}] {self.render(ref_idx)}"
        if tag == CONST_INVOKE_DYNAMIC:
            bsm_idx, name, desc = self.invoke_dynamic(index)
            return f"indy[{bsm_idx}] {name}{desc}"
        raise MalformedClassFile(f"unrenderable constant tag {tag}", 0, self.source)

    def validate(self) -> None:
        """Eagerly resolve every cross-reference in the pool."""
        for index, got in enumerate(self.entries):
            if got is None:
                continue
            if got.tag in (CONST_CLASS, CONST_STRING, CONST_METHOD_TYPE):
                self.utf8(got.value)
            elif got.tag in (CONST_FIELDREF, CONST_METHODREF, CONST_INTERFACE_METHODREF):
                self.member_ref(index)
            elif got.tag == CONST_NAME_AND_TYPE:
                self.name_and_type(index)
            elif got.tag == CONST_METHOD_HANDLE:
                self.member_ref(got.value[1])
            elif got.tag == CONST_INVOKE_DYNAMIC:
                _, nat_idx = got.value
                self.name_and_type(nat_idx)


def quote_string(text: str) -> str:
    """Quote a string constant for listings, escaping the usual suspects."""
    escaped = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f'"{escaped}"'


def _decode_modified_utf8(raw: bytes) -> str:
    """The text of a Utf8 entry, in JVMS §4.4.7 modified UTF-8.

    Plain UTF-8 is tried first. Modified UTF-8 writes NUL as ``C0 80`` and
    each UTF-16 code unit as its own sequence, so a supplementary character
    arrives as two encoded surrogates; these are joined into one character,
    and an unpaired surrogate is kept. Raises UnicodeDecodeError for bytes
    that no encoder writes.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        units = raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
        return units.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def parse_constant_pool(reader: ByteReader) -> ConstantPool:
    """Decode the constant pool table at the reader's position."""
    count = reader.u2()
    entries: list[ConstantEntry | None] = [None]
    index = 1
    while index < count:
        start = reader.pos
        tag = reader.u1()
        if tag == CONST_UTF8:
            length = reader.u2()
            raw = reader.raw(length)
            try:
                text = _decode_modified_utf8(raw)
            except UnicodeDecodeError:
                raise reader.fail(
                    f"constant pool entry {index} is not modified UTF-8", start) from None
            entries.append(ConstantEntry(tag, text))
        elif tag == CONST_INTEGER:
            entries.append(ConstantEntry(tag, reader.s4()))
        elif tag == CONST_FLOAT:
            entries.append(ConstantEntry(tag, reader.f4()))
        elif tag == CONST_LONG:
            entries.append(ConstantEntry(tag, reader.s8()))
            entries.append(None)
            index += 1
        elif tag == CONST_DOUBLE:
            entries.append(ConstantEntry(tag, reader.f8()))
            entries.append(None)
            index += 1
        elif tag in (CONST_CLASS, CONST_STRING, CONST_METHOD_TYPE):
            entries.append(ConstantEntry(tag, reader.u2()))
        elif tag in (CONST_FIELDREF, CONST_METHODREF, CONST_INTERFACE_METHODREF,
                     CONST_NAME_AND_TYPE, CONST_INVOKE_DYNAMIC):
            entries.append(ConstantEntry(tag, (reader.u2(), reader.u2())))
        elif tag == CONST_METHOD_HANDLE:
            entries.append(ConstantEntry(tag, (reader.u1(), reader.u2())))
        else:
            raise reader.fail(f"unknown constant pool tag {tag}", start)
        index += 1
    pool = ConstantPool(entries, reader.source)
    try:
        pool.validate()
    except MalformedClassFile as exc:
        raise reader.fail(exc.reason) from exc
    return pool
