"""Constant pool decoding and symbolic rendering of pool entries."""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple, TypeVar

from ..errors import MalformedClassFile

T = TypeVar("T")
_new = tuple.__new__

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
    "Methodref": (CONST_METHODREF,),
    "InterfaceMethodref": (CONST_INTERFACE_METHODREF,),
}

# MethodHandle reference_kind -> what it must name (JVMS §4.4.8), a MEMBER_KINDS key
_HANDLE_KINDS = {**dict.fromkeys((1, 2, 3, 4), "Fieldref"), 5: "Methodref",
                 6: "a method reference", 7: "a method reference", 8: "Methodref",
                 9: "InterfaceMethodref"}

# tag -> listing text of an entry's resolved value (a tuple fills the fields)
_RENDERINGS = {
    CONST_INTEGER: "{}", CONST_LONG: "{}L", CONST_FLOAT: "{!r}f", CONST_DOUBLE: "{!r}d",
    CONST_FIELDREF: "{}.{}:{}", CONST_METHODREF: "{}.{}{}",
    CONST_INTERFACE_METHODREF: "{}.{}{}", CONST_NAME_AND_TYPE: "{}:{}",
    CONST_INVOKE_DYNAMIC: "indy[{}] {}{}",
}


class ConstantEntry(NamedTuple):
    """One constant pool slot: a tag plus its resolved value.

    Utf8, Integer, Float, Long and Double hold their value; Class, String
    and MethodType the text they name; NameAndType ``(name, descriptor)``;
    Fieldref, Methodref and InterfaceMethodref ``(class, name,
    descriptor)``; InvokeDynamic ``(bootstrap index, name, descriptor)``.
    MethodHandle keeps ``(kind, index)``, its index naming a member
    reference of a kind that its reference kind allows.
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
    """The indexed, resolved constant pool of one class file.

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
        return self.entry(index, CONST_CLASS).value

    def name_and_type(self, index: int) -> tuple[str, str]:
        return self.entry(index, CONST_NAME_AND_TYPE).value

    def member_ref(self, index: int, expected: str = "a member reference") -> tuple[str, str, str]:
        """The (class, name, descriptor) of an entry of a ``MEMBER_KINDS[expected]`` kind."""
        got = self.entry(index)
        if got.tag not in MEMBER_KINDS[expected]:
            raise MalformedClassFile(
                f"constant pool index {index} holds {TAG_NAMES.get(got.tag, got.tag)},"
                f" expected {expected}", 0, self.source)
        return got.value

    def invoke_dynamic(self, index: int) -> tuple[int, str, str]:
        """The (bootstrap index, name, descriptor) of an InvokeDynamic entry."""
        return self.entry(index, CONST_INVOKE_DYNAMIC).value

    def render(self, index: int) -> str:
        """Human-readable text for a loadable or referenced pool entry."""
        tag, value = self.entry(index)
        if tag in (CONST_UTF8, CONST_CLASS, CONST_METHOD_TYPE):
            return value
        if tag == CONST_STRING:
            return quote_string(value)
        if tag == CONST_METHOD_HANDLE:
            return f"handle[{value[0]}] {self.render(value[1])}"
        if isinstance(value, tuple):
            return _RENDERINGS[tag].format(*value)
        return _RENDERINGS[tag].format(value)

    def _resolve(self, tag: int, value) -> object:
        """The final value of an entry read as ``value`` (see ConstantEntry).

        The entries it names must be resolved already: Class and
        NameAndType before the member references and InvokeDynamic entries
        that name them. A MethodHandle needs only the kind of its entry.
        """
        if tag in (CONST_CLASS, CONST_STRING, CONST_METHOD_TYPE):
            return self.utf8(value)
        if tag == CONST_NAME_AND_TYPE:
            return self.utf8(value[0]), self.utf8(value[1])
        if tag == CONST_METHOD_HANDLE:
            kind, index = value
            self.member_ref(index)
            if kind not in _HANDLE_KINDS:
                raise MalformedClassFile(f"invalid MethodHandle kind {kind}", 0, self.source)
            self.member_ref(index, _HANDLE_KINDS[kind])
            return value
        name, desc = self.name_and_type(value[1])
        if tag == CONST_INVOKE_DYNAMIC:
            return value[0], name, desc
        return self.class_name(value[0]), name, desc


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


# tag -> (struct of the entry after its tag byte, pool slots it takes);
# Utf8, whose length comes first, is read apart
_LAYOUTS = {tag: (struct.Struct(fmt), slots) for tag, fmt, slots in [
    (CONST_INTEGER, ">i", 1), (CONST_FLOAT, ">f", 1), (CONST_LONG, ">q", 2),
    (CONST_DOUBLE, ">d", 2), (CONST_CLASS, ">H", 1), (CONST_STRING, ">H", 1),
    (CONST_METHOD_TYPE, ">H", 1), (CONST_FIELDREF, ">HH", 1),
    (CONST_METHODREF, ">HH", 1), (CONST_INTERFACE_METHODREF, ">HH", 1),
    (CONST_NAME_AND_TYPE, ">HH", 1), (CONST_METHOD_HANDLE, ">BH", 1),
    (CONST_INVOKE_DYNAMIC, ">HH", 1),
]}

# the kinds resolved by each step, in order: the first names only Utf8
# entries, the second only kinds the first resolved, but for a handle,
# which needs only the kind of the entry it names
_RESOLUTION_STEPS = (
    frozenset((CONST_CLASS, CONST_STRING, CONST_METHOD_TYPE, CONST_NAME_AND_TYPE)),
    frozenset((CONST_FIELDREF, CONST_METHODREF, CONST_INTERFACE_METHODREF,
               CONST_INVOKE_DYNAMIC, CONST_METHOD_HANDLE)),
)


def parse_constant_pool(reader: ByteReader) -> ConstantPool:
    """Read the constant pool table at the reader's position and resolve it.

    A bad reference is reported at the file offset of the entry that holds it.
    """
    count = reader.u2()
    entries: list[ConstantEntry | None] = [None]
    starts = [0]  # the file offset of each slot's entry
    unresolved = []  # the index of each entry that is not Utf8
    while len(entries) < count:
        start = reader.pos
        starts.append(start)
        tag = reader.u1()
        if tag == CONST_UTF8:
            raw = reader.raw(reader.u2())
            try:
                entries.append(_new(ConstantEntry, (tag, _decode_modified_utf8(raw))))
            except UnicodeDecodeError:
                raise reader.fail(f"constant pool entry {len(entries)} is not modified UTF-8",
                                  start) from None
            continue
        if tag not in _LAYOUTS:
            raise reader.fail(f"unknown constant pool tag {tag}", start)
        layout, slots = _LAYOUTS[tag]
        value = layout.unpack(reader.raw(layout.size))
        unresolved.append(len(entries))
        entries.append(_new(ConstantEntry, (tag, value[0] if len(value) == 1 else value)))
        if slots == 2:
            if len(entries) == count:
                raise reader.fail(f"constant pool entry {count - 1} is a {TAG_NAMES[tag]} in the"
                                  " last slot, which leaves no room for its second slot", start)
            entries.append(None)
            starts.append(start)
    pool = ConstantPool(entries, reader.source)
    for kinds in _RESOLUTION_STEPS:
        for index in unresolved:
            tag, value = entries[index]
            if tag in kinds:
                try:
                    entries[index] = _new(ConstantEntry, (tag, pool._resolve(tag, value)))
                except MalformedClassFile as exc:
                    raise reader.fail(exc.reason, starts[index]) from exc
    return pool
