"""Constant pool decoding and symbolic rendering of pool entries."""

from __future__ import annotations

import struct
from typing import NamedTuple

from ..errors import MalformedClassFile

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
CONST_DYNAMIC = 17
CONST_INVOKE_DYNAMIC = 18
CONST_MODULE = 19
CONST_PACKAGE = 20

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
    CONST_DYNAMIC: "Dynamic",
    CONST_INVOKE_DYNAMIC: "InvokeDynamic",
    CONST_MODULE: "Module",
    CONST_PACKAGE: "Package",
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

# the entries that name one Utf8 entry, and those that name a bootstrap method
_NAMES_UTF8 = (CONST_CLASS, CONST_STRING, CONST_METHOD_TYPE, CONST_MODULE, CONST_PACKAGE)
_DYNAMIC = (CONST_DYNAMIC, CONST_INVOKE_DYNAMIC)

# tag -> listing text of an entry's resolved value (a tuple fills the fields)
_RENDERINGS = {
    CONST_INTEGER: "{}", CONST_LONG: "{}L", CONST_FLOAT: "{!r}f", CONST_DOUBLE: "{!r}d",
    CONST_FIELDREF: "{}.{}:{}", CONST_METHODREF: "{}.{}{}",
    CONST_INTERFACE_METHODREF: "{}.{}{}", CONST_NAME_AND_TYPE: "{}:{}",
    CONST_DYNAMIC: "condy[{}] {}:{}", CONST_INVOKE_DYNAMIC: "indy[{}] {}{}",
}


class ConstantEntry(NamedTuple):
    """One constant pool slot: a tag plus its resolved value, made by
    :meth:`ConstantPool.entry` when it is asked for.

    Utf8, Integer, Float, Long and Double hold their value; Class, String,
    MethodType, Module and Package the text they name; NameAndType
    ``(name, descriptor)``; Fieldref, Methodref and InterfaceMethodref
    ``(class, name, descriptor)``; Dynamic and InvokeDynamic ``(bootstrap
    index, name, descriptor)``.
    MethodHandle keeps ``(kind, index)``, its index naming a member
    reference of a kind that its reference kind allows.
    """

    tag: int
    value: object


class ConstantPool:
    """The indexed, resolved constant pool of one class file, as two lists
    of one slot per index: ``tags`` and ``values``.

    ``values`` holds each entry's final value (see :class:`ConstantEntry`).
    Slot 0 and the slot after a Long or Double keep tag 0. Lookups validate
    the index and the expected entry kind, and a bad reference raises
    :class:`MalformedClassFile`; :meth:`entry` makes the entry it returns.
    ``gated`` holds the indices of the Dynamic, Module and Package entries
    in pool order: whether a class may hold them depends on its version
    and access flags, which the class file's reader checks.
    """

    def __init__(self, tags: list[int], values: list, source: str | None = None,
                 gated: tuple[int, ...] = ()):
        self.tags = tags
        self.values = values
        self.source = source
        self.gated = gated

    def entry(self, index: int, tag: int | None = None) -> ConstantEntry:
        tags = self.tags
        got = tags[index] if 0 < index < len(tags) else 0
        if not got:
            raise MalformedClassFile(f"invalid constant pool index {index}", 0, self.source)
        if tag is not None and got != tag:
            raise MalformedClassFile(
                f"constant pool index {index} holds {TAG_NAMES.get(got, got)},"
                f" expected {TAG_NAMES[tag]}", 0, self.source)
        return _new(ConstantEntry, (got, self.values[index]))

    def utf8(self, index: int) -> str:
        return self.entry(index, CONST_UTF8).value

    def class_name(self, index: int) -> str:
        return self.entry(index, CONST_CLASS).value

    def name_and_type(self, index: int) -> tuple[str, str]:
        return self.entry(index, CONST_NAME_AND_TYPE).value

    def member_ref(self, index: int, expected: str = "a member reference") -> tuple[str, str, str]:
        """The (class, name, descriptor) of an entry of a ``MEMBER_KINDS[expected]`` kind."""
        tags = self.tags
        if 0 < index < len(tags) and tags[index] in MEMBER_KINDS[expected]:
            return self.values[index]
        got = self.entry(index)  # raises for a bad index
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
        NameAndType before the member references, Dynamic and InvokeDynamic
        entries that name them. A MethodHandle needs only the kind of its entry.
        """
        if tag in _NAMES_UTF8:
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
        if tag in _DYNAMIC:
            return value[0], name, desc
        return self.class_name(value[0]), name, desc


def quote_string(text: str) -> str:
    """Quote a string constant for listings, escaping the usual suspects
    and each unpaired surrogate."""
    escaped = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f'"{escape_surrogates(escaped)}"'


def escape_surrogates(text: str) -> str:
    """``text`` with each surrogate written as ``\\uXXXX``, so that it encodes as
    UTF-8; the pool decoder joins each pair, so a surrogate left is unpaired."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _decode_modified_utf8(raw: bytes) -> str | None:
    """The text of a Utf8 entry that is not plain UTF-8, in JVMS §4.4.7
    modified UTF-8; None for bytes that no encoder writes.

    Modified UTF-8 writes NUL as ``C0 80`` and each UTF-16 code unit as its
    own sequence, so a supplementary character arrives as two encoded
    surrogates; these are joined into one character, and an unpaired
    surrogate is kept.
    """
    try:
        units = raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
        return units.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
    except UnicodeDecodeError:
        return None


# tag -> (unpack_from of the entry after its tag byte, its size, whether it
# holds one value, resolution step: 0 for a literal, 1 for an entry that
# names Utf8 entries, 2 for one that names entries of step 1, 3 and 4 for
# the gated entries resolved as in steps 1 and 2); Utf8, whose length
# comes first, is read apart
_LAYOUTS = {tag: (struct.Struct(fmt).unpack_from, struct.calcsize(fmt), len(fmt) == 2, step)
            for tag, fmt, step in [
    (CONST_INTEGER, ">i", 0), (CONST_FLOAT, ">f", 0), (CONST_LONG, ">q", 0),
    (CONST_DOUBLE, ">d", 0), (CONST_CLASS, ">H", 1), (CONST_STRING, ">H", 1),
    (CONST_METHOD_TYPE, ">H", 1), (CONST_NAME_AND_TYPE, ">HH", 1),
    (CONST_FIELDREF, ">HH", 2), (CONST_METHODREF, ">HH", 2),
    (CONST_INTERFACE_METHODREF, ">HH", 2), (CONST_METHOD_HANDLE, ">BH", 2),
    (CONST_INVOKE_DYNAMIC, ">HH", 2), (CONST_MODULE, ">H", 3), (CONST_PACKAGE, ">H", 3),
    (CONST_DYNAMIC, ">HH", 4),
]}

_TRUNCATED = "truncated class file"


def entry_offset(data: bytes, pos: int, index: int) -> int:
    """The offset in ``data`` of pool entry ``index``, in a table already
    read whole whose first entry is at ``pos``."""
    slot = 1
    while slot < index:
        tag = data[pos]
        if tag == CONST_UTF8:
            pos += 3 + (data[pos + 1] << 8 | data[pos + 2])
        else:
            pos += 1 + _LAYOUTS[tag][1]
            slot += tag in (CONST_LONG, CONST_DOUBLE)
        slot += 1
    return pos


def parse_constant_pool(data: bytes, pos: int, source: str | None = None,
                        ) -> tuple[ConstantPool, int]:
    """Read the constant pool table at ``data[pos:]``, its count first, and
    resolve it; return the pool and the position after the table.

    The table is walked by position, each entry read with one unpack into
    the pool's two lists, ``tags`` and ``values``. Then each entry that
    names others is resolved by reading the entries it names directly in
    the lists. Only a bad reference goes through
    :meth:`ConstantPool._resolve`, which raises it. A failure is reported
    at the file offset of the entry that holds it, or where a truncated
    table ends.
    """
    end = len(data)
    if pos + 2 > end:
        raise MalformedClassFile(_TRUNCATED, pos, source)
    count = data[pos] << 8 | data[pos + 1]
    pos = first = pos + 2
    tags = [0] * max(count, 1)
    values: list = [None] * len(tags)
    steps: tuple[list[int], ...] = ([], [], [], [])  # the entries each step resolves
    layouts = _LAYOUTS
    index = 1
    try:
        while index < count:
            tags[index] = tag = data[pos]
            if tag == CONST_UTF8:
                start = pos + 3
                stop = start + (data[pos + 1] << 8 | data[pos + 2])
                if stop > end:
                    raise MalformedClassFile(_TRUNCATED, start, source)
                raw = data[start:stop]
                try:
                    text = raw.decode()  # plain UTF-8, as most entries are
                except UnicodeDecodeError:
                    text = _decode_modified_utf8(raw)
                    if text is None:
                        raise MalformedClassFile(
                            f"constant pool entry {index} is not modified UTF-8", pos,
                            source) from None
                values[index] = text
                pos = stop
                index += 1
                continue
            unpack, size, single, step = layouts[tag]
            value = unpack(data, pos + 1)
            values[index] = value[0] if single else value
            if step:
                steps[step - 1].append(index)
            elif tag == CONST_LONG or tag == CONST_DOUBLE:
                if index + 1 == count:
                    raise MalformedClassFile(
                        f"constant pool entry {index} is a {TAG_NAMES[tag]} in the last slot,"
                        " which leaves no room for its second slot", pos, source)
                index += 1
            pos += 1 + size
            index += 1
    except (IndexError, struct.error):
        # a tag byte, Utf8 length or entry that runs past the end
        raise MalformedClassFile(_TRUNCATED, pos if pos >= end else pos + 1, source) from None
    except KeyError:
        raise MalformedClassFile(f"unknown constant pool tag {data[pos]}", pos, source) from None
    pool = ConstantPool(tags, values, source, tuple(sorted(steps[2] + steps[3])))
    steps[0].extend(steps[2])
    steps[1].extend(steps[3])

    def resolved(index: int) -> object:
        """The final value of entry ``index`` that the direct reads missed:
        a bad reference, raised at the entry."""
        try:
            return pool._resolve(tags[index], values[index])
        except MalformedClassFile as exc:
            raise MalformedClassFile(exc.reason, entry_offset(data, first, index),
                                     source) from exc

    for index in steps[0]:
        value = values[index]
        if tags[index] == CONST_NAME_AND_TYPE:
            name, desc = value
            if name < count and desc < count and tags[name] == tags[desc] == CONST_UTF8:
                values[index] = values[name], values[desc]
            else:
                values[index] = resolved(index)
        elif value < count and tags[value] == CONST_UTF8:
            values[index] = values[value]
        else:
            values[index] = resolved(index)
    handles = []
    for index in steps[1]:
        tag = tags[index]
        named, nat_index = values[index]
        if tag == CONST_METHOD_HANDLE:
            wanted = _HANDLE_KINDS.get(named)
            if (wanted is None or nat_index >= count
                    or tags[nat_index] not in MEMBER_KINDS[wanted]):
                resolved(index)
            handles.append(index)
            continue  # a handle keeps its kind and index
        if nat_index >= count or tags[nat_index] != CONST_NAME_AND_TYPE:
            values[index] = resolved(index)
        elif tag in _DYNAMIC:
            values[index] = (named,) + values[nat_index]
        elif named >= count or tags[named] != CONST_CLASS:
            values[index] = resolved(index)
        else:
            values[index] = (values[named],) + values[nat_index]
    # kind 8 (REF_newInvokeSpecial) names <init>, and kinds 5, 6, 7 and 9
    # name no special method (JVMS §4.4.8)
    for index in handles:
        kind, member = values[index]
        name = values[member][1]
        if (kind == 8 and name != "<init>"
                or kind in (5, 6, 7, 9) and name in ("<init>", "<clinit>")):
            rule = "must name <init>" if kind == 8 else "may not name <init> or <clinit>"
            raise MalformedClassFile(f"MethodHandle of kind {kind} {rule}, got {name}",
                                     entry_offset(data, first, index), source)
    return pool, pos
