"""Class file parsing: binary format to a code model of bytes.

Validation is eager and decoding is lazy. :func:`parse_class` checks the
whole structure, method bodies included, so a returned :class:`ClassFile`
is validated: every constant pool reference it reads resolves to an entry
of the kind its use requires, every field and method descriptor is well
formed, every attribute it reads (Code, LineNumberTable, SourceFile,
BootstrapMethods) is exactly as long as its contents, every bootstrap
argument names a loadable constant, an ``ACC_MODULE`` class is a
``module-info`` that declares no superclass, interface, field or method
(JVMS §4.1), every code array is 1 to 65535 bytes of known opcodes
with complete operands, zero switch padding and the loadable, member or
type operands each instruction needs, and every exception table entry
covers a non-empty range of its code array and names a handler inside it
(JVMS §4.7.3). Branch and switch targets are not checked: one may point
outside the code array or into the middle of an instruction, and a
listing shows it as it is (JVMS §4.9.1 forbids both). Nor is it checked
that an exception table pc starts an instruction.

A parsed class keeps its class file's bytes and only what the parse
checked and commands read: its names, flags, version, attribute names,
the names of its pool's Class entries, and each method's name,
descriptor, flags, attribute names and ``operands``, with the offsets of
its code array and line tables in the bytes. The rest is decoded from the
bytes on each read, and nothing keeps it: ``ClassFile.constant_pool``,
``MethodInfo.code``, ``instructions`` and ``line_numbers``, and
:func:`render_method`, which decodes the pool once per call. So two
parses of equal bytes from one source give equal classes, and the named
tuples' own equality says so.

Checking a body moves through its code array once, copying nothing it
does not keep: one byte pattern steps over the instructions of fixed width
to the next switch, a second collects the pool-indexed instructions before
it, and the reader that :func:`disassemble` uses steps over the switch by
its header. Each distinct such instruction of a class is checked once, and
the method keeps, as its ``operands``, the ``(mnemonic, target, member,
type_name)`` of each of its own, which the call graph closure reads; no
code array is read again, and no listing text is kept. A method's code
array is decoded into :class:`Instruction` records each time its
``instructions`` are read, by :func:`disassemble`, the one reference
decoder, which also raises the reason and offset of any failure the body
check finds.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache
from sys import intern
from typing import Callable, Iterator, NamedTuple

from ..errors import MalformedClassFile, MalformedDescriptor, MethodNotFound
from . import constant_pool as cp
from .constant_pool import ConstantPool, parse_constant_pool
from .descriptors import parse_descriptor, parse_field_descriptor
from .opcodes import ARRAY_TYPES, MNEMONICS, OPCODES, WIDE_TARGETS

ROOT_OBJECT_CLASS = "java/lang/Object"
_new = tuple.__new__

# class file major versions this parser accepts
MIN_MAJOR_VERSION = 45
MAX_MAJOR_VERSION = 61

ACC_PUBLIC = 0x0001
ACC_PRIVATE = 0x0002
ACC_STATIC = 0x0008
ACC_FINAL = 0x0010
ACC_NATIVE = 0x0100
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400
ACC_MODULE = 0x8000

MAIN_NAME = "main"
MAIN_DESCRIPTOR = "([Ljava/lang/String;)V"

_TRUNCATED = "truncated class file"


class MethodRef(NamedTuple):
    """A method named by class, name and descriptor.

    A plain tuple underneath: it hashes and compares in C, as the call
    graph's sets and dicts need, and it equals the 3-tuple
    ``(in_class, name, descriptor)``.
    """

    in_class: str
    name: str
    descriptor: str

    @property
    def text(self) -> str:
        """Canonical form ``class.name(descriptor)``, unique per method."""
        return f"{self.in_class}.{self.name}{self.descriptor}"

    @classmethod
    def from_text(cls, text: str) -> "MethodRef":
        paren = text.find("(")
        if paren < 0 or "." not in text[:paren]:
            raise ValueError(f"not a method reference: {text!r}")
        qualified, descriptor = text[:paren], text[paren:]
        in_class, name = qualified.rsplit(".", 1)
        return cls(in_class, name, descriptor)

    def __str__(self) -> str:
        return self.text


class Instruction(NamedTuple):
    """One decoded bytecode instruction.

    ``operands`` are rendered human-readably (pool references resolved to
    symbolic text). Structured views of pool operands are kept alongside
    for analyses: ``target`` for invoke instructions, ``member`` for field
    access, ``type_name`` for type instructions and ``literal`` for loaded
    constants.
    """

    offset: int
    mnemonic: str
    operands: tuple = ()
    target: MethodRef | None = None
    member: tuple[str, str, str] | None = None
    type_name: str | None = None
    literal: object = None


class MethodInfo(NamedTuple):
    """A parsed method: what :func:`parse_class` checked of it and what
    commands read, and where its code lies in its class file.

    ``operands`` holds one ``(mnemonic, target, member, type_name)`` tuple,
    the fields of :class:`Instruction` that the call graph closure reads,
    per distinct pool-indexed or ``newarray`` instruction of the code
    array, in no fixed order; equal instructions of one class share one
    tuple object. ``data`` is the class file's bytes, the one object that
    every method of the class holds. In it, ``code_at`` is the offset of
    the code array (0 for a method without one), ``line_tables`` that of
    each LineNumberTable payload of the Code attribute, and
    ``bootstrap_at`` that of the class's BootstrapMethods payload (0 for a
    class without one). Each read of :attr:`code`, :attr:`instructions` and
    :attr:`line_numbers` decodes them from ``data``, the instructions with
    the class's constant pool, which it decodes too; nothing keeps the
    result.
    """

    name: str
    descriptor: str
    access_flags: int
    attribute_names: tuple[str, ...] = ()
    operands: tuple[tuple, ...] = ()
    data: bytes = b""
    code_at: int = 0
    line_tables: tuple[int, ...] = ()
    bootstrap_at: int = 0

    @property
    def line_numbers(self) -> tuple[tuple[int, int], ...]:
        """The ``(start_pc, line_number)`` pairs of the line tables, in order."""
        data, pairs = self.data, []
        for at in self.line_tables:
            fields = _u2s(2 * (data[at] << 8 | data[at + 1]))(data, at + 2)
            pairs += zip(fields[::2], fields[1::2])
        return tuple(pairs)

    @property
    def code(self) -> bytes:
        """The code array, empty for a method without one."""
        at = self.code_at
        return self.data[at:at + _CODE(self.data, at - 8)[0]] if at else b""

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return _decode(self, parse_constant_pool(self.data, 8)[0]) if self.code_at else ()

    @property
    def is_abstract(self) -> bool:
        return bool(self.access_flags & ACC_ABSTRACT)

    @property
    def is_native(self) -> bool:
        return bool(self.access_flags & ACC_NATIVE)

    @property
    def has_body(self) -> bool:
        return not (self.is_abstract or self.is_native)

    def ref(self, class_name: str) -> MethodRef:
        return MethodRef(class_name, self.name, self.descriptor)


def _is_module(access_flags: int, major: int) -> bool:
    """Whether a class declares a module: ACC_MODULE is defined from major
    version 53 on, and an older class file's reserved bit is ignored."""
    return major >= 53 and bool(access_flags & ACC_MODULE)


class ClassFile(NamedTuple):
    """A fully validated class file: its bytes, ``data``, and what
    :func:`parse_class` checked of it and commands read.

    ``methods`` maps the ``(name, descriptor)`` of each method to it, in
    file order. ``pool_classes`` holds the names of the constant pool's
    Class entries, in pool order, and ``source`` names where the bytes came
    from, as an error about them does. Each read of :attr:`constant_pool`
    decodes the pool from ``data``. Every field takes part in equality, so
    two parses of equal bytes from one source compare equal.
    """

    class_name: str
    super_name: str | None
    interfaces: tuple[str, ...]
    access_flags: int
    methods: dict[tuple[str, str], MethodInfo]
    source_file: str | None
    version: tuple[int, int] = (MIN_MAJOR_VERSION, 0)
    attribute_names: tuple[str, ...] = ()
    pool_classes: tuple[str, ...] = ()
    source: str | None = None
    data: bytes = b""

    @property
    def constant_pool(self) -> ConstantPool:
        return parse_constant_pool(self.data, 8, self.source)[0]

    @property
    def is_interface(self) -> bool:
        return bool(self.access_flags & ACC_INTERFACE)

    @property
    def is_module(self) -> bool:
        """Whether this is a ``module-info`` class, which declares a module
        and no type (JVMS §4.1)."""
        return _is_module(self.access_flags, self.version[0])


def _bootstrap_methods(data: bytes, pos: int, limit: int, pool: ConstantPool,
                       source: str | None) -> tuple[list[tuple[str, str, str]], int]:
    """The bootstrap method triples of the BootstrapMethods payload at
    ``pos``, which ends at ``limit``, and the end of its contents.

    A bad handle or argument is reported at the file offset of its index.
    """
    def method_of_handle(index: int) -> tuple[str, str, str]:
        _, ref_idx = pool.entry(index, cp.CONST_METHOD_HANDLE).value
        member = pool.entry(ref_idx)
        if member.tag not in (cp.CONST_METHODREF, cp.CONST_INTERFACE_METHODREF):
            raise MalformedClassFile("bootstrap method handle does not reference a method")
        return member.value

    def argument(index: int) -> None:
        tag = pool.entry(index).tag
        if tag not in _BOOTSTRAP_ARGUMENTS:
            raise MalformedClassFile(f"bootstrap argument has unloadable tag {tag}")

    methods = []
    count, pos = _u2(data, pos, limit, source)
    for _ in range(count):
        index, pos = _u2(data, pos, limit, source)
        methods.append(_ref(method_of_handle, index, pos - 2, source))
        arguments, pos = _u2(data, pos, limit, source)
        for _ in range(arguments):
            index, pos = _u2(data, pos, limit, source)
            _ref(argument, index, pos - 2, source)
    return methods, pos


# the pool entries that load a symbolic reference, not a literal
_SYMBOLIC = frozenset((cp.CONST_CLASS, cp.CONST_METHOD_TYPE, cp.CONST_METHOD_HANDLE,
                       cp.CONST_DYNAMIC))
# ldc mnemonic -> the kinds of entry it loads; ldc2_w loads a Dynamic of
# type long or double, ldc and ldc_w one of any other type (JVMS §6.5)
_LOADABLE = {"ldc2_w": frozenset((cp.CONST_LONG, cp.CONST_DOUBLE, cp.CONST_DYNAMIC)),
             **dict.fromkeys(("ldc", "ldc_w"), _SYMBOLIC | frozenset(
                 (cp.CONST_INTEGER, cp.CONST_FLOAT, cp.CONST_STRING)))}
# a bootstrap argument names a loadable entry of either width (JVMS §4.7.23)
_BOOTSTRAP_ARGUMENTS = _LOADABLE["ldc"] | _LOADABLE["ldc2_w"]


# Each checker takes the class's pool and bootstrap methods, the mnemonic
# and the operands that the struct of its format reads, and returns the
# instruction's fields after its mnemonic.
def _loadable(pool: ConstantPool, bootstrap_methods: list, mnemonic: str, index: int) -> tuple:
    got = pool.entry(index)
    if got.tag not in _LOADABLE[mnemonic]:
        raise MalformedClassFile(f"{mnemonic} operand has unloadable tag {got.tag}")
    if got.tag == cp.CONST_DYNAMIC:
        bsm_idx, _, desc = got.value
        if (desc in ("J", "D")) != (mnemonic == "ldc2_w"):
            raise MalformedClassFile(f"{mnemonic} cannot load a Dynamic of type {desc}")
        if bsm_idx >= len(bootstrap_methods):
            raise MalformedClassFile(f"invalid bootstrap method index {bsm_idx}")
    literal = None if got.tag in _SYMBOLIC else got.value
    return (pool.render(index),), None, None, None, literal


def _field_access(pool: ConstantPool, bootstrap_methods: list, mnemonic: str,
                  index: int) -> tuple:
    member = pool.member_ref(index, "Fieldref")
    cls, name, desc = member
    return (f"{cls}.{name}:{desc}",), None, member, None, None


def _invoke(pool: ConstantPool, bootstrap_methods: list, mnemonic: str, index: int) -> tuple:
    ref = _new(MethodRef, pool.member_ref(index, "a method reference"))
    return (ref.text,), ref, None, None, None


def _invokeinterface(pool: ConstantPool, bootstrap_methods: list, mnemonic: str, index: int,
                     count: int, zero: int) -> tuple:
    if zero != 0:
        raise MalformedClassFile("invokeinterface fourth byte must be zero")
    ref = _new(MethodRef, pool.member_ref(index, "a method reference"))
    return (ref.text, count), ref, None, None, None


def _invokedynamic(pool: ConstantPool, bootstrap_methods: list, mnemonic: str, index: int,
                   zero: int) -> tuple:
    if zero != 0:
        raise MalformedClassFile("invokedynamic trailing bytes must be zero")
    bsm_idx, name, desc = pool.invoke_dynamic(index)
    if bsm_idx >= len(bootstrap_methods):
        raise MalformedClassFile(f"invalid bootstrap method index {bsm_idx}")
    ref = MethodRef(*bootstrap_methods[bsm_idx])
    return (f"{name}{desc}", f"bootstrap={ref.text}"), ref, None, None, None


def _type(pool: ConstantPool, bootstrap_methods: list, mnemonic: str, index: int) -> tuple:
    name = pool.class_name(index)
    return (name,), None, None, name, None


def _multianewarray(pool: ConstantPool, bootstrap_methods: list, mnemonic: str, index: int,
                    dims: int) -> tuple:
    name = pool.class_name(index)
    return (name, dims), None, None, name, None


def _newarray(pool: ConstantPool, bootstrap_methods: list, mnemonic: str,
              type_code: int) -> tuple:
    if type_code not in ARRAY_TYPES:
        raise MalformedClassFile(f"invalid array type code {type_code}")
    return (ARRAY_TYPES[type_code],), None, None, None, None


# The readers of variable-width operands (_switch and _wide) take the code
# array, the position after the opcode and the instruction's start, and
# return the operands and the position after them; a switch's are its
# header and the position of its table, which only its renderer unpacks.
# Failures carry no offset: disassemble reports them at the start.
_TABLESWITCH, _LOOKUPSWITCH = MNEMONICS["tableswitch"], MNEMONICS["lookupswitch"]
_TABLE = struct.Struct(">3i").unpack_from  # tableswitch default, low, high
_LOOKUP = struct.Struct(">2i").unpack_from  # lookupswitch default, npairs
_WIDE_LOCAL = struct.Struct(">xH")  # widened opcode, local index
_WIDE_IINC = struct.Struct(">xHh")  # iinc, local index, increment


def _switch(code: bytes, pos: int, start: int) -> tuple[tuple, int]:
    """A tableswitch's ``(default, low, high, table)`` or a lookupswitch's
    ``(default, npairs, table)``, ``table`` being where its s4 values start."""
    table = pos + 3 - start % 4
    if any(code[pos:table]):
        raise MalformedClassFile("nonzero switch padding")
    tableswitch = code[start] == _TABLESWITCH
    table += 12 if tableswitch else 8
    if table > len(code):
        raise MalformedClassFile(_TRUNCATED)
    if tableswitch:
        default, low, high = _TABLE(code, table - 12)
        if high < low:
            raise MalformedClassFile("tableswitch high < low")
        read, values = (default, low, high, table), high - low + 1
    else:
        default, npairs = _LOOKUP(code, table - 8)
        if npairs < 0:
            raise MalformedClassFile("lookupswitch negative pair count")
        read, values = (default, npairs, table), 2 * npairs
    end = table + 4 * values
    if end > len(code):
        raise MalformedClassFile(_TRUNCATED)
    return read, end


def _table_text(code: bytes, start: int, default: int, low: int, high: int, table: int) -> tuple:
    targets = struct.unpack_from(f">{high - low + 1}i", code, table)
    return (f"default={start + default}", f"low={low}", f"high={high}",
            "targets=" + ",".join(str(start + t) for t in targets))


def _lookup_text(code: bytes, start: int, default: int, npairs: int, table: int) -> tuple:
    pairs = struct.unpack_from(f">{2 * npairs}i", code, table)
    return (f"default={start + default}",
            "matches=" + ",".join(f"{m}:{start + t}" for m, t in zip(pairs[::2], pairs[1::2])))


def _wide(code: bytes, pos: int, start: int) -> tuple[tuple, int]:
    if pos == len(code):
        raise MalformedClassFile(_TRUNCATED)
    sub = code[pos]
    if sub not in WIDE_TARGETS:
        raise MalformedClassFile(f"opcode 0x{sub:02x} cannot be widened")
    sub_name = OPCODES[sub][0]
    operands = _WIDE_IINC if sub_name == "iinc" else _WIDE_LOCAL
    if pos + operands.size > len(code):
        raise MalformedClassFile(_TRUNCATED)
    return (sub_name, *operands.unpack_from(code, pos)), pos + operands.size


# How the decoder handles an opcode's operands:
#   _PLAIN       none
#   _IMMEDIATE   read by a struct, used as they are
#   _BRANCH      one offset read by a struct, made absolute
#   _RESOLVED    read by a struct and passed to a checker that returns the
#                instruction's fields after its mnemonic
#   _SEQUENTIAL  read by a function that returns them and their end
#                (variable width); a switch's are then rendered as text
_PLAIN, _IMMEDIATE, _BRANCH, _RESOLVED, _SEQUENTIAL = range(5)

# operand format (see opcodes.py) -> (kind, width with the opcode byte,
# struct format skipping the opcode byte, or reader function)
_FORMATS = {
    "": (_PLAIN, 1, None),
    "s1": (_IMMEDIATE, 2, ">xb"),
    "s2": (_IMMEDIATE, 3, ">xh"),
    "u1": (_IMMEDIATE, 2, ">xB"),
    "iinc": (_IMMEDIATE, 3, ">xBb"),
    "br2": (_BRANCH, 3, ">xh"),
    "br4": (_BRANCH, 5, ">xi"),
    "cp1": (_RESOLVED, 2, ">xB"),
    "cp2": (_RESOLVED, 3, ">xH"),
    "iface": (_RESOLVED, 5, ">xHBB"),
    "indy": (_RESOLVED, 5, ">xHH"),
    "multi": (_RESOLVED, 4, ">xHB"),
    "atype": (_RESOLVED, 2, ">xB"),
    "table": (_SEQUENTIAL, 1, _switch),
    "lookup": (_SEQUENTIAL, 1, _switch),
    "wide": (_SEQUENTIAL, 1, _wide),
}

# mnemonic -> checker of a _RESOLVED instruction's operands, or renderer
# of a switch's
_CHECKERS = {
    "tableswitch": _table_text, "lookupswitch": _lookup_text,
    "ldc": _loadable, "ldc_w": _loadable, "ldc2_w": _loadable,
    "getstatic": _field_access, "putstatic": _field_access,
    "getfield": _field_access, "putfield": _field_access,
    "invokevirtual": _invoke, "invokespecial": _invoke, "invokestatic": _invoke,
    "invokeinterface": _invokeinterface, "invokedynamic": _invokedynamic,
    "new": _type, "anewarray": _type, "checkcast": _type, "instanceof": _type,
    "multianewarray": _multianewarray, "newarray": _newarray,
}

# opcode -> (mnemonic, kind, width, operand reader, checker or renderer);
# None if unknown
_FORMS = [None] * 256
for _opcode, (_mnemonic, _fmt) in OPCODES.items():
    _kind, _width, _operands = _FORMATS[_fmt]
    if isinstance(_operands, str):
        _operands = struct.Struct(_operands).unpack_from
    _FORMS[_opcode] = (_mnemonic, _kind, _width, _operands, _CHECKERS.get(_mnemonic))

_NO_REFS = (None, None, None, None)
_PLAIN_FIELDS = ((),) + _NO_REFS


def _alternatives(opcodes: Iterator[int], width_of: Callable[[int], int]) -> list[bytes]:
    """Patterns of one instruction among ``opcodes``, one per width: its
    opcode class followed by as many operand bytes. A pattern tries them in
    turn, so the width of the most opcodes comes first."""
    by_width: dict[int, list[int]] = {}
    for opcode in opcodes:
        by_width.setdefault(width_of(opcode), []).append(opcode)
    return [b"[%s]" % b"".join(b"\\x%02x" % op for op in ops) + b"." * (width - 1)
            for width, ops in sorted(by_width.items(), key=lambda item: -len(item[1]))]


def _form_alternatives(kinds: set[int]) -> list[bytes]:
    return _alternatives((op for op, form in enumerate(_FORMS)
                          if form is not None and form[1] in kinds),
                         lambda op: _FORMS[op][2])


def _run(alternatives: list[bytes]) -> bytes:
    """A possessive run of the instructions ``alternatives`` match, the first
    of which is the class of one-byte instructions: runs of those repeat a
    single class, the fastest loop of ``re``."""
    plain = alternatives[0] + b"*+"
    return b"%s(?:(?:%s)%s)*+" % (plain, b"|".join(alternatives[1:]), plain)


# a wide instruction: its opcode, then an opcode it widens with operands of
# twice their usual width
_WIDE = b"\\x%02x(?:%s)" % (MNEMONICS["wide"], b"|".join(_alternatives(
    sorted(WIDE_TARGETS), lambda op: 2 * _FORMS[op][2] - 1)))
# Each alternative starts with its own opcode class, so a code array splits
# into instructions in one way only. From an instruction's start, _STOP
# steps over every instruction of fixed width to the next stop: the end, or
# a switch (the only kind of variable width), a bad wide, or a bad or
# cut-off instruction. _KEYS(code, pos, stop) matches each pool-indexed (or
# newarray) instruction before that stop in turn, stepping over the others,
# and matches empty by ``\Z`` at the stop, where its search ends.
_STOP = re.compile(_run(_form_alternatives({_PLAIN, _IMMEDIATE, _BRANCH, _RESOLVED})
                        + [_WIDE]), re.DOTALL).match
_KEYS = re.compile(b"%s(%s|\\Z)" % (
    _run(_form_alternatives({_PLAIN, _IMMEDIATE, _BRANCH}) + [_WIDE]),
    b"|".join(_form_alternatives({_RESOLVED}))), re.DOTALL).findall


def _scan(code: bytes) -> set[bytes] | None:
    """The distinct _KEYS matches of a code array, read from start to end,
    each switch stepped over by its header with the decoder's own reader;
    None if the array holds a bad instruction or switch."""
    stop = _STOP(code).end()
    keys = set(_KEYS(code, 0, stop))
    while stop != len(code):
        if code[stop] not in (_TABLESWITCH, _LOOKUPSWITCH):  # a bad wide or instruction
            return None
        try:
            pos = _switch(code, stop + 1, stop)[1]
        except MalformedClassFile:
            return None
        stop = _STOP(code, pos).end()
        keys.update(_KEYS(code, pos, stop))
    keys.discard(b"")
    return keys


def _check_body(code: bytes, file_base: int, pool: ConstantPool, bootstrap_methods: list,
                checked: dict[bytes, tuple]) -> tuple:
    """The ``operands`` of a method's code array (see :class:`MethodInfo`),
    which starts at file offset ``file_base``, checked as
    :func:`disassemble` checks them, from its scan.

    ``checked`` maps each pool-indexed or ``newarray`` instruction of the
    class checked so far to its operand tuple, so each is checked once. On
    any failure the code array goes to :func:`disassemble`, only to raise:
    it reports the reason at the file offset of the first bad instruction.
    """
    keys = _scan(code)
    if keys is not None:
        try:
            for key in keys:
                if key not in checked:
                    mnemonic, _, _, operands, check = _FORMS[key[0]]
                    _, target, member, type_name, _ = check(pool, bootstrap_methods, mnemonic,
                                                            *operands(key, 0))
                    checked[key] = (mnemonic, target, member, type_name)
            return tuple(map(checked.__getitem__, keys))
        except MalformedClassFile:
            pass
    disassemble(code, file_base, pool, bootstrap_methods)
    raise AssertionError("the reference decoder accepts a body that its check refuses")


def disassemble(code: bytes, file_base: int, pool: ConstantPool,
                bootstrap_methods: list[tuple[str, str, str]]) -> tuple[Instruction, ...]:
    """The instructions of a code array at file offset ``file_base`` of a
    class with this pool and these bootstrap methods, checked one at a time.

    The reference decoder. When the body check of :func:`parse_class`
    finds a bad opcode, operand, padding or pool reference, it calls this
    to report the first one at the file offset of the instruction that
    holds it. Reading ``MethodInfo.instructions`` calls it on an accepted
    body, which cannot fail; it checks and renders each pool-indexed
    instruction again, and keeps none of it.
    """
    out: list[Instruction] = []
    end = len(code)
    pos = start = 0
    try:
        while pos < end:
            start = pos
            form = _FORMS[code[pos]]
            if form is None:
                raise MalformedClassFile(f"unknown opcode 0x{code[pos]:02x}")
            mnemonic, kind, width, operands, check = form
            pos += width
            if pos > end:
                raise MalformedClassFile("truncated class file")
            if kind == _PLAIN:
                fields = _PLAIN_FIELDS
            elif kind == _RESOLVED:
                fields = check(pool, bootstrap_methods, mnemonic, *operands(code, start))
            elif kind == _SEQUENTIAL:
                read, pos = operands(code, pos, start)
                fields = (read if check is None else check(code, start, *read),) + _NO_REFS
            elif kind == _IMMEDIATE:
                fields = (operands(code, start),) + _NO_REFS
            else:
                fields = ((start + operands(code, start)[0],),) + _NO_REFS
            out.append(_new(Instruction, (start, mnemonic) + fields))
    except MalformedClassFile as exc:
        raise MalformedClassFile(exc.reason, file_base + start, pool.source) from exc
    return tuple(out)


def _decode(method: MethodInfo, pool: ConstantPool) -> tuple[Instruction, ...]:
    """The instructions of a method with code, whose class's pool is ``pool``."""
    data = method.data
    bootstrap_methods = (_bootstrap_methods(data, method.bootstrap_at, len(data), pool, None)[0]
                         if method.bootstrap_at else [])
    return disassemble(method.code, method.code_at, pool, bootstrap_methods)


_MAGIC = b"\xca\xfe\xba\xbe"
_VERSION = struct.Struct(">HH").unpack_from  # minor_version, major_version
_MEMBER = struct.Struct(">HHH").unpack_from  # access_flags, name_index, descriptor_index
_ATTRIBUTE = struct.Struct(">HI").unpack_from  # attribute_name_index, attribute_length
_CODE = struct.Struct(">xxxxI").unpack_from  # code_length, after max_stack and max_locals
_HANDLER_PCS = struct.Struct(">HHH").unpack_from  # start_pc, end_pc, handler_pc
MAX_CODE_LENGTH = 65535  # JVMS §4.7.3


def _ref(lookup: Callable[[int], object], index: int, offset: int, source: str | None):
    """``lookup(index)``, a pool lookup whose failure is reported at file
    offset ``offset``."""
    try:
        return lookup(index)
    except MalformedClassFile as exc:
        raise MalformedClassFile(exc.reason, offset, source) from exc


def _class_ref(data: bytes, pos: int, limit: int, pool: ConstantPool, source: str | None,
               what: str) -> tuple[str, int]:
    """The class name that the u2 index at ``pos`` names, checked as the
    ``what`` of a class, and the position after the index."""
    index, pos = _u2(data, pos, limit, source)
    name = _ref(pool.class_name, index, pos - 2, source)
    if not name or any(ch in name for ch in ";()"):
        raise MalformedClassFile(f"invalid {what} {name!r}", pos, source)
    return name, pos


def _utf8(pool: ConstantPool, index: int, offset: int, source: str | None) -> str:
    """The text of Utf8 entry ``index``, read from the pool's ``tags`` and
    ``values`` lists; a bad index goes to :func:`_ref` to raise."""
    tags = pool.tags
    if index < len(tags) and tags[index] == cp.CONST_UTF8:
        return pool.values[index]
    return _ref(pool.utf8, index, offset, source)


def _short(data: bytes, limit: int, pos: int, lookups: tuple, source: str | None,
           ) -> MalformedClassFile:
    """The error of a header at ``pos`` that runs past ``limit``, as reading
    its fields one by one finds it: u2 fields, each resolved by its entry of
    ``lookups`` (None for a plain value), maybe followed by a u4. That is a
    bad pool index in a field that fits, else the truncation at the first
    field that does not."""
    for lookup in lookups:
        if pos + 2 > limit:
            break
        if lookup is not None:
            _ref(lookup, data[pos] << 8 | data[pos + 1], pos, source)
        pos += 2
    return MalformedClassFile(_TRUNCATED, pos, source)


def _u2(data: bytes, pos: int, limit: int, source: str | None) -> tuple[int, int]:
    """The u2 at ``pos`` (a count or an index), and the position after it."""
    if pos + 2 > limit:
        raise MalformedClassFile(_TRUNCATED, pos, source)
    return data[pos] << 8 | data[pos + 1], pos + 2


def _attribute(data: bytes, pos: int, limit: int, pool: ConstantPool,
               source: str | None) -> tuple[str, int, int]:
    """The name, payload start and payload end of the attribute at ``pos``."""
    if pos + 6 > limit:
        raise _short(data, limit, pos, (pool.utf8,), source)
    name_index, length = _ATTRIBUTE(data, pos)
    name = _utf8(pool, name_index, pos, source)
    pos += 6
    if pos + length > limit:
        raise MalformedClassFile(_TRUNCATED, pos, source)
    return name, pos, pos + length


def _unread(name: str, start: int, used: int, stop: int, source: str | None,
            ) -> MalformedClassFile:
    """The error of bytes left unread in the attribute payload
    ``data[start:stop]``, whose contents end at ``used``."""
    return MalformedClassFile(f"{name} attribute has length {stop - start}, but its"
                              f" contents take {used - start} bytes", used, source)


@lru_cache(maxsize=256)
def _u2s(count: int) -> Callable[[bytes, int], tuple[int, ...]]:
    """The unpack_from of ``count`` consecutive u2 values."""
    return struct.Struct(f">{count}H").unpack_from


@lru_cache(maxsize=4096)
def _descriptor_error(text: str, method: bool) -> str | None:
    """What is wrong with a method or field descriptor, or None if nothing;
    memoized, since the same few descriptors recur in every class."""
    try:
        (parse_descriptor if method else parse_field_descriptor)(text)
    except MalformedDescriptor as exc:
        return f"invalid {'method' if method else 'field'} descriptor {text!r}: {exc}"
    return None


def _member(data: bytes, pos: int, limit: int, pool: ConstantPool, source: str | None,
            method: bool) -> tuple[int, str, str, int, int]:
    """The access flags, name, checked descriptor and attribute count of the
    field or method at ``pos``, and the position of its first attribute."""
    if pos + 6 > limit:
        raise _short(data, limit, pos, (None, pool.utf8, pool.utf8), source)
    flags, name_index, desc_index = _MEMBER(data, pos)
    name = _utf8(pool, name_index, pos + 2, source)
    desc = _utf8(pool, desc_index, pos + 4, source)
    pos += 6
    error = _descriptor_error(desc, method)
    if error is not None:
        raise MalformedClassFile(error, pos, source)
    if pos + 2 > limit:
        raise MalformedClassFile(_TRUNCATED, pos, source)
    return flags, name, desc, data[pos] << 8 | data[pos + 1], pos + 2


def _check_line_table(data: bytes, start: int, stop: int, code_length: int, code_attr: int,
                      source: str | None) -> None:
    """Check the LineNumberTable payload ``data[start:stop]``; a bad entry
    is reported at the Code payload's offset ``code_attr``."""
    if start + 2 > stop:
        raise MalformedClassFile(_TRUNCATED, start, source)
    count = data[start] << 8 | data[start + 1]
    pos = start + 2
    whole = min(count, (stop - pos) // 4)
    fields = _u2s(2 * whole)(data, pos)
    if whole and (0 in fields[1::2] or max(fields[::2]) > code_length):
        for start_pc, line in zip(fields[::2], fields[1::2]):
            if line < 1:
                raise MalformedClassFile("line number must be positive", code_attr, source)
            if start_pc > code_length:
                raise MalformedClassFile("line table offset beyond code", code_attr, source)
    if whole < count:  # the last entry is cut short: check its start_pc if it fits
        cut = pos + 4 * whole
        if cut + 2 <= stop and (data[cut] << 8 | data[cut + 1]) > code_length:
            raise MalformedClassFile("line table offset beyond code", code_attr, source)
        raise _short(data, stop, cut, (None, None), source)
    if pos + 4 * count != stop:
        raise _unread("LineNumberTable", start, pos + 4 * count, stop, source)


def _parse_code_attribute(data: bytes, start: int, stop: int, pool: ConstantPool,
                          source: str | None) -> tuple[bytes, int, tuple[int, ...]]:
    """Check the Code payload ``data[start:stop]``; return its code array,
    the array's offset and the offset of each LineNumberTable payload."""
    if start + 8 > stop:
        raise _short(data, stop, start, (None, None), source)
    code_length, = _CODE(data, start)
    if not 0 < code_length <= MAX_CODE_LENGTH:
        raise MalformedClassFile(f"code length {code_length} is not in 1..{MAX_CODE_LENGTH}",
                                 start + 4, source)
    code_start = start + 8
    pos = code_start + code_length
    if pos + 2 > stop:
        raise MalformedClassFile(_TRUNCATED, code_start if pos > stop else pos, source)
    count = data[pos] << 8 | data[pos + 1]  # exception_table_length
    pos += 2
    if count:
        entries = range(pos, min(pos + 8 * count, stop - 5), 8)  # those whose pcs fit
        for entry in entries:
            start_pc, end_pc, handler_pc = _HANDLER_PCS(data, entry)
            if not start_pc < end_pc <= code_length or handler_pc >= code_length:
                raise MalformedClassFile(
                    f"exception handler {start_pc}..{end_pc} -> {handler_pc}"
                    f" does not fit code of length {code_length}", entry, source)
            catch_type, _ = _u2(data, entry + 6, stop, source)
            if catch_type:
                _ref(pool.class_name, catch_type, entry + 6, source)
        pos += 8 * count
        if pos > stop:  # an entry whose pcs do not all fit: check those that do
            cut = entries.start + 8 * len(entries)
            pcs = _u2s((stop - cut) // 2)(data, cut)  # start_pc, and end_pc if it fits
            if pcs and not pcs[0] < (pcs[1:] or (code_length,))[0] <= code_length:
                raise MalformedClassFile(
                    f"exception handler {pcs[0]}..{''.join(map(str, pcs[1:]))}"
                    f" does not fit code of length {code_length}", cut, source)
            raise _short(data, stop, cut, (None, None), source)
    if pos + 2 > stop:
        raise MalformedClassFile(_TRUNCATED, pos, source)
    count = data[pos] << 8 | data[pos + 1]  # attributes_count
    pos += 2
    line_tables: tuple[int, ...] = ()
    for _ in range(count):
        name, at, pos = _attribute(data, pos, stop, pool, source)
        if name == "LineNumberTable":
            _check_line_table(data, at, pos, code_length, start, source)
            line_tables += (at,)
    if pos != stop:
        raise _unread("Code", start, pos, stop, source)
    return data[code_start:code_start + code_length], code_start, line_tables


def parse_class(data: bytes, source: str | None = None) -> ClassFile:
    """Parse class file bytes into a validated :class:`ClassFile`.

    A failure raises :class:`MalformedClassFile` with the file offset where
    reading the class file in order first finds it.
    """
    if data[:4] != _MAGIC:
        raise MalformedClassFile("bad magic number", 0, source)
    end = len(data)
    if end < 8:
        raise _short(data, end, 4, (None, None), source)
    minor, major = _VERSION(data, 4)
    if not MIN_MAJOR_VERSION <= major <= MAX_MAJOR_VERSION:
        raise MalformedClassFile(
            f"unsupported major version {major}"
            f" (supported: {MIN_MAJOR_VERSION}..{MAX_MAJOR_VERSION})", 6, source)
    pool, pos = parse_constant_pool(data, 8, source)
    tags, values = pool.tags, pool.values

    def bad_entry(index: int, reason: str) -> MalformedClassFile:
        return MalformedClassFile(reason, cp.entry_offset(data, 10, index), source)

    def module_error(reason: str) -> MalformedClassFile:
        """The error of a module class whose field just read, the u2 before
        ``pos``, breaks a rule of JVMS §4.1."""
        return MalformedClassFile(f"ACC_MODULE class {reason}", pos - 2, source)

    if major < 52:  # before 52, kinds 6 and 7 name only a Methodref (JVMS §4.4.8)
        for index, tag in enumerate(tags):
            if tag == cp.CONST_METHOD_HANDLE:
                kind, member = values[index]
                if kind in (6, 7) and tags[member] == cp.CONST_INTERFACE_METHODREF:
                    raise bad_entry(index, f"MethodHandle of kind {kind} names an"
                                    f" InterfaceMethodref, which needs major version 52,"
                                    f" got {major}")
    access_flags, pos = _u2(data, pos, end, source)
    module = _is_module(access_flags, major)
    # a Dynamic names a field type from major version 55 on (JVMS §4.4.10);
    # Module and Package entries belong to a module-info (§4.4.11-12)
    for index in pool.gated:
        tag = tags[index]
        if tag != cp.CONST_DYNAMIC:
            if not module:
                raise bad_entry(index, f"{cp.TAG_NAMES[tag]} outside an ACC_MODULE class")
        elif major < 55:
            raise bad_entry(index, f"Dynamic needs major version 55, got {major}")
        else:
            error = _descriptor_error(values[index][2], False)
            if error is not None:
                raise bad_entry(index, f"Dynamic has an {error}")
    if module and access_flags != ACC_MODULE:
        raise module_error(f"sets other access flags: 0x{access_flags:04x}")
    class_name, pos = _class_ref(data, pos, end, pool, source, "class name")
    if module and class_name != "module-info":
        raise module_error(f"is named {class_name}, not module-info")
    if data[pos:pos + 2] != b"\0\0":
        super_name, pos = _class_ref(data, pos, end, pool, source, "superclass name")
        if module:
            raise module_error(f"{class_name} names a superclass")
    elif module or class_name == ROOT_OBJECT_CLASS:
        super_name, pos = None, pos + 2
    else:
        raise MalformedClassFile(f"class {class_name} lacks a superclass", pos + 2, source)
    count, pos = _u2(data, pos, end, source)
    if module and count:
        raise module_error(f"declares interfaces: {count}")
    interfaces = []
    for _ in range(count):
        name, pos = _class_ref(data, pos, end, pool, source, "interface name")
        interfaces.append(name)

    # fields: validated and skipped, the code model does not retain them
    count, pos = _u2(data, pos, end, source)
    if module and count:
        raise module_error(f"declares fields: {count}")
    for _ in range(count):
        _, _, _, attributes, pos = _member(data, pos, end, pool, source, False)
        for _ in range(attributes):
            pos = _attribute(data, pos, end, pool, source)[2]

    # methods: structure first; bodies checked after class attributes are
    # read, since invokedynamic operands need BootstrapMethods
    raw_methods = []
    count, pos = _u2(data, pos, end, source)
    if module and count:
        raise module_error(f"declares methods: {count}")
    for _ in range(count):
        m_flags, m_name, m_desc, attributes, pos = _member(data, pos, end, pool, source, True)
        code_info = None
        names: list[str] = []
        for _ in range(attributes):
            a_name, start, pos = _attribute(data, pos, end, pool, source)
            names.append(a_name)
            if a_name == "Code":
                if code_info is not None:
                    raise MalformedClassFile(f"duplicate Code attribute on {m_name}{m_desc}",
                                             pos, source)
                code_info = _parse_code_attribute(data, start, pos, pool, source)
        abstract_or_native = bool(m_flags & (ACC_ABSTRACT | ACC_NATIVE))
        if abstract_or_native and code_info is not None:
            raise MalformedClassFile(f"abstract/native method {m_name}{m_desc} has code",
                                     pos, source)
        if not abstract_or_native and code_info is None:
            raise MalformedClassFile(f"method {m_name}{m_desc} lacks a Code attribute",
                                     pos, source)
        raw_methods.append((intern(m_name), intern(m_desc), m_flags, code_info, tuple(names)))

    bootstrap_methods: list[tuple[str, str, str]] = []
    bootstrap_at = 0
    class_attr_names: list[str] = []
    source_file = None
    count, pos = _u2(data, pos, end, source)
    for _ in range(count):
        a_name, start, pos = _attribute(data, pos, end, pool, source)
        class_attr_names.append(a_name)
        if a_name == "SourceFile":
            index, used = _u2(data, start, pos, source)
            source_file = _utf8(pool, index, start, source)
        elif a_name == "BootstrapMethods":
            bootstrap_methods, used = _bootstrap_methods(data, start, pos, pool, source)
            bootstrap_at = start
        else:
            continue
        if used != pos:
            raise _unread(a_name, start, used, pos, source)

    if pos != end:
        raise MalformedClassFile("trailing bytes after class structure", pos, source)

    checked: dict[bytes, tuple] = {}  # see _check_body
    methods: dict[tuple[str, str], MethodInfo] = {}
    for m_name, m_desc, m_flags, code_info, names in raw_methods:
        if (m_name, m_desc) in methods:
            raise MalformedClassFile(f"duplicate method {m_name}{m_desc}", 0, source)
        operands, code_at, line_tables = (), 0, ()
        if code_info is not None:
            code, code_at, line_tables = code_info
            operands = _check_body(code, code_at, pool, bootstrap_methods, checked)
        methods[m_name, m_desc] = _new(MethodInfo, (m_name, m_desc, m_flags, names, operands, data,
                                                    code_at, line_tables, bootstrap_at))

    return _new(ClassFile, (class_name, super_name, tuple(interfaces), access_flags, methods,
                            source_file, (major, minor), tuple(class_attr_names),
                            tuple(pool.classes), source, data))


def render_method(cf: ClassFile, ref: MethodRef) -> str:
    """Deterministic one-line-per-instruction listing of a method body,
    decoded with the class's constant pool, which it decodes once. A name
    or string holding an unpaired surrogate shows it as ``\\uXXXX``, so
    the listing encodes as UTF-8."""
    if ref.in_class != cf.class_name:
        raise MethodNotFound(f"{ref.text} does not belong to {cf.class_name}")
    method = cf.methods.get((ref.name, ref.descriptor))
    if method is None:
        raise MethodNotFound(f"{cf.class_name} has no method {ref.name}{ref.descriptor}")
    lines = [ref.text]
    line_at = {}
    for start_pc, line in method.line_numbers:
        line_at.setdefault(start_pc, line)
    for ins in _decode(method, cf.constant_pool) if method.code_at else ():
        text = f"{ins.offset}: {ins.mnemonic}"
        if ins.operands:
            rendered = ", ".join(
                op if isinstance(op, str) else str(op) for op in ins.operands)
            text += f" {rendered}"
        if ins.offset in line_at:
            text += f"  // line {line_at[ins.offset]}"
        lines.append(text)
    return cp.escape_surrogates("\n".join(lines) + "\n")
