"""Class file parsing: binary format to an inspectable code model.

Validation is eager and decoding is lazy. :func:`parse_class` checks
everything, method bodies included, so a returned :class:`ClassFile` is
fully validated: all constant pool references resolve, all opcodes are
known, all offsets are in range. Checking a body resolves each of its
pool-indexed instructions once and keeps the fields in the body's
``resolved`` map, where :func:`resolved_operands` reads them without
decoding anything else; the call graph closure reads bodies that way. A
method's code array is decoded into :class:`Instruction` records only
the first time its ``instructions`` are read, by the same decoder that
validated it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from ..errors import MalformedClassFile, MethodNotFound
from . import constant_pool as cp
from .constant_pool import ByteReader, ConstantPool, parse_constant_pool
from .descriptors import parse_descriptor
from .opcodes import ARRAY_TYPES, OPCODES, WIDE_TARGETS

ROOT_OBJECT_CLASS = "java/lang/Object"

# class file major versions this parser accepts
MIN_MAJOR_VERSION = 45
MAX_MAJOR_VERSION = 52

ACC_PUBLIC = 0x0001
ACC_STATIC = 0x0008
ACC_FINAL = 0x0010
ACC_NATIVE = 0x0100
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400

MAIN_NAME = "main"
MAIN_DESCRIPTOR = "([Ljava/lang/String;)V"


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


class MethodBody(NamedTuple):
    """A validated code array and what decoding it needs.

    ``file_base`` is the code array's offset in the class file. The other
    fields are shared by all bodies of one class: ``resolved`` maps the bytes
    of each pool-indexed or ``newarray`` instruction to the instruction's
    fields after its mnemonic, so each is checked and resolved once.
    """

    code: bytes
    file_base: int
    pool: ConstantPool
    bootstrap_methods: list[tuple[str, str, str]]
    source: str | None
    resolved: dict[bytes, tuple]


@dataclass(frozen=True)
class MethodInfo:
    """A parsed method: flags, line number table and body.

    ``body`` holds the code array that :func:`parse_class` validated, with
    its pool operands already resolved; :func:`resolved_operands` reads
    those without decoding. The body is decoded into :attr:`instructions`
    on the first read, and the tuple is kept. Equality compares the
    decoded instructions, not the body bytes.
    """

    name: str
    descriptor: str
    access_flags: int
    line_numbers: tuple[tuple[int, int], ...] = ()
    attribute_names: tuple[str, ...] = ()
    body: MethodBody | None = field(default=None, compare=False, repr=False)

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        out: list[Instruction] = []
        if self.body is not None:
            disassemble(self.body, out)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.descriptor, self.access_flags, self.line_numbers,
                self.attribute_names, self.instructions) == (
            other.name, other.descriptor, other.access_flags, other.line_numbers,
            other.attribute_names, other.instructions)

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


@dataclass(frozen=True)
class ClassFile:
    """A fully validated class file.

    Its methods are indexed by ``(name, descriptor)`` on the first
    :meth:`find_method` call, which makes every call a dict lookup.
    """

    class_name: str
    super_name: str | None
    interfaces: tuple[str, ...]
    access_flags: int
    methods: tuple[MethodInfo, ...]
    source_file: str | None
    constant_pool: ConstantPool = field(compare=False, repr=False)
    version: tuple[int, int] = (MIN_MAJOR_VERSION, 0)
    attribute_names: tuple[str, ...] = ()

    @property
    def is_interface(self) -> bool:
        return bool(self.access_flags & ACC_INTERFACE)

    @cached_property
    def _methods_by_key(self) -> dict[tuple[str, str], MethodInfo]:
        return {(m.name, m.descriptor): m for m in self.methods}

    def find_method(self, name: str, descriptor: str) -> MethodInfo | None:
        return self._methods_by_key.get((name, descriptor))


def _check_internal_name(name: str, reader: ByteReader, what: str) -> str:
    if not name or any(ch in name for ch in ";()"):
        raise reader.fail(f"invalid {what} {name!r}")
    return name


def _parse_bootstrap_methods(reader: ByteReader,
                             pool: ConstantPool) -> list[tuple[str, str, str]]:
    """Decode a BootstrapMethods attribute into bootstrap method triples.

    ``reader`` is positioned at the payload; a bad handle or argument is
    reported at the file offset of its index.
    """
    def method_of_handle(index: int) -> tuple[str, str, str]:
        _, ref_idx = pool.entry(index, cp.CONST_METHOD_HANDLE).value
        member = pool.entry(ref_idx)
        if member.tag not in (cp.CONST_METHODREF, cp.CONST_INTERFACE_METHODREF):
            raise MalformedClassFile("bootstrap method handle does not reference a method")
        return member.value

    methods = []
    for _ in range(reader.u2()):
        methods.append(reader.ref(method_of_handle))
        for _ in range(reader.u2()):
            reader.ref(pool.entry)
    return methods


def _loadable(body: MethodBody, mnemonic: str, index: int) -> tuple:
    pool = body.pool
    got = pool.entry(index)
    symbolic = (cp.CONST_CLASS, cp.CONST_METHOD_TYPE, cp.CONST_METHOD_HANDLE)
    if mnemonic == "ldc2_w":
        allowed = (cp.CONST_LONG, cp.CONST_DOUBLE)
    else:
        allowed = (cp.CONST_INTEGER, cp.CONST_FLOAT, cp.CONST_STRING) + symbolic
    if got.tag not in allowed:
        raise MalformedClassFile(f"{mnemonic} operand has unloadable tag {got.tag}")
    literal = None if got.tag in symbolic else got.value
    return (pool.render(index),), None, None, None, literal


def _field_access(body: MethodBody, mnemonic: str, index: int) -> tuple:
    member = body.pool.member_ref(index, "Fieldref")
    cls, name, desc = member
    return (f"{cls}.{name}:{desc}",), None, member, None, None


def _invoke(body: MethodBody, mnemonic: str, index: int) -> tuple:
    ref = MethodRef(*body.pool.member_ref(index, "a method reference"))
    return (ref.text,), ref, None, None, None


def _invokeinterface(body: MethodBody, mnemonic: str, index: int, count: int,
                     zero: int) -> tuple:
    if zero != 0:
        raise MalformedClassFile("invokeinterface fourth byte must be zero")
    ref = MethodRef(*body.pool.member_ref(index, "a method reference"))
    return (ref.text, count), ref, None, None, None


def _invokedynamic(body: MethodBody, mnemonic: str, index: int, zero: int) -> tuple:
    if zero != 0:
        raise MalformedClassFile("invokedynamic trailing bytes must be zero")
    bsm_idx, name, desc = body.pool.invoke_dynamic(index)
    if bsm_idx >= len(body.bootstrap_methods):
        raise MalformedClassFile(f"invalid bootstrap method index {bsm_idx}")
    ref = MethodRef(*body.bootstrap_methods[bsm_idx])
    return (f"{name}{desc}", f"bootstrap={ref.text}"), ref, None, None, None


def _type(body: MethodBody, mnemonic: str, index: int) -> tuple:
    name = body.pool.class_name(index)
    return (name,), None, None, name, None


def _multianewarray(body: MethodBody, mnemonic: str, index: int, dims: int) -> tuple:
    name = body.pool.class_name(index)
    return (name, dims), None, None, name, None


def _newarray(body: MethodBody, mnemonic: str, type_code: int) -> tuple:
    if type_code not in ARRAY_TYPES:
        raise MalformedClassFile(f"invalid array type code {type_code}")
    return (ARRAY_TYPES[type_code],), None, None, None, None


def _switch_padding(reader: ByteReader, start: int) -> None:
    for _ in range(3 - start % 4):
        if reader.u1() != 0:
            raise reader.fail("nonzero switch padding")


def _tableswitch(reader: ByteReader, start: int) -> tuple:
    _switch_padding(reader, start)
    default = reader.s4()
    low = reader.s4()
    high = reader.s4()
    if high < low:
        raise reader.fail("tableswitch high < low")
    targets = reader.s4s(high - low + 1)
    return (f"default={start + default}", f"low={low}", f"high={high}",
            "targets=" + ",".join(str(start + t) for t in targets))


def _lookupswitch(reader: ByteReader, start: int) -> tuple:
    _switch_padding(reader, start)
    default = reader.s4()
    npairs = reader.s4()
    if npairs < 0:
        raise reader.fail("lookupswitch negative pair count")
    pairs = reader.s4s(2 * npairs)
    return (f"default={start + default}",
            "matches=" + ",".join(f"{m}:{start + t}" for m, t in zip(pairs[::2], pairs[1::2])))


def _wide(reader: ByteReader, start: int) -> tuple:
    sub = reader.u1()
    if sub not in WIDE_TARGETS:
        raise reader.fail(f"opcode 0x{sub:02x} cannot be widened")
    sub_name = OPCODES[sub][0]
    if sub_name == "iinc":
        return sub_name, reader.u2(), reader.s2()
    return sub_name, reader.u2()


# How the decoder handles an opcode's operands:
#   _PLAIN       none
#   _IMMEDIATE   read by a struct, used as they are
#   _BRANCH      one offset read by a struct, made absolute
#   _RESOLVED    read by a struct and passed to a checker that returns the
#                instruction's fields after its mnemonic
#   _SEQUENTIAL  read from a ByteReader by a function (variable width)
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
    "table": (_SEQUENTIAL, 1, _tableswitch),
    "lookup": (_SEQUENTIAL, 1, _lookupswitch),
    "wide": (_SEQUENTIAL, 1, _wide),
}

# mnemonic -> checker of a _RESOLVED instruction's operands
_CHECKERS = {
    "ldc": _loadable, "ldc_w": _loadable, "ldc2_w": _loadable,
    "getstatic": _field_access, "putstatic": _field_access,
    "getfield": _field_access, "putfield": _field_access,
    "invokevirtual": _invoke, "invokespecial": _invoke, "invokestatic": _invoke,
    "invokeinterface": _invokeinterface, "invokedynamic": _invokedynamic,
    "new": _type, "anewarray": _type, "checkcast": _type, "instanceof": _type,
    "multianewarray": _multianewarray, "newarray": _newarray,
}

# opcode -> (mnemonic, kind, width, operand reader, checker); None if unknown
_FORMS = [None] * 256
for _opcode, (_mnemonic, _fmt) in OPCODES.items():
    _kind, _width, _operands = _FORMATS[_fmt]
    if isinstance(_operands, str):
        _operands = struct.Struct(_operands).unpack_from
    _FORMS[_opcode] = (_mnemonic, _kind, _width, _operands, _CHECKERS.get(_mnemonic))

_NO_REFS = (None, None, None, None)
_PLAIN_FIELDS = ((),) + _NO_REFS
_new = tuple.__new__


def disassemble(body: MethodBody, out: list[Instruction] | None) -> None:
    """Check a method's code array, appending its instructions to ``out`` if given.

    :func:`parse_class` calls it with ``out=None`` on every body, so a bad
    opcode, operand, padding or pool reference is reported at parse time,
    at the file offset of the instruction that holds it. Reading
    ``MethodInfo.instructions`` calls it again on an accepted body, which
    cannot fail, and finds every pool operand already resolved.
    """
    code, resolved = body.code, body.resolved
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
                if out is not None:
                    out.append(_new(Instruction, (start, mnemonic) + _PLAIN_FIELDS))
                continue
            if kind == _RESOLVED:
                key = code[start:pos]
                fields = resolved.get(key)
                if fields is None:
                    fields = resolved[key] = check(body, mnemonic, *operands(code, start))
            elif kind == _SEQUENTIAL:
                reader = ByteReader(code)
                reader.pos = pos
                fields = (operands(reader, start),) + _NO_REFS
                pos = reader.pos
            elif out is None:
                continue
            elif kind == _IMMEDIATE:
                fields = (operands(code, start),) + _NO_REFS
            else:
                fields = ((start + operands(code, start)[0],),) + _NO_REFS
            if out is not None:
                out.append(_new(Instruction, (start, mnemonic) + fields))
    except MalformedClassFile as exc:
        raise MalformedClassFile(exc.reason, body.file_base + start, body.source) from exc


def resolved_operands(body: MethodBody | None) -> Iterator[tuple[str, tuple]]:
    """The ``(mnemonic, fields)`` of each pool-indexed or ``newarray``
    instruction of an accepted body, in code order.

    ``fields`` are the instruction's fields after its mnemonic, as
    :func:`disassemble` resolved them at parse time: ``(operands, target,
    member, type_name, literal)``. Nothing is decoded or checked again;
    the other instructions are only stepped over. A method without a body
    has none.
    """
    if body is None:
        return
    code, resolved = body.code, body.resolved
    end = len(code)
    pos = 0
    while pos < end:
        start = pos
        mnemonic, kind, width, operands, _ = _FORMS[code[pos]]
        pos += width
        if kind == _RESOLVED:
            yield mnemonic, resolved[code[start:pos]]
        elif kind == _SEQUENTIAL:
            reader = ByteReader(code)
            reader.pos = pos
            operands(reader, start)
            pos = reader.pos


_LINE_ENTRIES = struct.Struct(">HH").iter_unpack


def _optional_class(pool: ConstantPool):
    """Resolver of a class index where 0 names no class (a root class's
    superclass, a catch-all handler's catch type)."""
    return lambda index: pool.class_name(index) if index else None


def _parse_code_attribute(data: bytes, pool: ConstantPool, file_base: int,
                          source: str | None) -> tuple[bytes, int, tuple]:
    """Split a Code attribute into (code bytes, code file offset, line table)."""
    reader = ByteReader(data, source, file_base)
    reader.u2()  # max_stack
    reader.u2()  # max_locals
    code_length = reader.u4()
    code_start = reader.pos
    code = reader.raw(code_length)
    exc_count = reader.u2()
    catch_type = _optional_class(pool)
    for _ in range(exc_count):
        reader.u2()
        reader.u2()
        reader.u2()
        reader.ref(catch_type)
    lines: list[tuple[int, int]] = []
    attr_count = reader.u2()
    for _ in range(attr_count):
        name = reader.ref(pool.utf8)
        length = reader.u4()
        payload_at = reader.pos
        payload = reader.raw(length)
        if name == "LineNumberTable":
            sub = ByteReader(payload, source, file_base + payload_at)
            entry_count = sub.u2()
            whole = min(entry_count, (length - 2) // 4)
            for start_pc, line in _LINE_ENTRIES(payload[2:2 + 4 * whole]):
                if line < 1:
                    raise MalformedClassFile("line number must be positive",
                                             file_base, source)
                if start_pc > code_length:
                    raise MalformedClassFile("line table offset beyond code",
                                             file_base, source)
                lines.append((start_pc, line))
            if whole < entry_count:
                sub.pos = 2 + 4 * whole
                sub.u2()
                sub.u2()  # one of the two reads fails: the table is truncated
    return code, file_base + code_start, tuple(lines)


def parse_class(data: bytes, source: str | None = None) -> ClassFile:
    """Parse class file bytes into a fully validated :class:`ClassFile`."""
    reader = ByteReader(data, source)
    if len(data) < 4 or reader.u4() != 0xCAFEBABE:
        raise MalformedClassFile("bad magic number", 0, source)
    minor = reader.u2()
    major = reader.u2()
    if not MIN_MAJOR_VERSION <= major <= MAX_MAJOR_VERSION:
        raise MalformedClassFile(
            f"unsupported major version {major}"
            f" (supported: {MIN_MAJOR_VERSION}..{MAX_MAJOR_VERSION})",
            reader.pos - 2, source)
    pool = parse_constant_pool(reader)
    access_flags = reader.u2()
    class_name = _check_internal_name(reader.ref(pool.class_name), reader, "class name")
    super_name = reader.ref(_optional_class(pool))
    if super_name is None:
        if class_name != ROOT_OBJECT_CLASS:
            raise reader.fail(f"class {class_name} lacks a superclass")
    else:
        super_name = _check_internal_name(super_name, reader, "superclass name")
    interfaces = tuple(
        _check_internal_name(reader.ref(pool.class_name), reader, "interface name")
        for _ in range(reader.u2()))

    # fields: validated and skipped, the code model does not retain them
    for _ in range(reader.u2()):
        reader.u2()
        reader.ref(pool.utf8)
        reader.ref(pool.utf8)
        for _ in range(reader.u2()):
            reader.ref(pool.utf8)
            reader.raw(reader.u4())

    # methods: structure first; bodies checked after class attributes are
    # read, since invokedynamic operands need BootstrapMethods
    raw_methods = []
    for _ in range(reader.u2()):
        m_flags = reader.u2()
        m_name = reader.ref(pool.utf8)
        m_desc = reader.ref(pool.utf8)
        try:
            parse_descriptor(m_desc)
        except Exception as exc:
            raise reader.fail(f"invalid method descriptor {m_desc!r}: {exc}") from exc
        code_info = None
        names: list[str] = []
        for _ in range(reader.u2()):
            a_name = reader.ref(pool.utf8)
            names.append(a_name)
            length = reader.u4()
            payload_base = reader.pos
            payload = reader.raw(length)
            if a_name == "Code":
                if code_info is not None:
                    raise reader.fail(f"duplicate Code attribute on {m_name}{m_desc}")
                code_info = _parse_code_attribute(payload, pool, payload_base, source)
        abstract_or_native = bool(m_flags & (ACC_ABSTRACT | ACC_NATIVE))
        if abstract_or_native and code_info is not None:
            raise reader.fail(f"abstract/native method {m_name}{m_desc} has code")
        if not abstract_or_native and code_info is None:
            raise reader.fail(f"method {m_name}{m_desc} lacks a Code attribute")
        raw_methods.append((m_name, m_desc, m_flags, code_info, tuple(names)))

    bootstrap_methods: list[tuple[str, str, str]] = []
    class_attr_names: list[str] = []
    source_file = None
    for _ in range(reader.u2()):
        a_name = reader.ref(pool.utf8)
        class_attr_names.append(a_name)
        length = reader.u4()
        payload_at = reader.pos
        payload = reader.raw(length)
        if a_name == "SourceFile":
            source_file = ByteReader(payload, source, payload_at).ref(pool.utf8)
        elif a_name == "BootstrapMethods":
            bootstrap_methods = _parse_bootstrap_methods(
                ByteReader(payload, source, payload_at), pool)

    if reader.pos != len(data):
        raise reader.fail("trailing bytes after class structure")

    resolved: dict[bytes, tuple] = {}
    methods = []
    seen: set[tuple[str, str]] = set()
    for m_name, m_desc, m_flags, code_info, names in raw_methods:
        if (m_name, m_desc) in seen:
            raise MalformedClassFile(f"duplicate method {m_name}{m_desc}", 0, source)
        seen.add((m_name, m_desc))
        body = None
        lines: tuple[tuple[int, int], ...] = ()
        if code_info is not None:
            code, code_base, lines = code_info
            body = MethodBody(code, code_base, pool, bootstrap_methods, source, resolved)
            disassemble(body, None)
        methods.append(MethodInfo(m_name, m_desc, m_flags, lines, names, body))

    return ClassFile(
        class_name=class_name,
        super_name=super_name,
        interfaces=interfaces,
        access_flags=access_flags,
        methods=tuple(methods),
        source_file=source_file,
        constant_pool=pool,
        version=(major, minor),
        attribute_names=tuple(class_attr_names),
    )


def render_method(cf: ClassFile, ref: MethodRef) -> str:
    """Deterministic one-line-per-instruction listing of a method body."""
    if ref.in_class != cf.class_name:
        raise MethodNotFound(f"{ref.text} does not belong to {cf.class_name}")
    method = cf.find_method(ref.name, ref.descriptor)
    if method is None:
        raise MethodNotFound(f"{cf.class_name} has no method {ref.name}{ref.descriptor}")
    lines = [ref.text]
    line_at = {}
    for start_pc, line in method.line_numbers:
        line_at.setdefault(start_pc, line)
    for ins in method.instructions:
        text = f"{ins.offset}: {ins.mnemonic}"
        if ins.operands:
            rendered = ", ".join(
                op if isinstance(op, str) else str(op) for op in ins.operands)
            text += f" {rendered}"
        if ins.offset in line_at:
            text += f"  // line {line_at[ins.offset]}"
        lines.append(text)
    return "\n".join(lines) + "\n"
