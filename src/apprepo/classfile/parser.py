"""Class file parsing: binary format to an inspectable code model.

Everything is decoded eagerly at parse time, including method bodies,
so a returned :class:`ClassFile` is fully validated: all constant pool
references resolve, all opcodes are known, all offsets are in range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..errors import MalformedClassFile, MethodNotFound
from . import constant_pool as cp
from .constant_pool import ByteReader, ConstantPool, parse_constant_pool, quote_string
from .descriptors import parse_descriptor
from .opcodes import ARRAY_TYPES, INVOKE_KINDS, OPCODES, WIDE_TARGETS

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


@dataclass(frozen=True)
class MethodRef:
    """A method named by class, name and descriptor."""

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


@dataclass(frozen=True)
class Instruction:
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


@dataclass(frozen=True)
class CallSite:
    """An invoke-family instruction inside a method body."""

    caller: MethodRef
    kind: str  # static | special | virtual | interface | dynamic
    declared_target: MethodRef
    offset: int


@dataclass(frozen=True)
class MethodInfo:
    """A parsed method: flags, disassembled body and line number table."""

    name: str
    descriptor: str
    access_flags: int
    instructions: tuple[Instruction, ...] = ()
    line_numbers: tuple[tuple[int, int], ...] = ()
    attribute_names: tuple[str, ...] = ()

    @property
    def is_abstract(self) -> bool:
        return bool(self.access_flags & ACC_ABSTRACT)

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & ACC_STATIC)

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
    """A fully decoded class file.

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


def _parse_bootstrap_methods(data: bytes, pool: ConstantPool,
                             reader: ByteReader) -> list[tuple[str, str, str]]:
    """Decode a BootstrapMethods attribute into bootstrap method triples."""
    sub = ByteReader(data, reader.source)
    count = sub.u2()
    methods = []
    for _ in range(count):
        handle_idx = sub.u2()
        kind, ref_idx = pool.entry(handle_idx, cp.CONST_METHOD_HANDLE).value
        got = pool.entry(ref_idx)
        if got.tag not in (cp.CONST_METHODREF, cp.CONST_INTERFACE_METHODREF):
            raise reader.fail("bootstrap method handle does not reference a method")
        methods.append(pool.member_ref(ref_idx))
        arg_count = sub.u2()
        for _ in range(arg_count):
            pool.entry(sub.u2())
    return methods


def disassemble(code: bytes, pool: ConstantPool,
                bootstrap_methods: list[tuple[str, str, str]],
                file_base: int, source: str | None) -> tuple[Instruction, ...]:
    """Decode a method's code array into instructions.

    ``file_base`` is the code array's byte offset within the class file,
    used so parse errors report file positions rather than code-relative
    ones.
    """
    reader = ByteReader(code, source)
    out: list[Instruction] = []

    def fail(message: str, at: int) -> MalformedClassFile:
        return MalformedClassFile(message, file_base + at, source)

    while reader.pos < len(code):
        offset = reader.pos
        opcode = reader.u1()
        if opcode not in OPCODES:
            raise fail(f"unknown opcode 0x{opcode:02x}", offset)
        mnemonic, fmt = OPCODES[opcode]
        try:
            out.append(_decode_one(reader, offset, mnemonic, fmt, pool, bootstrap_methods))
        except MalformedClassFile as exc:
            if exc.offset >= file_base:
                raise
            raise fail(exc.reason, offset) from exc
    return tuple(out)


def _decode_one(reader: ByteReader, offset: int, mnemonic: str, fmt: str,
                pool: ConstantPool,
                bootstrap_methods: list[tuple[str, str, str]]) -> Instruction:
    if fmt == "":
        return Instruction(offset, mnemonic)
    if fmt == "s1":
        return Instruction(offset, mnemonic, (reader.s1(),))
    if fmt == "s2":
        return Instruction(offset, mnemonic, (reader.s2(),))
    if fmt == "u1":
        return Instruction(offset, mnemonic, (reader.u1(),))
    if fmt == "iinc":
        return Instruction(offset, mnemonic, (reader.u1(), reader.s1()))
    if fmt == "br2":
        return Instruction(offset, mnemonic, (offset + reader.s2(),))
    if fmt == "br4":
        return Instruction(offset, mnemonic, (offset + reader.s4(),))
    if fmt == "atype":
        code = reader.u1()
        if code not in ARRAY_TYPES:
            raise reader.fail(f"invalid array type code {code}")
        return Instruction(offset, mnemonic, (ARRAY_TYPES[code],))
    if fmt in ("cp1", "cp2"):
        index = reader.u1() if fmt == "cp1" else reader.u2()
        return _decode_pool_op(offset, mnemonic, index, pool, reader)
    if fmt == "iface":
        index = reader.u2()
        count = reader.u1()
        if reader.u1() != 0:
            raise reader.fail("invokeinterface fourth byte must be zero")
        cls, name, desc = pool.member_ref(index)
        ref = MethodRef(cls, name, desc)
        return Instruction(offset, mnemonic, (ref.text, count), target=ref)
    if fmt == "indy":
        index = reader.u2()
        if reader.u2() != 0:
            raise reader.fail("invokedynamic trailing bytes must be zero")
        bsm_idx, name, desc = pool.invoke_dynamic(index)
        if bsm_idx >= len(bootstrap_methods):
            raise reader.fail(f"invalid bootstrap method index {bsm_idx}")
        bsm_cls, bsm_name, bsm_desc = bootstrap_methods[bsm_idx]
        ref = MethodRef(bsm_cls, bsm_name, bsm_desc)
        return Instruction(offset, mnemonic, (f"{name}{desc}", f"bootstrap={ref.text}"),
                           target=ref)
    if fmt == "multi":
        index = reader.u2()
        dims = reader.u1()
        name = pool.class_name(index)
        return Instruction(offset, mnemonic, (name, dims), type_name=name)
    if fmt == "table":
        _align_pad(reader, offset)
        default = reader.s4()
        low = reader.s4()
        high = reader.s4()
        if high < low:
            raise reader.fail("tableswitch high < low")
        targets = [offset + reader.s4() for _ in range(high - low + 1)]
        operands = (f"default={offset + default}", f"low={low}", f"high={high}",
                    "targets=" + ",".join(str(t) for t in targets))
        return Instruction(offset, mnemonic, operands)
    if fmt == "lookup":
        _align_pad(reader, offset)
        default = reader.s4()
        npairs = reader.s4()
        if npairs < 0:
            raise reader.fail("lookupswitch negative pair count")
        pairs = [(reader.s4(), reader.s4()) for _ in range(npairs)]
        operands = (f"default={offset + default}",
                    "matches=" + ",".join(f"{m}:{offset + t}" for m, t in pairs))
        return Instruction(offset, mnemonic, operands)
    if fmt == "wide":
        sub = reader.u1()
        if sub not in WIDE_TARGETS:
            raise reader.fail(f"opcode 0x{sub:02x} cannot be widened")
        sub_name = OPCODES[sub][0]
        if sub_name == "iinc":
            return Instruction(offset, mnemonic, (sub_name, reader.u2(), reader.s2()))
        return Instruction(offset, mnemonic, (sub_name, reader.u2()))
    raise reader.fail(f"unhandled operand format {fmt!r}")


def _align_pad(reader: ByteReader, offset: int) -> None:
    pad = 3 - (offset % 4)
    for _ in range(pad):
        if reader.u1() != 0:
            raise reader.fail("nonzero switch padding")


def _decode_pool_op(offset: int, mnemonic: str, index: int, pool: ConstantPool,
                    reader: ByteReader) -> Instruction:
    if mnemonic in ("ldc", "ldc_w", "ldc2_w"):
        got = pool.entry(index)
        two_word = (cp.CONST_LONG, cp.CONST_DOUBLE)
        if mnemonic == "ldc2_w":
            allowed = two_word
        else:
            allowed = (cp.CONST_INTEGER, cp.CONST_FLOAT, cp.CONST_STRING, cp.CONST_CLASS,
                       cp.CONST_METHOD_TYPE, cp.CONST_METHOD_HANDLE)
        if got.tag not in allowed:
            raise reader.fail(f"{mnemonic} operand has unloadable tag {got.tag}")
        literal = None
        if got.tag in (cp.CONST_INTEGER, cp.CONST_FLOAT) + two_word:
            literal = got.value
        elif got.tag == cp.CONST_STRING:
            literal = pool.utf8(got.value)
        return Instruction(offset, mnemonic, (pool.render(index),), literal=literal)
    if mnemonic in ("getstatic", "putstatic", "getfield", "putfield"):
        member = pool.member_ref(index)
        cls, name, desc = member
        return Instruction(offset, mnemonic, (f"{cls}.{name}:{desc}",), member=member)
    if mnemonic in ("invokevirtual", "invokespecial", "invokestatic"):
        cls, name, desc = pool.member_ref(index)
        ref = MethodRef(cls, name, desc)
        return Instruction(offset, mnemonic, (ref.text,), target=ref)
    if mnemonic in ("new", "anewarray", "checkcast", "instanceof"):
        name = pool.class_name(index)
        return Instruction(offset, mnemonic, (name,), type_name=name)
    raise reader.fail(f"unexpected pool-indexed mnemonic {mnemonic}")


def _skip_attribute_payload(reader: ByteReader, length: int) -> bytes:
    return reader.raw(length)


def _parse_code_attribute(data: bytes, pool: ConstantPool, file_base: int,
                          source: str | None) -> tuple[bytes, int, tuple, tuple]:
    """Split a Code attribute into (code bytes, code file offset, line table, attr names)."""
    reader = ByteReader(data, source)
    reader.u2()  # max_stack
    reader.u2()  # max_locals
    code_length = reader.u4()
    code_start = reader.pos
    code = reader.raw(code_length)
    exc_count = reader.u2()
    for _ in range(exc_count):
        reader.u2()
        reader.u2()
        reader.u2()
        catch_type = reader.u2()
        if catch_type:
            pool.class_name(catch_type)
    lines: list[tuple[int, int]] = []
    names: list[str] = []
    attr_count = reader.u2()
    for _ in range(attr_count):
        name = pool.utf8(reader.u2())
        names.append(name)
        length = reader.u4()
        payload = reader.raw(length)
        if name == "LineNumberTable":
            sub = ByteReader(payload, source)
            entry_count = sub.u2()
            for _ in range(entry_count):
                start_pc = sub.u2()
                line = sub.u2()
                if line < 1:
                    raise MalformedClassFile("line number must be positive",
                                             file_base, source)
                if start_pc > code_length:
                    raise MalformedClassFile("line table offset beyond code",
                                             file_base, source)
                lines.append((start_pc, line))
    return code, file_base + code_start, tuple(lines), tuple(names)


def parse_class(data: bytes, source: str | None = None) -> ClassFile:
    """Parse class file bytes into a fully decoded :class:`ClassFile`."""
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
    class_name = _check_internal_name(pool.class_name(reader.u2()), reader, "class name")
    super_idx = reader.u2()
    if super_idx == 0:
        if class_name != ROOT_OBJECT_CLASS:
            raise reader.fail(f"class {class_name} lacks a superclass")
        super_name = None
    else:
        super_name = _check_internal_name(pool.class_name(super_idx), reader, "superclass name")
    interfaces = tuple(
        _check_internal_name(pool.class_name(reader.u2()), reader, "interface name")
        for _ in range(reader.u2()))

    # fields: validated and skipped, the code model does not retain them
    for _ in range(reader.u2()):
        reader.u2()
        pool.utf8(reader.u2())
        pool.utf8(reader.u2())
        for _ in range(reader.u2()):
            pool.utf8(reader.u2())
            _skip_attribute_payload(reader, reader.u4())

    # methods: structure first; bodies disassembled after class attributes
    # are read, since invokedynamic rendering needs BootstrapMethods
    raw_methods = []
    for _ in range(reader.u2()):
        m_flags = reader.u2()
        m_name = pool.utf8(reader.u2())
        m_desc = pool.utf8(reader.u2())
        try:
            parse_descriptor(m_desc)
        except Exception as exc:
            raise reader.fail(f"invalid method descriptor {m_desc!r}: {exc}") from exc
        code_info = None
        names: list[str] = []
        for _ in range(reader.u2()):
            a_name = pool.utf8(reader.u2())
            names.append(a_name)
            length = reader.u4()
            payload_base = reader.pos
            payload = _skip_attribute_payload(reader, length)
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
        a_name = pool.utf8(reader.u2())
        class_attr_names.append(a_name)
        length = reader.u4()
        payload = _skip_attribute_payload(reader, length)
        if a_name == "SourceFile":
            sub = ByteReader(payload, source)
            source_file = pool.utf8(sub.u2())
        elif a_name == "BootstrapMethods":
            bootstrap_methods = _parse_bootstrap_methods(payload, pool, reader)

    if reader.pos != len(data):
        raise reader.fail("trailing bytes after class structure")

    methods = []
    seen: set[tuple[str, str]] = set()
    for m_name, m_desc, m_flags, code_info, names in raw_methods:
        if (m_name, m_desc) in seen:
            raise MalformedClassFile(f"duplicate method {m_name}{m_desc}", 0, source)
        seen.add((m_name, m_desc))
        instructions: tuple[Instruction, ...] = ()
        lines: tuple[tuple[int, int], ...] = ()
        if code_info is not None:
            code, code_base, lines, _ = code_info
            instructions = disassemble(code, pool, bootstrap_methods, code_base, source)
        methods.append(MethodInfo(m_name, m_desc, m_flags, instructions, lines, names))

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


def extract_call_sites(cf: ClassFile) -> list[CallSite]:
    """All invoke-family sites of a class, in (method, offset) order."""
    sites: list[CallSite] = []
    for method in cf.methods:
        caller = method.ref(cf.class_name)
        for ins in method.instructions:
            kind = INVOKE_KINDS.get(ins.mnemonic)
            if kind is not None:
                sites.append(CallSite(caller, kind, ins.target, ins.offset))
    return sites


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


__all__ = [
    "ClassFile", "MethodInfo", "Instruction", "CallSite", "MethodRef",
    "parse_class", "extract_call_sites", "render_method", "quote_string",
    "ROOT_OBJECT_CLASS", "MAIN_NAME", "MAIN_DESCRIPTOR",
    "MIN_MAJOR_VERSION", "MAX_MAJOR_VERSION",
    "ACC_PUBLIC", "ACC_STATIC", "ACC_FINAL", "ACC_NATIVE",
    "ACC_INTERFACE", "ACC_ABSTRACT",
]
