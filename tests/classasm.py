"""Independent class file assembler used as the parsing oracle.

Builds class file bytes from explicit structure descriptions, written
straight off the published class file format. It shares no code or
tables with the package under test: opcode numbers, pool tags and
attribute layouts are spelled out here a second time, so agreement
between assembled structure and parsed structure is a real check.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

ACC_PUBLIC = 0x0001
ACC_PRIVATE = 0x0002
ACC_STATIC = 0x0008
ACC_FINAL = 0x0010
ACC_SUPER = 0x0020
ACC_NATIVE = 0x0100
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400
ACC_MODULE = 0x8000

_BARE = {
    "nop": 0x00, "aconst_null": 0x01,
    "iconst_m1": 0x02, "iconst_0": 0x03, "iconst_1": 0x04, "iconst_2": 0x05,
    "iconst_3": 0x06, "iconst_4": 0x07, "iconst_5": 0x08,
    "iload_0": 0x1A, "iload_1": 0x1B, "iload_2": 0x1C, "iload_3": 0x1D,
    "aload_0": 0x2A, "aload_1": 0x2B, "aload_2": 0x2C, "aload_3": 0x2D,
    "istore_0": 0x3B, "istore_1": 0x3C, "istore_2": 0x3D, "istore_3": 0x3E,
    "astore_0": 0x4B, "astore_1": 0x4C, "astore_2": 0x4D, "astore_3": 0x4E,
    "pop": 0x57, "pop2": 0x58, "dup": 0x59, "swap": 0x5F,
    "iadd": 0x60, "isub": 0x64, "imul": 0x68, "idiv": 0x6C, "ineg": 0x74,
    "ireturn": 0xAC, "areturn": 0xB0, "return": 0xB1,
    "arraylength": 0xBE, "athrow": 0xBF,
}

_BRANCHES = {
    "ifeq": 0x99, "ifne": 0x9A, "iflt": 0x9B, "ifge": 0x9C,
    "if_icmpeq": 0x9F, "if_icmpne": 0xA0, "if_icmplt": 0xA1, "if_icmpge": 0xA2,
    "if_acmpeq": 0xA5, "if_acmpne": 0xA6,
    "goto": 0xA7, "ifnull": 0xC6, "ifnonnull": 0xC7,
}

_MEMBER_OPS = {
    "getstatic": 0xB2, "putstatic": 0xB3, "getfield": 0xB4, "putfield": 0xB5,
    "invokevirtual": 0xB6, "invokespecial": 0xB7, "invokestatic": 0xB8,
}

_TYPE_OPS = {"new": 0xBB, "anewarray": 0xBD, "checkcast": 0xC0, "instanceof": 0xC1}

_LOCAL_OPS = {"iload": 0x15, "aload": 0x19, "istore": 0x36, "astore": 0x3A, "ret": 0xA9}

_NEWARRAY_CODES = {"boolean": 4, "char": 5, "float": 6, "double": 7,
                   "byte": 8, "short": 9, "int": 10, "long": 11}


def modified_utf8(text: str) -> bytes:
    """JVMS 4.4.7 modified UTF-8, as javac writes it.

    Each UTF-16 code unit becomes its own 1-3 byte sequence: NUL is
    ``C0 80``, and a supplementary character is its two surrogates.
    """
    data = text.encode("utf-16-be", "surrogatepass")
    out = bytearray()
    for (unit,) in struct.iter_unpack(">H", data):
        if 0 < unit < 0x80:
            out.append(unit)
        elif unit < 0x800:
            out += bytes([0xC0 | unit >> 6, 0x80 | unit & 0x3F])
        else:
            out += bytes([0xE0 | unit >> 12, 0x80 | unit >> 6 & 0x3F, 0x80 | unit & 0x3F])
    return bytes(out)


class Pool:
    """Interning constant pool builder (1-based, wide entries take 2 slots)."""

    def __init__(self):
        self._slots: list[bytes | None] = []
        self._index: dict = {}

    def _add(self, key, data: bytes, wide: bool = False) -> int:
        if key in self._index:
            return self._index[key]
        self._slots.append(data)
        index = len(self._slots)
        if wide:
            self._slots.append(None)
        self._index[key] = index
        return index

    def utf8(self, text: str) -> int:
        raw = modified_utf8(text)
        return self._add(("u", text), b"\x01" + struct.pack(">H", len(raw)) + raw)

    def klass(self, name: str) -> int:
        name_idx = self.utf8(name)
        return self._add(("c", name), b"\x07" + struct.pack(">H", name_idx))

    def nat(self, name: str, desc: str) -> int:
        n, d = self.utf8(name), self.utf8(desc)
        return self._add(("n", name, desc), b"\x0c" + struct.pack(">HH", n, d))

    def member(self, tag: int, cls: str, name: str, desc: str) -> int:
        c, n = self.klass(cls), self.nat(name, desc)
        return self._add((tag, cls, name, desc),
                         bytes([tag]) + struct.pack(">HH", c, n))

    def fieldref(self, cls, name, desc):
        return self.member(9, cls, name, desc)

    def methodref(self, cls, name, desc):
        return self.member(10, cls, name, desc)

    def iface_methodref(self, cls, name, desc):
        return self.member(11, cls, name, desc)

    def string(self, text: str) -> int:
        u = self.utf8(text)
        return self._add(("s", text), b"\x08" + struct.pack(">H", u))

    def integer(self, value: int) -> int:
        return self._add(("i", value), b"\x03" + struct.pack(">i", value))

    def float_(self, value: float) -> int:
        return self._add(("f", value), b"\x04" + struct.pack(">f", value))

    def long_(self, value: int) -> int:
        return self._add(("j", value), b"\x05" + struct.pack(">q", value), wide=True)

    def double(self, value: float) -> int:
        return self._add(("d", value), b"\x06" + struct.pack(">d", value), wide=True)

    def method_handle(self, kind: int, ref_index: int) -> int:
        return self._add(("h", kind, ref_index),
                         b"\x0f" + struct.pack(">BH", kind, ref_index))

    def invoke_dynamic(self, bsm_index: int, name: str, desc: str) -> int:
        nat = self.nat(name, desc)
        return self._add(("y", bsm_index, name, desc),
                         b"\x12" + struct.pack(">HH", bsm_index, nat))

    def dynamic(self, bsm_index: int, name: str, desc: str) -> int:
        nat = self.nat(name, desc)
        return self._add(("k", bsm_index, name, desc),
                         b"\x11" + struct.pack(">HH", bsm_index, nat))

    def module(self, name: str) -> int:
        return self._add(("m", name), b"\x13" + struct.pack(">H", self.utf8(name)))

    def package(self, name: str) -> int:
        return self._add(("p", name), b"\x14" + struct.pack(">H", self.utf8(name)))

    def build(self) -> bytes:
        parts = [struct.pack(">H", len(self._slots) + 1)]
        parts += [s for s in self._slots if s is not None]
        return b"".join(parts)


def _op_size(op: tuple, offset: int) -> int:
    name = op[0]
    if name == "label":
        return 0
    if name == "raw":
        return len(op[1])
    if name in _BARE:
        return 1
    if name in ("bipush", "newarray"):
        return 2
    if name in _LOCAL_OPS:
        return 2
    if name in ("ldc_int", "ldc_float", "ldc_str", "ldc_class", "ldc_dynamic"):
        return 2
    if name in ("sipush", "iinc"):
        return 3
    if name in ("ldc_w_str", "ldc2_long", "ldc2_double", "ldc_w_dynamic", "ldc2_dynamic"):
        return 3
    if name in _MEMBER_OPS or name in _TYPE_OPS:
        return 3
    if name in _BRANCHES:
        return 3
    if name == "goto_w":
        return 5
    if name in ("invokeinterface", "invokedynamic"):
        return 5
    if name == "multianewarray":
        return 4
    if name == "wide_iload":
        return 4
    if name == "wide_iinc":
        return 6
    pad = 3 - (offset % 4)
    if name == "tableswitch":
        return 1 + pad + 12 + 4 * len(op[3])
    if name == "lookupswitch":
        return 1 + pad + 8 + 8 * len(op[2])
    raise ValueError(f"assembler does not know op {name!r}")


def assemble_code(ops: list[tuple], pool: Pool) -> bytes:
    """Two-pass assembly of an op list into a code array."""
    labels: dict[str, int] = {}
    offset = 0
    for op in ops:
        if op[0] == "label":
            labels[op[1]] = offset
        else:
            offset += _op_size(op, offset)

    out = bytearray()
    offset = 0
    for op in ops:
        name = op[0]
        if name == "label":
            continue
        size = _op_size(op, offset)
        if name == "raw":
            out += op[1]
        elif name in _BARE:
            out.append(_BARE[name])
        elif name == "bipush":
            out += struct.pack(">Bb", 0x10, op[1])
        elif name == "sipush":
            out += struct.pack(">Bh", 0x11, op[1])
        elif name in _LOCAL_OPS:
            out += struct.pack(">BB", _LOCAL_OPS[name], op[1])
        elif name == "iinc":
            out += struct.pack(">BBb", 0x84, op[1], op[2])
        elif name == "ldc_int":
            out += struct.pack(">BB", 0x12, pool.integer(op[1]))
        elif name == "ldc_float":
            out += struct.pack(">BB", 0x12, pool.float_(op[1]))
        elif name == "ldc_str":
            out += struct.pack(">BB", 0x12, pool.string(op[1]))
        elif name == "ldc_class":
            out += struct.pack(">BB", 0x12, pool.klass(op[1]))
        elif name == "ldc_w_str":
            out += struct.pack(">BH", 0x13, pool.string(op[1]))
        elif name == "ldc2_long":
            out += struct.pack(">BH", 0x14, pool.long_(op[1]))
        elif name == "ldc2_double":
            out += struct.pack(">BH", 0x14, pool.double(op[1]))
        elif name == "ldc_dynamic":  # (name, bootstrap index, constant name, descriptor)
            out += struct.pack(">BB", 0x12, pool.dynamic(*op[1:]))
        elif name == "ldc_w_dynamic":
            out += struct.pack(">BH", 0x13, pool.dynamic(*op[1:]))
        elif name == "ldc2_dynamic":
            out += struct.pack(">BH", 0x14, pool.dynamic(*op[1:]))
        elif name in _MEMBER_OPS:
            _, cls, member, desc = op
            if name.startswith("invoke"):
                idx = pool.methodref(cls, member, desc)
            else:
                idx = pool.fieldref(cls, member, desc)
            out += struct.pack(">BH", _MEMBER_OPS[name], idx)
        elif name == "invokeinterface":
            _, cls, member, desc, count = op
            idx = pool.iface_methodref(cls, member, desc)
            out += struct.pack(">BHBB", 0xB9, idx, count, 0)
        elif name == "invokedynamic":
            _, member, desc, bsm_index = op
            idx = pool.invoke_dynamic(bsm_index, member, desc)
            out += struct.pack(">BHH", 0xBA, idx, 0)
        elif name in _TYPE_OPS:
            out += struct.pack(">BH", _TYPE_OPS[name], pool.klass(op[1]))
        elif name == "newarray":
            out += struct.pack(">BB", 0xBC, _NEWARRAY_CODES[op[1]])
        elif name == "multianewarray":
            out += struct.pack(">BHB", 0xC5, pool.klass(op[1]), op[2])
        elif name in _BRANCHES:
            out += struct.pack(">Bh", _BRANCHES[name], labels[op[1]] - offset)
        elif name == "goto_w":
            out += struct.pack(">Bi", 0xC8, labels[op[1]] - offset)
        elif name == "wide_iload":
            out += struct.pack(">BBH", 0xC4, 0x15, op[1])
        elif name == "wide_iinc":
            out += struct.pack(">BBHh", 0xC4, 0x84, op[1], op[2])
        elif name == "tableswitch":
            _, default_label, low, targets = op
            out.append(0xAA)
            out += b"\x00" * (3 - (offset % 4))
            out += struct.pack(">iii", labels[default_label] - offset, low,
                               low + len(targets) - 1)
            for target in targets:
                out += struct.pack(">i", labels[target] - offset)
        elif name == "lookupswitch":
            _, default_label, pairs = op
            out.append(0xAB)
            out += b"\x00" * (3 - (offset % 4))
            out += struct.pack(">ii", labels[default_label] - offset, len(pairs))
            for match, target in pairs:
                out += struct.pack(">ii", match, labels[target] - offset)
        else:
            raise ValueError(f"assembler does not know op {name!r}")
        offset += size
    return bytes(out)


@dataclass
class AsmMethod:
    name: str
    desc: str
    flags: int = ACC_PUBLIC
    code: list[tuple] | None = None  # None = abstract/native
    lines: tuple[tuple[int, int], ...] = ()
    # exception table entries over the whole code, handler at 0: a class
    # name, or a raw pool index written as it is (0 catches anything)
    catch_types: tuple[str | int, ...] = ()
    # attributes inside Code after LineNumberTable: (name or raw pool index, payload)
    code_attributes: tuple[tuple[str | int, bytes], ...] = ()
    max_stack: int = 8
    max_locals: int = 8

    def mnemonics(self) -> list[str]:
        """Ground-truth mnemonic sequence the parser must reproduce."""
        if self.code is None:
            return []
        out = []
        for op in self.code:
            name = op[0]
            if name == "label":
                continue
            if name in ("ldc_int", "ldc_float", "ldc_str", "ldc_class", "ldc_dynamic"):
                out.append("ldc")
            elif name in ("ldc_w_str", "ldc_w_dynamic"):
                out.append("ldc_w")
            elif name in ("ldc2_long", "ldc2_double", "ldc2_dynamic"):
                out.append("ldc2_w")
            elif name in ("wide_iload", "wide_iinc"):
                out.append("wide")
            else:
                out.append(name)
        return out


@dataclass
class AsmClass:
    name: str
    super_name: str | None = "java/lang/Object"
    interfaces: tuple[str, ...] = ()
    flags: int = ACC_PUBLIC | ACC_SUPER
    fields: tuple[tuple[str, str, int], ...] = ()  # (name, desc, flags)
    methods: list[AsmMethod] = field(default_factory=list)
    source_file: str | int | None = None  # an int is written as a raw pool index
    # static bootstrap methods as (class, name, descriptor), or a raw pool
    # index written as the handle; each takes bootstrap_arguments as its
    # arguments: raw pool indices, or (bootstrap index, name, descriptor)
    # of a Dynamic entry
    bootstrap_methods: tuple[tuple[str, str, str] | int, ...] = ()
    bootstrap_arguments: tuple[int | tuple[int, str, str], ...] = ()
    inner_class: tuple[str, str, str] | None = None  # (inner, outer, simple name)
    extra_attribute: str | None = None  # unknown attribute, skipped by parsers
    # a Module attribute naming a Module entry of this name, and a
    # ModulePackages attribute naming a Package entry for each of packages
    module: str | None = None
    packages: tuple[str, ...] = ()
    major: int = 50
    # attribute name -> bytes appended to the payload of every attribute of
    # that name, after its contents: an attribute longer than its contents
    padding: dict[str, bytes] = field(default_factory=dict)

    def method(self, name: str, desc: str) -> AsmMethod:
        for m in self.methods:
            if m.name == name and m.desc == desc:
                return m
        raise KeyError(f"{self.name}.{name}{desc}")


def _utf8_index(pool: Pool, value: str | int) -> int:
    return value if isinstance(value, int) else pool.utf8(value)


def _attribute(pool: Pool, name: str | int, payload: bytes,
               padding: dict[str, bytes] | None = None) -> bytes:
    payload += (padding or {}).get(name, b"")
    return struct.pack(">HI", _utf8_index(pool, name), len(payload)) + payload


def _method_bytes(method: AsmMethod, pool: Pool, padding: dict[str, bytes]) -> bytes:
    out = struct.pack(">HHH", method.flags, pool.utf8(method.name), pool.utf8(method.desc))
    attrs = []
    if method.code is not None:
        code = assemble_code(method.code, pool)
        body = struct.pack(">HHI", method.max_stack, method.max_locals, len(code))
        body += code
        body += struct.pack(">H", len(method.catch_types))
        for catch in method.catch_types:
            catch_index = catch if isinstance(catch, int) else pool.klass(catch)
            body += struct.pack(">HHHH", 0, len(code), 0, catch_index)
        code_attrs = []
        if method.lines:
            table = struct.pack(">H", len(method.lines))
            for pc, line in method.lines:
                table += struct.pack(">HH", pc, line)
            code_attrs.append(_attribute(pool, "LineNumberTable", table, padding))
        code_attrs += [_attribute(pool, name, payload) for name, payload in method.code_attributes]
        body += struct.pack(">H", len(code_attrs)) + b"".join(code_attrs)
        attrs.append(_attribute(pool, "Code", body, padding))
    out += struct.pack(">H", len(attrs)) + b"".join(attrs)
    return out


def assemble_class(spec: AsmClass) -> bytes:
    pool = Pool()
    this_idx = pool.klass(spec.name)
    super_idx = pool.klass(spec.super_name) if spec.super_name else 0
    iface_idx = [pool.klass(i) for i in spec.interfaces]

    field_bytes = b""
    for f_name, f_desc, f_flags in spec.fields:
        field_bytes += struct.pack(
            ">HHHH", f_flags, pool.utf8(f_name), pool.utf8(f_desc), 0)

    method_bytes = b"".join(_method_bytes(m, pool, spec.padding) for m in spec.methods)

    class_attrs = []
    if spec.source_file is not None:
        class_attrs.append(_attribute(
            pool, "SourceFile", struct.pack(">H", _utf8_index(pool, spec.source_file)),
            spec.padding))
    if spec.bootstrap_methods:
        payload = struct.pack(">H", len(spec.bootstrap_methods))
        for method in spec.bootstrap_methods:
            if isinstance(method, int):
                handle = method
            else:
                handle = pool.method_handle(6, pool.methodref(*method))  # REF_invokeStatic
            payload += struct.pack(">HH", handle, len(spec.bootstrap_arguments))
            payload += b"".join(
                struct.pack(">H", arg if isinstance(arg, int) else pool.dynamic(*arg))
                for arg in spec.bootstrap_arguments)
        class_attrs.append(_attribute(pool, "BootstrapMethods", payload, spec.padding))
    if spec.inner_class is not None:
        inner, outer, simple = spec.inner_class
        payload = struct.pack(">HHHHH", 1, pool.klass(inner), pool.klass(outer),
                              pool.utf8(simple), ACC_PUBLIC | ACC_STATIC)
        class_attrs.append(_attribute(pool, "InnerClasses", payload))
    if spec.module is not None:
        # module name, flags, version, and no requires, exports, opens, uses or provides
        payload = struct.pack(">HHH5H", pool.module(spec.module), 0, 0, 0, 0, 0, 0, 0)
        class_attrs.append(_attribute(pool, "Module", payload))
    if spec.packages:
        payload = struct.pack(f">H{len(spec.packages)}H", len(spec.packages),
                              *map(pool.package, spec.packages))
        class_attrs.append(_attribute(pool, "ModulePackages", payload))
    if spec.extra_attribute is not None:
        class_attrs.append(_attribute(pool, spec.extra_attribute, b"\xde\xad\xbe\xef"))

    tail = struct.pack(">HHH", spec.flags, this_idx, super_idx)
    tail += struct.pack(">H", len(iface_idx))
    for idx in iface_idx:
        tail += struct.pack(">H", idx)
    tail += struct.pack(">H", len(spec.fields)) + field_bytes
    tail += struct.pack(">H", len(spec.methods)) + method_bytes
    tail += struct.pack(">H", len(class_attrs)) + b"".join(class_attrs)

    head = struct.pack(">IHH", 0xCAFEBABE, 0, spec.major)
    return head + pool.build() + tail
