"""Class file parsing against the independent assembler's ground truth."""

import dataclasses
import re
import shutil
import struct
import subprocess
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apprepo.classfile import (
    MethodRef,
    parse_class,
    parse_descriptor,
    render_method,
)
from apprepo.classfile.constant_pool import ConstantEntry, ConstantPool, parse_constant_pool
from apprepo.classfile import parser
from apprepo.classfile.opcodes import MNEMONICS, OPCODES, WIDE_TARGETS
from apprepo.classfile.parser import (
    _FORMS,
    _RESOLVED,
    Instruction,
    MethodBody,
    _check_body,
    disassemble,
)
from apprepo.errors import MalformedClassFile, MalformedDescriptor, MethodNotFound

from classasm import (ACC_ABSTRACT, ACC_MODULE, ACC_PUBLIC, ACC_STATIC, AsmClass, AsmMethod,
                      assemble_class)
from damage import fixture_classes
from oracle_cha import invoke_sites


def simple_class(name="A", methods=None, **kwargs) -> bytes:
    return assemble_class(AsmClass(name, methods=methods or [], **kwargs))


# --- parse_class basics ----------------------------------------------------

def test_minimal_class():
    cf = parse_class(simple_class())
    assert cf.class_name == "A"
    assert cf.super_name == "java/lang/Object"
    assert cf.methods == ()
    assert cf.interfaces == ()


def test_empty_bytes_fail_at_offset_zero():
    with pytest.raises(MalformedClassFile) as err:
        parse_class(b"")
    assert err.value.offset == 0


def test_bad_magic():
    with pytest.raises(MalformedClassFile) as err:
        parse_class(b"\x00\x01\x02\x03" + b"\x00" * 16)
    assert err.value.offset == 0


def test_truncated_file():
    data = simple_class()
    with pytest.raises(MalformedClassFile):
        parse_class(data[: len(data) // 2])


def test_trailing_bytes_rejected():
    with pytest.raises(MalformedClassFile, match="trailing"):
        parse_class(simple_class() + b"\x00")


@pytest.mark.parametrize("major,ok", [(44, False), (45, True), (50, True),
                                      (52, True), (53, True), (61, True), (62, False)])
def test_major_version_window(major, ok):
    data = simple_class(major=major)
    if ok:
        assert parse_class(data).version[0] == major
    else:
        with pytest.raises(MalformedClassFile, match="major version"):
            parse_class(data)


def test_two_method_fixture_has_exactly_declared_methods():
    data = simple_class("T", methods=[
        AsmMethod("<init>", "()V", ACC_PUBLIC, [
            ("aload_0",), ("invokespecial", "java/lang/Object", "<init>", "()V"),
            ("return",)]),
        AsmMethod("main", "([Ljava/lang/String;)V", ACC_PUBLIC,
                  [("invokestatic", "T", "a", "()V"), ("return",)]),
        AsmMethod("a", "()V", ACC_PUBLIC, [("return",)]),
    ])
    cf = parse_class(data)
    assert [(m.name, m.descriptor) for m in cf.methods] == [
        ("<init>", "()V"), ("main", "([Ljava/lang/String;)V"), ("a", "()V")]


def test_duplicate_method_rejected():
    data = simple_class("D", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)]),
        AsmMethod("m", "()V", ACC_PUBLIC, [("nop",), ("return",)]),
    ])
    with pytest.raises(MalformedClassFile, match="duplicate method"):
        parse_class(data)


def test_unknown_opcode_is_an_error():
    data = simple_class("U", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("raw", b"\xcb"), ("return",)])])
    with pytest.raises(MalformedClassFile, match="unknown opcode 0xcb"):
        parse_class(data)


def test_invalid_pool_index_in_code():
    import struct
    data = simple_class("P", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC,
                  [("raw", struct.pack(">BH", 0xB8, 999)), ("return",)])])
    with pytest.raises(MalformedClassFile, match="invalid constant pool index"):
        parse_class(data)


def test_pool_validation_failure_reason_and_file_offset():
    # #1 Class names #2, which holds an Integer instead of a Utf8
    head = struct.pack(">IHH", 0xCAFEBABE, 0, 50)
    pool = struct.pack(">H", 3) + struct.pack(">BH", 7, 2) + struct.pack(">Bi", 3, 0)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(head + pool + b"\x00" * 8, source="X.class")
    assert err.value.reason == "constant pool index 2 holds Integer, expected Utf8"
    assert " at offset" not in err.value.reason
    assert err.value.offset == len(head) + 2  # the tag byte of #1, after the pool count
    assert err.value.source == "X.class"


@pytest.mark.parametrize("entries,reason", [
    # #1 is a MethodHandle naming itself: rendering it once recursed forever
    ([struct.pack(">BBH", 15, 6, 1)],
     "constant pool index 1 holds MethodHandle, expected a member reference"),
    ([struct.pack(">BH", 1, 1) + b"x", struct.pack(">BBH", 15, 6, 1)],
     "constant pool index 1 holds Utf8, expected a member reference"),
], ids=["self", "utf8"])
def test_method_handle_must_reference_a_member(entries, reason):
    head = struct.pack(">IHH", 0xCAFEBABE, 0, 50)
    pool = struct.pack(">H", len(entries) + 1) + b"".join(entries)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(head + pool + b"\x00" * 8)
    assert err.value.reason == reason
    assert err.value.offset == len(head + pool) - len(entries[-1])  # the handle's tag byte


def read_pool(data: bytes) -> ConstantPool:
    """The pool of the table that ``data`` holds, its count first."""
    pool, end = parse_constant_pool(data, 0)
    assert end == len(data)
    return pool


def slots(pool: ConstantPool) -> list[ConstantEntry | None]:
    """Each slot of ``pool`` as its entry, None where it holds none."""
    return [pool.entry(index) if tag else None for index, tag in enumerate(pool.tags)]


# #1-#6 end in #6, a Methodref p/A.m()V
HANDLE_POOL = [struct.pack(">BH", 1, 3) + b"p/A", struct.pack(">BH", 7, 1),
               struct.pack(">BH", 1, 1) + b"m", struct.pack(">BH", 1, 3) + b"()V",
               struct.pack(">BHH", 12, 3, 4), struct.pack(">BHH", 10, 2, 5)]


@pytest.mark.parametrize("kind,reason", [
    (0, "invalid MethodHandle kind 0"),
    (10, "invalid MethodHandle kind 10"),
    (200, "invalid MethodHandle kind 200"),
    (1, "constant pool index 6 holds Methodref, expected Fieldref"),  # REF_getField
    (9, "constant pool index 6 holds Methodref, expected InterfaceMethodref"),
])
def test_method_handle_kind_must_match_the_entry_it_names(kind, reason):
    def pool(kind: int) -> bytes:  # #7 is a MethodHandle of this kind naming #6
        return (struct.pack(">H", len(HANDLE_POOL) + 2) + b"".join(HANDLE_POOL)
                + struct.pack(">BBH", 15, kind, 6))

    assert read_pool(pool(6)).entry(7) == (15, (6, 6))
    data = pool(kind)
    with pytest.raises(MalformedClassFile) as err:
        parse_constant_pool(data, 0)
    assert err.value.reason == reason
    assert err.value.offset == len(data) - 4  # the handle's tag byte


def handle_pool(kind: int, name: str, tag: int = 10) -> bytes:
    """A pool whose #7 is a MethodHandle of ``kind`` naming #6, a member
    reference of ``tag`` to p/A.``name``()V."""
    return struct.pack(">H", 8) + b"".join([
        struct.pack(">BH", 1, 3) + b"p/A", struct.pack(">BH", 7, 1),
        struct.pack(">BH", 1, len(name)) + name.encode(), struct.pack(">BH", 1, 3) + b"()V",
        struct.pack(">BHH", 12, 3, 4), struct.pack(">BHH", tag, 2, 5),
        struct.pack(">BBH", 15, kind, 6)])


@pytest.mark.parametrize("kind,tag,name", [
    (5, 10, "<init>"), (6, 10, "<clinit>"), (6, 11, "<init>"), (7, 10, "<init>"),
    (7, 11, "<clinit>"), (9, 11, "<init>"), (9, 11, "<clinit>"),
    (8, 10, "m"), (8, 10, "<clinit>"),
])
def test_method_handle_names_no_special_method_unless_kind_8_names_init(kind, tag, name):
    allowed = "<init>" if kind == 8 else "m"
    assert read_pool(handle_pool(kind, allowed, tag)).entry(7) == (15, (kind, 6))
    data = handle_pool(kind, name, tag)
    with pytest.raises(MalformedClassFile) as err:
        parse_constant_pool(data, 0)
    rule = "must name <init>" if kind == 8 else "may not name <init> or <clinit>"
    assert err.value.reason == f"MethodHandle of kind {kind} {rule}, got {name}"
    assert err.value.offset == len(data) - 4  # the handle's tag byte


@pytest.mark.parametrize("kind", [6, 7])
def test_method_handle_names_an_interface_method_only_from_major_52(kind):
    def assembled(major: int) -> tuple[bytes, int]:
        """Class bytes whose bootstrap handle of ``kind`` names an
        InterfaceMethodref, and the handle's offset."""
        spec = AsmClass("P", methods=[AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])],
                        bootstrap_methods=(("p/B", "bsm", "()V"),), major=major)
        data = assemble_class(spec)
        entries = slots(parse_class(data).constant_pool)
        index = next(i for i, e in enumerate(entries) if e is not None and e.tag == 10)
        cls, name, desc = entries[index].value
        methodref = struct.pack(">BHH", 10, entries.index((7, cls)),
                                entries.index((12, (name, desc))))
        handle = struct.pack(">BBH", 15, 6, index)
        assert data.count(methodref) == data.count(handle) == 1
        data = data.replace(methodref, b"\x0b" + methodref[1:])
        return data.replace(handle, struct.pack(">BBH", 15, kind, index)), data.index(handle)

    data, _ = assembled(52)
    handles = [e.value for e in slots(parse_class(data).constant_pool)
               if e is not None and e.tag == 15]
    assert [kind for kind, _ in handles] == [kind]
    data, offset = assembled(51)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, source="P.class")
    assert err.value.reason == (f"MethodHandle of kind {kind} names an InterfaceMethodref,"
                                " which needs major version 52, got 51")
    assert (err.value.offset, err.value.source) == (offset, "P.class")


@pytest.mark.parametrize("tag,name", [(5, "Long"), (6, "Double")])
def test_long_or_double_in_the_last_pool_slot_is_malformed(tag, name):
    assert slots(read_pool(struct.pack(">HBq", 3, tag, 0)))[2] is None
    with pytest.raises(MalformedClassFile) as err:
        parse_constant_pool(struct.pack(">HBq", 2, tag, 0), 0)
    assert err.value.reason == (f"constant pool entry 1 is a {name} in the last slot,"
                                " which leaves no room for its second slot")
    assert err.value.offset == 2  # the entry's tag byte, after the pool count


# #1 Utf8 "a", #2 a Long whose second slot is #3, #4 a Class naming #1
SMALL_POOL = (struct.pack(">HBH", 5, 1, 1) + b"a" + struct.pack(">Bq", 5, 7)
              + struct.pack(">BH", 7, 1))


def test_pool_is_two_lists_and_makes_entries_on_demand():
    pool, end = parse_constant_pool(SMALL_POOL, 0, "P.class")
    assert end == len(SMALL_POOL)
    assert (pool.tags, pool.values) == ([0, 1, 5, 0, 7], [None, "a", 7, None, "a"])
    assert not hasattr(pool, "entries") and not hasattr(pool, "texts")
    got = pool.entry(4, 7)
    assert type(got) is ConstantEntry and got == (7, "a")
    assert pool.entry(2) == ConstantEntry(5, 7) and pool.utf8(1) == "a"


@pytest.mark.parametrize("index,tag,reason", [
    (0, None, "invalid constant pool index 0"),  # slot 0
    (3, None, "invalid constant pool index 3"),  # the Long's second slot
    (5, None, "invalid constant pool index 5"),  # the count
    (65535, 7, "invalid constant pool index 65535"),
    (4, 1, "constant pool index 4 holds Class, expected Utf8"),
    (2, 7, "constant pool index 2 holds Long, expected Class"),
], ids=["slot-0", "after-long", "count", "past-count", "class-for-utf8", "long-for-class"])
def test_pool_entry_rejects_a_slot_without_an_entry_of_the_kind(index, tag, reason):
    pool, _ = parse_constant_pool(SMALL_POOL, 0, "P.class")
    with pytest.raises(MalformedClassFile) as err:
        pool.entry(index, tag)
    assert (err.value.reason, err.value.offset, err.value.source) == (reason, 0, "P.class")


def test_parsed_pool_holds_resolved_values():
    spec = AsmClass("p/R", methods=[AsmMethod("m", "()V", ACC_PUBLIC | ACC_STATIC, [
        ("ldc_str", "hi"), ("pop",), ("ldc2_long", 7), ("pop2",),
        ("getstatic", "p/R", "f", "I"), ("pop",), ("invokestatic", "p/R", "g", "()V"),
        ("invokedynamic", "run", "()Ljava/lang/Runnable;", 0), ("pop",),
        ("new", "p/Q"), ("pop",), ("return",)])],
        bootstrap_methods=(("p/B", "bsm", "()V"),))
    entries = slots(parse_class(assemble_class(spec)).constant_pool)
    assert {(8, "hi"), (5, 7), (7, "p/R"), (7, "p/Q"), (12, ("f", "I")),
            (9, ("p/R", "f", "I")), (10, ("p/R", "g", "()V")),
            (18, (0, "run", "()Ljava/lang/Runnable;"))} <= set(filter(None, entries))
    # a handle keeps its kind and index, which names the member reference
    kind, index = next(e.value for e in entries if e is not None and e.tag == 15)
    assert (kind, entries[index]) == (6, (10, ("p/B", "bsm", "()V")))


def pool_reference_class(field_name_index: int, this_index: int) -> tuple[bytes, int, int]:
    """Class bytes with one field, and the file offsets of its this_class
    and field-name indices."""
    head = struct.pack(">IHH", 0xCAFEBABE, 0, 50)
    pool = struct.pack(">H", 6) + b"".join([
        struct.pack(">BH", 1, 1) + b"A",                   # 1 Utf8
        struct.pack(">BH", 7, 1),                          # 2 Class A
        struct.pack(">BH", 1, 16) + b"java/lang/Object",   # 3 Utf8
        struct.pack(">BH", 7, 3),                          # 4 Class java/lang/Object
        struct.pack(">BH", 1, 1) + b"I",                   # 5 Utf8
    ])
    this_at = len(head + pool) + 2
    tail = struct.pack(">HHHH", ACC_PUBLIC, this_index, 4, 0)
    field = struct.pack(">HHHH", 0, field_name_index, 5, 0)
    name_at = len(head + pool + tail) + 2 + 2
    rest = struct.pack(">H", 1) + field + struct.pack(">HH", 0, 0)
    return head + pool + tail + rest, this_at, name_at


def test_pool_reference_errors_carry_the_file_offset_of_their_index():
    data, _, _ = pool_reference_class(field_name_index=1, this_index=2)
    assert parse_class(data).class_name == "A"

    data, this_at, _ = pool_reference_class(field_name_index=1, this_index=1)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, source="A.class")
    assert err.value.reason == "constant pool index 1 holds Utf8, expected Class"
    assert (err.value.offset, err.value.source) == (this_at, "A.class")
    assert data[this_at:this_at + 2] == b"\x00\x01"

    data, _, name_at = pool_reference_class(field_name_index=2, this_index=2)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == "constant pool index 2 holds Class, expected Utf8"
    assert err.value.offset == name_at
    assert data[name_at:name_at + 2] == b"\x00\x02"


def test_bad_code_operand_reason_and_file_offset():
    bad_invoke = struct.pack(">BH", 0xB8, 999)
    data = simple_class("P", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("nop",), ("raw", bad_invoke), ("return",)])])
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == "invalid constant pool index 999"
    assert " at offset" not in err.value.reason
    offset = err.value.offset
    assert data[offset:offset + len(bad_invoke)] == bad_invoke


def test_exception_table_catch_types_parse():
    data = simple_class("P", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)],
                  catch_types=("java/lang/Exception", 0))])
    assert parse_class(data).find_method("m", "()V").instructions[0].mnemonic == "return"


@pytest.mark.parametrize("catch_type", [0, 999])
@pytest.mark.parametrize("pcs", [(0, 0, 0), (0, 9, 0), (0, 1, 50), (7, 9, 0)],
                         ids=["empty-range", "end-past-code", "handler-past-code",
                              "start-past-code"])
def test_exception_table_entry_must_lie_within_the_code(pcs, catch_type):
    """JVMS §4.7.3: start_pc < end_pc <= code_length and handler_pc <
    code_length, reported at the entry's file offset before its catch type
    (here a good one, or a bad pool index) is resolved."""
    data = simple_class("P", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)], catch_types=(catch_type,))])
    entry = struct.pack(">HHHH", 0, 1, 0, catch_type)
    at = data.index(b"\xb1\x00\x01" + entry) + 3  # return, exception_table_length 1
    damaged = data[:at] + struct.pack(">HHH", *pcs) + data[at + 6:]
    with pytest.raises(MalformedClassFile) as err:
        parse_class(damaged)
    assert err.value.reason == (f"exception handler {pcs[0]}..{pcs[1]} -> {pcs[2]}"
                                " does not fit code of length 1")
    assert err.value.offset == at


# where the fixture writes the bad index, and how far from the end of the
# class it lands (what follows it is zero counts and an empty payload)
@pytest.mark.parametrize("where,from_end", [
    ("catch-type", 6),           # code attribute count, class attribute count
    ("code-attribute-name", 8),  # payload length, class attribute count
    ("source-file", 2),          # the last field of the class
    ("bootstrap-handle", 4),     # the handle's argument count
    ("bootstrap-argument", 2),   # the last field of the class
])
def test_bad_pool_index_in_attribute_payload_reported_at_its_file_offset(where, from_end):
    bad = 999
    method = AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])
    spec = AsmClass("P", methods=[method])
    if where == "catch-type":
        method.catch_types = (bad,)
    elif where == "code-attribute-name":
        method.code_attributes = ((bad, b""),)
    elif where == "bootstrap-handle":
        spec.bootstrap_methods = (bad,)
    elif where == "bootstrap-argument":
        spec.bootstrap_methods = (("p/B", "bsm", "()V"),)
        spec.bootstrap_arguments = (bad,)
    else:
        spec.source_file = bad
    data = assemble_class(spec)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, source="P.class")
    assert err.value.reason == f"invalid constant pool index {bad}"
    assert (err.value.offset, err.value.source) == (len(data) - from_end, "P.class")
    assert data[err.value.offset:err.value.offset + 2] == struct.pack(">H", bad)


def test_bootstrap_argument_names_a_loadable_entry():
    """Each pool entry of the class is tried as the one bootstrap argument:
    only the loadable kinds are accepted (JVMS §4.7.23), and any other is
    reported at the file offset of the argument's index."""
    spec = AsmClass("P", major=52, bootstrap_methods=(("p/B", "bsm", "()V"),),
                    methods=[AsmMethod("m", "()V", ACC_PUBLIC, [
                        ("ldc_int", 7), ("ldc_float", 1.5), ("ldc_str", "s"),
                        ("ldc_class", "p/C"), ("ldc2_long", 5), ("ldc2_double", 2.5),
                        ("return",)])])
    entries = slots(parse_class(assemble_class(spec)).constant_pool)
    loadable = {3, 4, 5, 6, 7, 8, 15}  # Integer to String, MethodHandle
    assert loadable <= {entry.tag for entry in entries if entry is not None}
    for index, entry in enumerate(entries):
        if entry is None:
            continue
        data = assemble_class(dataclasses.replace(spec, bootstrap_arguments=(index,)))
        if entry.tag in loadable:
            assert parse_class(data).methods
            continue
        with pytest.raises(MalformedClassFile) as err:
            parse_class(data, "P.class")
        assert err.value.reason == f"bootstrap argument has unloadable tag {entry.tag}"
        assert (err.value.offset, err.value.source) == (len(data) - 2, "P.class")


def test_bootstrap_handle_naming_a_field_reported_at_its_file_offset():
    spec = AsmClass("P", methods=[AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])],
                    bootstrap_methods=(("p/B", "bsm", "()V"),))
    data = assemble_class(spec)
    entries = slots(parse_class(data).constant_pool)
    # the bootstrap handle's Methodref, turned into a Fieldref
    cls, name, desc = next(e.value for e in entries if e is not None and e.tag == 10)
    methodref = struct.pack(">BHH", 10, entries.index((7, cls)),
                            entries.index((12, (name, desc))))
    assert data.count(methodref) == 1
    data = data.replace(methodref, b"\x09" + methodref[1:])
    # ... and its handle's kind made REF_getField (1), which may name a Fieldref
    handle = struct.pack(">BBH", 15, 6, entries.index((10, (cls, name, desc))))
    assert data.count(handle) == 1
    data = data.replace(handle, handle[:1] + b"\x01" + handle[2:])
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, source="P.class")
    assert err.value.reason == "bootstrap method handle does not reference a method"
    assert (err.value.offset, err.value.source) == (len(data) - 4, "P.class")


def wrong_kind_class(real_op: tuple, opcode: int) -> tuple[bytes, bytes, int]:
    """Class ``p/Main`` whose ``main`` runs ``real_op`` and then ``opcode``
    naming the pool entry that ``real_op`` names: the class bytes, the
    bad instruction's bytes and that pool index."""
    def assemble(extra: list) -> bytes:
        return simple_class("p/Main", methods=[
            AsmMethod("main", "([Ljava/lang/String;)V", ACC_PUBLIC | ACC_STATIC,
                      [real_op, ("pop",)] + extra + [("return",)])])

    pool = parse_class(assemble([])).constant_pool
    # the Fieldref (tag 9) or Methodref (tag 10) that real_op names
    index = next(i for i, e in enumerate(slots(pool)) if e is not None and e.tag in (9, 10))
    bad = struct.pack(">BH", opcode, index)
    return assemble([("raw", bad)]), bad, index


@pytest.mark.parametrize("real_op,opcode,reason", [
    (("getstatic", "p/Main", "f", "I"), 0xB8, "holds Fieldref, expected a method reference"),
    (("invokestatic", "p/Main", "g", "()I"), 0xB4, "holds Methodref, expected Fieldref"),
], ids=["invokestatic-names-fieldref", "getfield-names-methodref"])
def test_member_instruction_rejects_the_wrong_reference_kind(real_op, opcode, reason):
    data, bad, index = wrong_kind_class(real_op, opcode)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == f"constant pool index {index} {reason}"
    offset = err.value.offset
    assert data[offset:offset + len(bad)] == bad


@pytest.mark.parametrize("nops", [12, 2000])
@pytest.mark.parametrize("bad,tail,reason", [
    (b"\xbc\x63", [("return",)], "invalid array type code 99"),
    (struct.pack(">BHBB", 0xB9, 1, 1, 7), [("return",)],
     "invokeinterface fourth byte must be zero"),
    (b"\xc4\x00", [("return",)], "opcode 0x00 cannot be widened"),
    (b"\xaa\x00\x00\x01", [("return",)], "nonzero switch padding"),
    (b"\x11\x00", [], "truncated class file"),
    # cut off in its padding: a nonzero byte before the end is found first
    (b"\xaa\x00\x01", [], "nonzero switch padding"),
    (b"\xaa\x00\x00", [], "truncated class file"),
    (b"\xab\x00\x00\x00" + struct.pack(">ii", 0, -1), [("return",)],
     "lookupswitch negative pair count"),
    (b"\xc4\x84\x00\x01\x00", [], "truncated class file"),  # a wide iinc cut off
])
def test_code_error_reported_at_instruction_file_offset(nops, bad, tail, reason):
    # a code array longer than its own file offset once let an operand
    # error report its position in the code array instead of the file
    data = simple_class("P", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("nop",)] * nops + [("raw", bad)] + tail)])
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == reason
    offset = err.value.offset
    assert data[offset:offset + len(bad)] == bad


@pytest.mark.parametrize("text", ["a\u0000b\U0001F600", "\u0000", "\U0001F600\ud800"])
def test_modified_utf8_string_constant(text):
    # the assembler writes modified UTF-8 as javac does: "a\u0000b😀" is
    # 61 C0 80 62 ED A0 BD ED B8 80
    data = simple_class("S", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("ldc_str", text), ("pop",), ("return",)])])
    if text == "a\u0000b\U0001F600":
        assert b"a\xc0\x80b\xed\xa0\xbd\xed\xb8\x80" in data
    (ldc, *_) = parse_class(data).find_method("m", "()V").instructions
    assert ldc.literal == text


@pytest.mark.parametrize("payload", [b"\xff", b"a\xc0", b"\xed\xa0"])
def test_undecodable_utf8_entry_reason_and_file_offset(payload):
    head = struct.pack(">IHH", 0xCAFEBABE, 0, 50)
    count = struct.pack(">H", 2)
    entry = struct.pack(">BH", 1, len(payload)) + payload
    with pytest.raises(MalformedClassFile) as err:
        parse_class(head + count + entry + b"\x00" * 8, source="X.class")
    assert err.value.reason == "constant pool entry 1 is not modified UTF-8"
    assert err.value.offset == len(head + count)
    assert err.value.source == "X.class"


# --- JVMS bounds: code length, attribute lengths, field descriptors ----------

@pytest.mark.parametrize("length", [0, 65536, 70001])
def test_code_length_outside_1_to_65535_is_malformed(length):
    def assemble(code: list) -> bytes:
        return simple_class("p/A", methods=[AsmMethod("m", "()V", ACC_PUBLIC, code)])

    code_at = parse_class(assemble([("return",)])).methods[0].body.file_base
    data = assemble([("raw", bytes(length))])
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == f"code length {length} is not in 1..65535"
    assert err.value.offset == code_at - 4  # the code_length field
    assert data[code_at - 4:code_at] == struct.pack(">I", length)


def test_code_length_65535_parses():
    data = simple_class("p/A", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("raw", bytes(65534)), ("return",)])])
    assert len(parse_class(data).methods[0].body.code) == 65535


JUNK = b"\xde\xad\xbe"


@pytest.mark.parametrize("name", ["Code", "LineNumberTable", "SourceFile", "BootstrapMethods"])
def test_bytes_left_unread_in_an_attribute_are_malformed(name):
    spec = AsmClass("p/A", source_file="A.java", bootstrap_methods=(("p/B", "bsm", "()V"),),
                    methods=[AsmMethod("m", "()V", ACC_PUBLIC | ACC_STATIC,
                                       [("invokedynamic", "run", "()V", 0), ("return",)],
                                       lines=((0, 1), (5, 2)))])
    parse_class(assemble_class(spec))
    spec.padding = {name: JUNK}
    data = assemble_class(spec)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    found = re.fullmatch(f"{name} attribute has length (\\d+), but its contents take (\\d+) bytes",
                         err.value.reason)
    assert found, err.value.reason
    length, used = int(found[1]), int(found[2])
    assert length == used + len(JUNK)
    offset = err.value.offset
    assert data[offset:offset + len(JUNK)] == JUNK  # where the unread bytes begin
    assert data[offset - used - 4:offset - used] == struct.pack(">I", length)


@pytest.mark.parametrize("desc,problem", [
    ("Q", "invalid type tag 'Q' at position 0"),
    ("", "unexpected end of descriptor at position 0"),
    ("II", "trailing characters after field type at position 1"),
    ("()V", "invalid type tag '(' at position 0"),
    ("[L;", "empty object type name at position 1"),
])
def test_field_descriptor_is_checked(desc, problem):
    data = simple_class("p/A", fields=(("ok", "[[Ljava/lang/String;", 0), ("f", desc, 0)))
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == f"invalid field descriptor {desc!r}: {problem}"
    # past the pool: flags, this, super, interface and field counts, then the first field
    second_field = pool_entries_end(data) + 10 + 8
    assert err.value.offset == second_field + 6


def test_root_object_class_may_lack_super():
    from fixtures import framework_classes
    cf = parse_class(assemble_class(framework_classes()[0]))
    assert cf.class_name == "java/lang/Object"
    assert cf.super_name is None


def test_missing_super_on_ordinary_class_rejected():
    spec = AsmClass("NotRoot", super_name=None,
                    methods=[AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])])
    with pytest.raises(MalformedClassFile, match="lacks a superclass"):
        parse_class(assemble_class(spec))


def test_unknown_attribute_recorded_not_fatal():
    cf = parse_class(simple_class("X", extra_attribute="VendorMeta"))
    assert "VendorMeta" in cf.attribute_names


def test_source_file_attribute():
    cf = parse_class(simple_class("S", source_file="S.java"))
    assert cf.source_file == "S.java"


# --- contract fuzzing: any bytes give a ClassFile or MalformedClassFile ------

FIXTURE_CLASSES = fixture_classes()
# (class bytes, start, end) of every code array of the fixture classes
FIXTURE_CODE = [(data, m.body.file_base, m.body.file_base + len(m.body.code))
                for data in FIXTURE_CLASSES for m in parse_class(data).methods if m.body]


def pool_entries_end(data: bytes) -> int:
    return parse_constant_pool(data, 8)[1]  # after magic and version


# (class bytes, start, end) of the constant pool entries of the fixture classes
FIXTURE_POOLS = [(data, 10, pool_entries_end(data)) for data in FIXTURE_CLASSES]


@st.composite
def damaged_fixture_class(draw) -> bytes:
    """A fixture class with bytes overwritten, in a code array, in the
    constant pool or anywhere, cut off, or spliced from another."""
    damage = draw(st.sampled_from(["code", "pool", "overwrite", "truncate", "splice"]))
    if damage in ("code", "pool"):
        original, low, high = draw(st.sampled_from(
            FIXTURE_CODE if damage == "code" else FIXTURE_POOLS))
    else:
        original = draw(st.sampled_from(FIXTURE_CLASSES))
        low, high = 0, len(original)
    data = bytearray(original)
    if damage in ("code", "pool", "overwrite"):
        edits = st.tuples(st.integers(low, high - 1), st.integers(0, 255))
        for position, value in draw(st.lists(edits, min_size=1, max_size=6)):
            data[position] = value
    elif damage == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        donor = draw(st.sampled_from(FIXTURE_CLASSES))
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, len(data)))
        donor_start = draw(st.integers(0, len(donor)))
        donor_end = draw(st.integers(donor_start, len(donor)))
        data[start:end] = donor[donor_start:donor_end]
    return bytes(data)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(damaged_fixture_class())
def test_damaged_class_parses_or_raises_malformed(data):
    try:
        cf = parse_class(data, source="fuzz.class")
    except MalformedClassFile as exc:
        assert exc.source == "fuzz.class"
        assert 0 <= exc.offset <= len(data)
        return
    for method in cf.methods:  # decoding a body that parse_class accepted cannot fail
        offsets = [ins.offset for ins in method.instructions]
        assert offsets == sorted(set(offsets)) and offsets[:1] in ([], [0])


# --- the parse-time body scan against the reference decoder ----------------

SCAN_CLASS = AsmClass("p/S", bootstrap_methods=(("p/B", "bsm", "()V"),), methods=[
    AsmMethod("m", "()V", ACC_PUBLIC | ACC_STATIC, [
        ("ldc_int", 7), ("ldc_float", 1.5), ("ldc_str", "s"), ("ldc_class", "p/C"),
        ("ldc_w_str", "w"), ("ldc2_long", 5), ("ldc2_double", 2.5),
        ("getstatic", "p/S", "f", "I"), ("invokevirtual", "p/S", "v", "()V"),
        ("invokeinterface", "p/I", "i", "()V", 1), ("invokedynamic", "run", "()V", 0),
        ("new", "p/S"), ("multianewarray", "[[I", 2), ("return",)])])
SCAN_BODY = parse_class(assemble_class(SCAN_CLASS), "s.class").methods[0].body
SCAN_POOL_SIZE = len(SCAN_BODY.pool.tags)


def decode(code: bytes) -> tuple[Instruction, ...]:
    """The reference decoder's instructions of ``code`` at file offset 100
    in SCAN_CLASS."""
    return disassemble(MethodBody(code, 100, SCAN_BODY.pool, SCAN_BODY.bootstrap_methods, ()))


def check(code: bytes) -> tuple:
    """The body check's operands of ``code`` at file offset 100 in SCAN_CLASS."""
    return _check_body(code, 100, SCAN_BODY.pool, SCAN_BODY.bootstrap_methods, {})


def scan_outcome(read, code: bytes) -> tuple:
    """The reason, offset and source of the error that ``read(code)``
    raises and None, or None and what it returns."""
    try:
        return None, read(code)
    except MalformedClassFile as exc:
        return (exc.reason, exc.offset, exc.source), None


def decoded_operands(code: bytes, instructions: tuple[Instruction, ...]) -> Counter:
    """The ``(mnemonic, target, member, type_name)`` of each distinct
    pool-indexed or ``newarray`` instruction among the decoded
    ``instructions`` of ``code``, counted."""
    fields = {code[ins.offset:ins.offset + _FORMS[code[ins.offset]][2]]:
              (ins.mnemonic, ins.target, ins.member, ins.type_name)
              for ins in instructions if _FORMS[code[ins.offset]][1] == _RESOLVED}
    return Counter(fields.values())


def _names_a_valid_entry(opcode: int, index: int) -> bool:
    fmt = OPCODES[opcode][1]
    operands = bytes([index]) if fmt == "cp1" else struct.pack(">H", index)
    code = bytes([opcode]) + operands + bytes(_FORMS[opcode][2] - 1 - len(operands))
    if fmt == "iface":
        code = code[:3] + b"\x01\x00"
    return scan_outcome(decode, code)[0] is None


# pool-indexed opcode -> the pool indices it may name in SCAN_BODY's pool
SCAN_INDICES = {opcode: [index for index in range(SCAN_POOL_SIZE)
                         if _names_a_valid_entry(opcode, index)]
                for opcode, (_, fmt) in OPCODES.items()
                if _FORMS[opcode][1] == _RESOLVED and fmt != "atype"}
# opcodes to draw: switches and wide more often than their share of the table
SCAN_OPCODES = sorted(OPCODES) + [MNEMONICS["tableswitch"], MNEMONICS["lookupswitch"],
                                  MNEMONICS["wide"]] * 8


@st.composite
def scanned_code(draw) -> bytes:
    """A code array of instructions drawn from the decoder's opcode table,
    their pool indices mostly valid, then maybe overwritten or cut off."""
    code = bytearray()
    for _ in range(draw(st.integers(1, 30))):
        opcode = draw(st.sampled_from(SCAN_OPCODES))
        mnemonic, kind, width = _FORMS[opcode][:3]
        fmt = OPCODES[opcode][1]
        code.append(opcode)
        if fmt in ("table", "lookup"):
            padding = 3 - (len(code) - 1) % 4
            code += draw(st.sampled_from([bytes(padding)] * 5 + [b"\x01" * padding]))
            count = draw(st.integers(0, 3))
            offsets = draw(st.lists(st.integers(-8, 40), min_size=2 * count + 1,
                                    max_size=2 * count + 1))
            bad = draw(st.sampled_from([False] * 5 + [True]))  # high < low, npairs < 0
            if fmt == "table":
                low = draw(st.integers(-2, 2))
                high = low - 1 if bad else low + count
                code += struct.pack(f">iii{count + 1}i", offsets[0], low, high,
                                    *offsets[:count + 1])
            else:
                code += struct.pack(f">ii{2 * count}i", offsets[0], -1 if bad else count,
                                    *offsets[1:])
        elif fmt == "wide":
            widened = draw(st.sampled_from(sorted(WIDE_TARGETS)))
            code += bytes([widened]) + draw(st.binary(min_size=2, max_size=2))
            if OPCODES[widened][1] == "iinc":
                code += draw(st.binary(min_size=2, max_size=2))
        elif kind == _RESOLVED and fmt != "atype":
            index = draw(st.one_of(st.sampled_from(SCAN_INDICES[opcode]) if SCAN_INDICES[opcode]
                                   else st.nothing(), st.integers(0, SCAN_POOL_SIZE + 1)))
            code += bytes([index]) if fmt == "cp1" else struct.pack(">H", index)
            for _ in range(width - (2 if fmt == "cp1" else 3)):  # counts and zero bytes
                code.append(draw(st.sampled_from([0, 0, 0, 1, 2])))
        else:
            code += draw(st.binary(min_size=width - 1, max_size=width - 1))
    for position, value in draw(st.lists(st.tuples(st.integers(0, len(code) - 1),
                                                   st.integers(0, 255)), max_size=3)):
        code[position] = value
    cut = draw(st.one_of(st.none(), st.integers(0, len(code) - 1)))
    return bytes(code[:cut])


def assert_scan_agrees(code: bytes) -> None:
    decoded, instructions = scan_outcome(decode, code)
    scanned, operands = scan_outcome(check, code)
    assert scanned == decoded
    if scanned is None:
        # the body carries the operands of each distinct pool-indexed
        # instruction once
        assert Counter(operands) == decoded_operands(code, instructions)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(scanned_code())
def test_body_scan_agrees_with_the_reference_decoder(code):
    assert_scan_agrees(code)


def _switch(code: bytearray, mnemonic: str, *operands: int) -> bytearray:
    """``code`` with a switch appended: zero padding, then the s4 ``operands``."""
    code.append(MNEMONICS[mnemonic])
    code += bytes(-len(code) % 4) + struct.pack(f">{len(operands)}i", *operands)
    return code


def _pooled(name: str, i: int = 0) -> bytes:
    """A ``name`` instruction naming the ``i``-th entry (cyclically) that it
    may name in SCAN_BODY's pool."""
    opcode = MNEMONICS[name]
    indices = SCAN_INDICES[opcode]
    return bytes([opcode]) + indices[i % len(indices)].to_bytes(_FORMS[opcode][2] - 1, "big")


def _keys_between_switches() -> bytearray:
    """Pool-indexed instructions before, between and after six rounds of a
    tableswitch and a lookupswitch: a body longer than 1,024 bytes."""
    code = bytearray()
    for i in range(6):
        for name in ("ldc", "getstatic", "invokevirtual"):
            code += _pooled(name, i)
            if name == "ldc":
                _switch(code, "tableswitch", 0, 0, 39, *range(40))
            elif name == "getstatic":
                _switch(code, "lookupswitch", 0, 10, *range(20))
    return code + bytes([MNEMONICS["return"]])


@pytest.mark.parametrize("code", [
    _keys_between_switches(),
    # the scan's worst case: 5,461 empty lookupswitches of 12 bytes each and a
    # return, 65,533 bytes, near the 65,535 a code array may hold (JVMS §4.7.3)
    (bytes([MNEMONICS["lookupswitch"]]) + bytes(11)) * 5461 + bytes([MNEMONICS["return"]]),
    _switch(_keys_between_switches(), "tableswitch", 0, 0, 2, 7, 8, 9)[:-1],
], ids=["keys-between-switches", "65533-byte-lookupswitches", "switch-cut-off"])
def test_body_scan_agrees_with_the_reference_decoder_on_long_bodies(code):
    assert len(code) > 1024
    assert_scan_agrees(bytes(code))


_WIDE_ILOAD = bytes([MNEMONICS["wide"], MNEMONICS["iload"], 1, 2])
_WIDE_IINC = bytes([MNEMONICS["wide"], MNEMONICS["iinc"], 1, 2, 0xff, 0xfe])


@pytest.mark.parametrize("code", [
    _pooled("getstatic"),
    _pooled("ldc"),
    bytes(_switch(bytearray(), "lookupswitch", 0, 0)) + _pooled("getstatic"),
    bytes(_switch(bytearray([MNEMONICS["nop"]]), "tableswitch", 0, 0, 0, 5)) + _pooled("ldc"),
    _pooled("ldc") + _WIDE_ILOAD,
    _pooled("ldc") + _WIDE_ILOAD[:-1],
    _WIDE_IINC,
    _WIDE_IINC[:-1],
], ids=["key-alone", "ldc-alone", "key-after-lookupswitch", "ldc-after-tableswitch",
        "wide-last", "wide-cut-off", "wide-iinc-last", "wide-iinc-cut-off"])
def test_body_scan_agrees_with_the_reference_decoder_at_the_code_end(code):
    # a code array may end with any instruction, no return needed: a final
    # pool-indexed one is a key, a final wide is stepped over or refused
    assert_scan_agrees(code)


def test_bodies_share_their_class_key_objects():
    call = ("invokestatic", "p/S", "v", "()V")
    cf = parse_class(simple_class("p/S", methods=[
        AsmMethod(name, "()V", ACC_PUBLIC | ACC_STATIC, [call, ("return",)])
        for name in ("a", "b")]))
    (first,), (second,) = (method.body.operands for method in cf.methods)
    # one object for both bodies
    assert first == ("invokestatic", ("p/S", "v", "()V"), None, None)
    assert first is second


# --- corpus fidelity: the acceptance-grade ground truth check ---------------

def test_corpus_matches_assembled_ground_truth(corpus):
    for spec in corpus.all_specs():
        data = assemble_class(spec)
        cf = parse_class(data)
        assert cf.class_name == spec.name
        assert cf.super_name == spec.super_name
        assert cf.interfaces == spec.interfaces
        got_methods = [(m.name, m.descriptor) for m in cf.methods]
        want_methods = [(m.name, m.desc) for m in spec.methods]
        assert got_methods == want_methods, spec.name
        for parsed, want in zip(cf.methods, spec.methods):
            assert [i.mnemonic for i in parsed.instructions] == want.mnemonics(), \
                f"{spec.name}.{want.name}"
            assert parsed.line_numbers == tuple(want.lines)
            assert parsed.is_abstract == (want.code is None and not want.flags & 0x0100)


def constant_loader(name: str, *loads: tuple) -> AsmClass:
    """A class whose one method loads each constant of ``loads`` and pops it."""
    ops = [op for load in loads for op in (load, ("pop2" if "2" in load[0] else "pop",))]
    return AsmClass(name, methods=[AsmMethod("m", "()V", ACC_PUBLIC | ACC_STATIC,
                                             [*ops, ("return",)])])


# a float NaN loaded by ldc and a double NaN by ldc2_w: a NaN is unequal to
# itself, but the classes of two parses of the same bytes are equal
NAN_CLASS = constant_loader("p/NaN", ("ldc_float", float("nan")),
                            ("ldc2_double", float("nan")))


def test_parse_determinism(corpus):
    for spec in [*corpus.all_specs(), NAN_CLASS]:
        data = assemble_class(spec)
        assert parse_class(data) == parse_class(data)


@pytest.mark.parametrize("load", ["ldc_float", "ldc2_double"])
def test_zero_and_negative_zero_constants_differ(load):
    zero, negative = (parse_class(assemble_class(constant_loader("p/Z", (load, value))))
                      for value in (0.0, -0.0))
    assert zero != negative


def test_offsets_strictly_increasing_from_zero(corpus):
    for spec in corpus.all_specs():
        cf = parse_class(assemble_class(spec))
        for method in cf.methods:
            offsets = [i.offset for i in method.instructions]
            if offsets:
                assert offsets[0] == 0
                assert all(a < b for a, b in zip(offsets, offsets[1:]))


def test_abstract_methods_have_no_instructions(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/Shape")))
    assert cf.is_interface
    for method in cf.methods:
        assert method.is_abstract
        assert method.instructions == ()


# --- descriptors -------------------------------------------------------------

def test_descriptor_empty_params():
    assert parse_descriptor("()V") == ([], "void")


def test_descriptor_mixed():
    params, ret = parse_descriptor("(I[Ljava/lang/String;)Z")
    assert params == ["int", "java/lang/String[]"]
    assert ret == "boolean"


def test_descriptor_multidim_array():
    params, ret = parse_descriptor("([[IJ)Lfix/Shape;")
    assert params == ["int[][]", "long"]
    assert ret == "fix/Shape"


def test_descriptor_bad_tag_position():
    with pytest.raises(MalformedDescriptor) as err:
        parse_descriptor("(Q)V")
    assert err.value.position == 1


@pytest.mark.parametrize("bad", ["", "I", "()", "(", "(I)", "()Vx", "(L;)V",
                                 "(Ljava/lang/String)V"])
def test_descriptor_malformed(bad):
    with pytest.raises(MalformedDescriptor):
        parse_descriptor(bad)


# --- call site extraction ----------------------------------------------------

def test_no_invokes_no_sites():
    cf = parse_class(simple_class("N", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])]))
    assert invoke_sites(cf) == []


def test_single_static_site(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/Main1")))
    sites = [s for s in invoke_sites(cf) if s.caller.name == "main"]
    assert len(sites) == 1
    assert sites[0].kind == "static"
    assert sites[0].declared_target == MethodRef("fix/Util", "a", "()V")


def test_interface_site_kind(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/Main2")))
    kinds = {s.kind for s in invoke_sites(cf)}
    assert "interface" in kinds
    iface = [s for s in invoke_sites(cf) if s.kind == "interface"]
    assert all(s.declared_target.in_class == "fix/Shape" for s in iface)


def test_all_five_invoke_kinds_in_app(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/App")))
    main_sites = [s for s in invoke_sites(cf) if s.caller.name == "main"]
    assert {s.kind for s in main_sites} == {"static", "special", "virtual",
                                            "interface", "dynamic"}


def test_dynamic_site_records_bootstrap_method(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/App")))
    dynamic = [s for s in invoke_sites(cf) if s.kind == "dynamic"]
    assert len(dynamic) == 1
    assert dynamic[0].declared_target.in_class == "fix/App"
    assert dynamic[0].declared_target.name == "bsm"


def test_site_count_matches_invoke_opcode_count(corpus):
    invoke_names = {"invokestatic", "invokespecial", "invokevirtual",
                    "invokeinterface", "invokedynamic"}
    for spec in corpus.all_specs():
        cf = parse_class(assemble_class(spec))
        want = sum(m.mnemonics().count(op) for m in spec.methods for op in invoke_names)
        assert len(invoke_sites(cf)) == want, spec.name


def test_sites_in_method_offset_order(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/App")))
    sites = invoke_sites(cf)
    method_order = [(m.name, m.descriptor) for m in cf.methods]
    keys = [(method_order.index((s.caller.name, s.caller.descriptor)), s.offset)
            for s in sites]
    assert keys == sorted(keys)


# --- rendering ----------------------------------------------------------------

def test_render_single_return():
    cf = parse_class(simple_class("R", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])]))
    listing = render_method(cf, MethodRef("R", "m", "()V"))
    assert listing == "R.m()V\n0: return\n"


def test_render_abstract_header_only():
    cf = parse_class(simple_class(
        "Abs", flags=ACC_PUBLIC | ACC_ABSTRACT,
        methods=[AsmMethod("m", "()V", ACC_PUBLIC | ACC_ABSTRACT)]))
    assert render_method(cf, MethodRef("Abs", "m", "()V")) == "Abs.m()V\n"


def test_render_string_operand_quoted(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/Base")))
    listing = render_method(cf, MethodRef("fix/Base", "speak", "()Ljava/lang/String;"))
    assert 'ldc "base"' in listing
    assert "ldc 1" not in listing  # no raw pool indices


def test_render_escapes_lone_surrogates_so_the_listing_encodes():
    """A Java string or name may hold an unpaired surrogate, which UTF-8
    cannot encode: the listing writes it as ``\\uXXXX`` and keeps a pair,
    which the pool decoder joins, as one character."""
    cf = parse_class(simple_class("S", methods=[
        AsmMethod("x\ud800", "()V", ACC_PUBLIC | ACC_STATIC, [
            ("ldc_str", 'a\udc00b\U0001f600\\u'), ("pop",),
            ("invokestatic", "S", "x\ud800", "()V"), ("return",)])]))
    listing = render_method(cf, MethodRef("S", "x\ud800", "()V"))
    assert listing.encode("utf-8").decode("utf-8") == (
        "S.x\\ud800()V\n"
        '0: ldc "a\\udc00b\U0001f600\\\\u"\n'
        "2: pop\n"
        "3: invokestatic S.x\\ud800()V\n"
        "6: return\n")


def test_render_line_annotations(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/Util")))
    listing = render_method(cf, MethodRef("fix/Util", "a", "()V"))
    assert "// line 12" in listing
    assert "invokestatic fix/Util.b()V" in listing


def test_render_unknown_method():
    cf = parse_class(simple_class())
    with pytest.raises(MethodNotFound):
        render_method(cf, MethodRef("A", "ghost", "()V"))
    with pytest.raises(MethodNotFound):
        render_method(cf, MethodRef("B", "m", "()V"))


def test_render_pool_closure(corpus):
    # every operand of every corpus method renders without dangling refs
    for spec in corpus.all_specs():
        cf = parse_class(assemble_class(spec))
        for method in cf.methods:
            listing = render_method(cf, method.ref(cf.class_name))
            assert listing.startswith(f"{cf.class_name}.{method.name}")


def test_render_switches_and_wide(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/App")))
    pick = render_method(cf, MethodRef("fix/App", "pick", "(I)I"))
    assert "tableswitch" in pick and "lookupswitch" in pick
    arrays = render_method(cf, MethodRef("fix/App", "arrays", "(I)[I"))
    assert "wide iload, 300" in arrays
    assert "wide iinc, 300, -2" in arrays
    assert "newarray int" in arrays


def test_branch_targets_absolute(corpus):
    # fix/Util.max: iload_0@0 iload_1@1 if_icmpge@2 iload_1@5 ireturn@6
    #               iload_0@7 ireturn@8; the branch jumps to offset 7
    cf = parse_class(assemble_class(corpus.spec("fix/Util")))
    listing = render_method(cf, MethodRef("fix/Util", "max", "(II)I"))
    assert "2: if_icmpge 7" in listing
    assert "7: iload_0" in listing


def test_switch_payloads_decoded(corpus):
    # hand-computed layout of fix/App.pick(I)I:
    #   0 iload_0; 1 tableswitch (pad 2, 12 header, 2 targets -> 23 bytes);
    #   24 iconst_0; 25 ireturn; 26 iconst_1; 27 ireturn; 28 iload_0;
    #   29 lookupswitch (pad 2, 8 header, 2 pairs -> 27 bytes);
    #   56 bipush 10; 58 ireturn; 59 bipush 99; 61 ireturn;
    #   62 iconst_m1; 63 ireturn
    cf = parse_class(assemble_class(corpus.spec("fix/App")))
    method = cf.find_method("pick", "(I)I")
    table = next(i for i in method.instructions if i.mnemonic == "tableswitch")
    assert table.offset == 1
    assert table.operands == ("default=28", "low=0", "high=1", "targets=24,26")
    lookup = next(i for i in method.instructions if i.mnemonic == "lookupswitch")
    assert lookup.offset == 29
    assert lookup.operands == ("default=62", "matches=10:56,99:59")


def test_wide_constant_literals(corpus):
    cf = parse_class(assemble_class(corpus.spec("fix/App")))
    method = cf.find_method("constants", "()V")
    ldc2 = [i for i in method.instructions if i.mnemonic == "ldc2_w"]
    assert ldc2[0].literal == 1234567890123
    assert ldc2[1].literal == 2.5
    listing = render_method(cf, MethodRef("fix/App", "constants", "()V"))
    assert "ldc2_w 1234567890123L" in listing
    assert "ldc2_w 2.5d" in listing
    assert 'ldc_w "wide string"' in listing
    assert "ldc_w" in listing
    assert "ldc 1.5f" in listing


def test_goto_w_and_multianewarray():
    cf = parse_class(simple_class("W", methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [
            ("goto_w", "end"), ("label", "end"),
            ("multianewarray", "[[I", 2), ("pop",), ("return",)])]))
    listing = render_method(cf, MethodRef("W", "m", "()V"))
    assert "0: goto_w 5" in listing
    assert "5: multianewarray [[I, 2" in listing


# --- Java 9-17 class files: Dynamic, Module and Package entries -------------

BSM = ("p/B", "bsm", "()V")


def dynamic_class(*ops: tuple, major: int = 55, **kwargs) -> bytes:
    """Class bytes with one static method running ``ops`` and one bootstrap method."""
    return simple_class("K", methods=[AsmMethod("m", "()V", ACC_PUBLIC | ACC_STATIC,
                                                [*ops, ("return",)])],
                        bootstrap_methods=(BSM,), major=major, **kwargs)


def module_class(flags: int = ACC_MODULE, major: int = 61, **kwargs) -> bytes:
    return assemble_class(AsmClass("module-info", super_name=None, flags=flags, major=major,
                                   module="m.one", packages=("p/one", "p/two"), **kwargs))


def test_ldc_loads_a_dynamic_constant_of_its_width():
    data = dynamic_class(("ldc_dynamic", 0, "i", "I"), ("pop",),
                         ("ldc_w_dynamic", 0, "s", "Ljava/lang/String;"), ("pop",),
                         ("ldc2_dynamic", 0, "j", "J"), ("pop2",),
                         ("ldc2_dynamic", 0, "d", "D"), ("pop2",))
    cf = parse_class(data)
    assert cf.version == (55, 0)
    method = cf.find_method("m", "()V")
    loads = [(i.mnemonic, i.operands, i.literal) for i in method.instructions
             if i.mnemonic.startswith("ldc")]
    assert loads == [("ldc", ("condy[0] i:I",), None),
                     ("ldc_w", ("condy[0] s:Ljava/lang/String;",), None),
                     ("ldc2_w", ("condy[0] j:J",), None), ("ldc2_w", ("condy[0] d:D",), None)]
    dynamic = [e.value for e in slots(cf.constant_pool) if e is not None and e.tag == 17]
    assert sorted(dynamic) == [(0, "d", "D"), (0, "i", "I"), (0, "j", "J"),
                               (0, "s", "Ljava/lang/String;")]
    assert sorted(op[0] for op in method.body.operands) == ["ldc", "ldc2_w", "ldc2_w", "ldc_w"]


@pytest.mark.parametrize("op,desc", [("ldc_dynamic", "J"), ("ldc_w_dynamic", "D"),
                                     ("ldc2_dynamic", "I"), ("ldc2_dynamic", "[J")])
def test_ldc_of_a_dynamic_constant_of_the_other_width_is_malformed(op, desc):
    data = dynamic_class(("nop",), (op, 0, "c", desc))
    mnemonic = {"ldc_dynamic": "ldc", "ldc_w_dynamic": "ldc_w"}.get(op, "ldc2_w")
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, "K.class")
    assert err.value.reason == f"{mnemonic} cannot load a Dynamic of type {desc}"
    assert data[err.value.offset - 1:err.value.offset + 1] == b"\x00" + bytes(
        [MNEMONICS[mnemonic]])  # the ldc, after the nop


def test_dynamic_constant_needs_a_bootstrap_method():
    with pytest.raises(MalformedClassFile, match="invalid bootstrap method index 1"):
        parse_class(dynamic_class(("ldc_dynamic", 1, "c", "I")))


def test_dynamic_entry_needs_major_version_55():
    assert parse_class(dynamic_class(("ldc_dynamic", 0, "c", "I"), major=55))
    data = dynamic_class(("ldc_dynamic", 0, "c", "I"), major=54)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, "K.class")
    assert err.value.reason == "Dynamic needs major version 55, got 54"
    assert data[err.value.offset] == 17  # the entry's tag byte
    assert data.count(data[err.value.offset:err.value.offset + 5]) == 1


def test_dynamic_entry_names_a_field_type():
    data = dynamic_class(("ldc_dynamic", 0, "c", "(I)V"))
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason.startswith("Dynamic has an invalid field descriptor '(I)V'")
    assert data[err.value.offset] == 17


def test_bootstrap_argument_may_name_a_dynamic_constant():
    data = dynamic_class(("invokedynamic", "run", "()V", 0),
                         bootstrap_arguments=((0, "arg", "Ljava/lang/Object;"),))
    cf = parse_class(data)
    assert [e.value for e in slots(cf.constant_pool) if e is not None and e.tag == 17] == [
        (0, "arg", "Ljava/lang/Object;")]
    assert cf.find_method("m", "()V").instructions[0].target == MethodRef(*BSM)


def test_module_info_class_parses_without_a_superclass():
    cf = parse_class(module_class())
    assert (cf.class_name, cf.super_name, cf.methods) == ("module-info", None, ())
    assert cf.is_module
    assert cf.attribute_names == ("Module", "ModulePackages")
    assert sorted(e for e in slots(cf.constant_pool) if e is not None and e.tag in (19, 20)
                  ) == [(19, "m.one"), (20, "p/one"), (20, "p/two")]
    assert not parse_class(simple_class(major=61)).is_module


def test_module_info_class_names_no_superclass():
    data = assemble_class(AsmClass("module-info", flags=ACC_MODULE, major=61))
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data)
    assert err.value.reason == "ACC_MODULE class module-info names a superclass"
    # the superclass index, after the access flags and the class index
    assert data[err.value.offset - 4:err.value.offset - 2] == struct.pack(">H", ACC_MODULE)


@pytest.mark.parametrize("tag,name", [(19, "Module"), (20, "Package")])
def test_module_and_package_entries_belong_to_a_module_class(tag, name):
    spec = AsmClass("module-info", major=61, module="m.one" if tag == 19 else None,
                    packages=() if tag == 19 else ("p/one",))
    data = assemble_class(spec)
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, "module-info.class")
    assert err.value.reason == f"{name} outside an ACC_MODULE class"
    assert data[err.value.offset] == tag
    spec.flags, spec.super_name = ACC_MODULE, None
    assert parse_class(assemble_class(spec)).is_module


# a module class breaking one rule of JVMS §4.1, and the offset of the
# field that breaks it, counted from the end of the class
@pytest.mark.parametrize("changes,reason,from_end", [
    ({"name": "p/NotModuleInfo"}, "is named p/NotModuleInfo, not module-info", 12),
    ({"flags": ACC_MODULE | ACC_PUBLIC}, "sets other access flags: 0x8001", 14),
    ({"interfaces": ("p/I",)}, "declares interfaces: 1", 10),
    ({"fields": (("f", "I", 0),)}, "declares fields: 1", 14),
    ({"methods": [AsmMethod("m", "()V", ACC_PUBLIC | ACC_ABSTRACT)]}, "declares methods: 1", 12),
], ids=["name", "flags", "interface", "field", "method"])
def test_module_class_is_named_module_info_and_declares_nothing(changes, reason, from_end):
    spec = AsmClass("module-info", super_name=None, flags=ACC_MODULE, major=53)
    assert parse_class(assemble_class(spec)).is_module
    data = assemble_class(dataclasses.replace(spec, **changes))
    with pytest.raises(MalformedClassFile) as err:
        parse_class(data, "module-info.class")
    assert err.value.reason == f"ACC_MODULE class {reason}"
    assert (err.value.offset, err.value.source) == (len(data) - from_end, "module-info.class")


@pytest.mark.parametrize("major", [45, 52])
def test_acc_module_bit_is_reserved_before_major_53(major):
    """Before major version 53 the ACC_MODULE bit means nothing (JVMS §4.1):
    the class is an ordinary one, which needs a superclass, and may hold
    no Module or Package entry."""
    cf = parse_class(simple_class(major=major, flags=ACC_PUBLIC | ACC_MODULE))
    assert (cf.super_name, cf.is_module) == ("java/lang/Object", False)
    with pytest.raises(MalformedClassFile, match="lacks a superclass"):
        parse_class(assemble_class(AsmClass("module-info", super_name=None, flags=ACC_MODULE,
                                            major=major)))
    with pytest.raises(MalformedClassFile, match="Module outside an ACC_MODULE class"):
        parse_class(module_class(major=major))


def test_javac_release_17_record_and_string_concatenation(tmp_path):
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not installed")
    source = tmp_path / "Point.java"
    source.write_text("public record Point(int x, String label) {\n"
                      "    public String show() { return label + \"@\" + x; }\n}\n",
                      encoding="ascii")
    subprocess.run([javac, "--release", "17", "-d", str(tmp_path / "out"), str(source)],
                   check=True, capture_output=True)
    cf = parse_class((tmp_path / "out" / "Point.class").read_bytes(), "Point.class")
    assert (cf.class_name, cf.super_name, cf.version[0]) == ("Point", "java/lang/Record", 61)
    assert "Record" in cf.attribute_names
    bootstraps = {m.name: {i.target for i in m.instructions if i.mnemonic == "invokedynamic"}
                  for m in cf.methods}
    objects = MethodRef("java/lang/runtime/ObjectMethods", "bootstrap",
                        "(Ljava/lang/invoke/MethodHandles$Lookup;Ljava/lang/String;"
                        "Ljava/lang/invoke/TypeDescriptor;Ljava/lang/Class;Ljava/lang/String;"
                        "[Ljava/lang/invoke/MethodHandle;)Ljava/lang/Object;")
    assert bootstraps["toString"] == bootstraps["hashCode"] == bootstraps["equals"] == {objects}
    concat, = bootstraps["show"]
    assert (concat.in_class, concat.name) == ("java/lang/invoke/StringConcatFactory",
                                              "makeConcatWithConstants")
    assert "invokedynamic makeConcatWithConstants(Ljava/lang/String;I)Ljava/lang/String;" in (
        render_method(cf, MethodRef("Point", "show", "()Ljava/lang/String;")))
