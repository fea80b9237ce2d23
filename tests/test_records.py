"""The record types: read-only where frozen, checked where outside input enters, compared
by value."""

import dataclasses
from datetime import date
from pathlib import Path

import pytest

import apprepo.classfile.parser as parser
from apprepo.callgraph import ClassHierarchy, ClasspathPartition
from apprepo.classfile import parse_class
from apprepo.errors import ReportItem
from apprepo.guimodel import GuiElement, GuiModel, HandlerBinding, synthetic_root
from apprepo.metrics import VersionMetrics
from apprepo.project import ClassRepository, Project, ProjectReport

from classasm import AsmClass, AsmMethod, assemble_class

RUN = AsmMethod("run", "()V", code=[("ldc_str", "hi"), ("pop",),
                                    ("invokestatic", "p/R", "g", "()V"), ("return",)],
                lines=((0, 3), (3, 4)))


def parsed(fields=(), method=RUN) -> parser.ClassFile:
    return parse_class(assemble_class(AsmClass("p/C", fields=fields, methods=[method])))


def frozen_records():
    cf = parsed()
    element = GuiElement("w", "JFrame", is_window=True)
    return [
        cf, cf.methods["run", "()V"],
        ClasspathPartition.of(application=["app"]),
        element, GuiModel(synthetic_root((element,)), "ripper"),
        HandlerBinding("w", "p/H"),
        ReportItem("violation", "MissingId", "no id", ("/0",)),
        VersionMetrics("1.0", date(2001, 1, 1), 1, 2, 3, 4),
        Project("p", "1.0", date(2001, 1, 1), Path("."), Path("bin")),
        ClassHierarchy({}, {}, {}, set()),
        ClassRepository(ClassHierarchy({}, {}, {}, set()), {}),
        ProjectReport(),
    ]


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], "changed")
    with pytest.raises(AttributeError):
        record.unknown = 1
    with pytest.raises(AttributeError):
        del record.unknown


def test_decoded_views_refuse_assignment_and_deletion():
    cf = parsed()
    method = cf.methods["run", "()V"]
    for record, name in ((method, "instructions"), (method, "line_numbers"),
                         (method, "code"), (cf, "constant_pool")):
        getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, ())
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("make", [
    lambda: ClasspathPartition.of(library=["x.jar"], application=["x.jar"]),
], ids=["partition"])
def test_constructor_checks_hold_for_replace_too(make):
    with pytest.raises(ValueError):
        make()


def test_records_are_checked_where_input_enters_not_when_built():
    metrics = VersionMetrics("v", date(2000, 1, 1), -1, 0, 0, 0)
    assert metrics.classes == -1
    partition = ClasspathPartition.of(library=["x.jar"])._replace(application=(Path("x.jar"),))
    assert partition.library == partition.application == (Path("x.jar"),)


def test_methods_compare_by_their_class_bytes():
    plain = parsed().methods["run", "()V"]
    shifted = parsed(fields=(("f", "I", 0),)).methods["run", "()V"]  # every pool index moves
    assert plain.code != shifted.code and plain.instructions == shifted.instructions
    assert plain != shifted and not plain == shifted
    again = parsed().methods["run", "()V"]
    assert plain == again and not plain != again and hash(plain) == hash(again)
    other = plain._replace(access_flags=plain.access_flags | parser.ACC_FINAL)
    assert plain != other and not plain == other
    assert plain != parser.MethodInfo(plain.name, plain.descriptor, plain.access_flags,
                                      plain.attribute_names)  # no code


def test_equal_bytes_give_equal_classes():
    first, second = parsed(), parsed()
    assert first == second and not first != second
    assert first.data is not second.data
    assert first._replace(source_file="C.java") != first
    relined = parsed(method=dataclasses.replace(RUN, lines=((0, 3), (3, 5))))  # one line differs
    assert relined.methods["run", "()V"].instructions == first.methods["run", "()V"].instructions
    assert relined != first and not relined == first


def test_model_fields_are_the_checked_and_read_facts():
    assert parser.ClassFile._fields == (
        "class_name", "super_name", "interfaces", "access_flags", "methods", "source_file",
        "version", "attribute_names", "pool_classes", "source", "data")
    assert parser.MethodInfo._fields == (
        "name", "descriptor", "access_flags", "attribute_names", "operands", "data",
        "code_at", "line_tables", "bootstrap_at")


def reachable_bytes(value: object) -> list:
    """Every bytes-like object inside ``value``, through its tuples, lists,
    sets and dicts."""
    found, work = [], [value]
    while work:
        value = work.pop()
        if isinstance(value, (bytes, bytearray, memoryview)):
            found.append(value)
        elif isinstance(value, dict):
            work += [*value.keys(), *value.values()]
        elif isinstance(value, (tuple, list, set, frozenset)):
            work += value
    return found


def test_a_method_holds_no_bytes_but_its_class_file():
    cf = parse_class(assemble_class(AsmClass(
        "p/C", bootstrap_methods=(("p/B", "bsm", "()V"),), methods=[
            RUN, AsmMethod("dyn", "()V", code=[("invokedynamic", "run", "()V", 0), ("return",)],
                           lines=((0, 1),)),
            AsmMethod("abs", "()V", parser.ACC_ABSTRACT | parser.ACC_PUBLIC)])))
    for method in cf.methods.values():
        found = reachable_bytes(method)
        assert found and all(value is cf.data for value in found), method.name
    assert all(value is cf.data for value in reachable_bytes(cf))


def test_views_decode_from_the_bytes_on_each_read_and_the_method_index_is_kept():
    cf = parsed()
    method = cf.methods["run", "()V"]
    assert [i.mnemonic for i in method.instructions] == ["ldc", "pop", "invokestatic",
                                                         "return"]
    assert method.line_numbers == ((0, 3), (3, 4))
    assert method.code == cf.data[method.code_at:method.code_at + 7]
    for view in ("instructions", "line_numbers", "code"):
        assert getattr(method, view) is not getattr(method, view), view
    assert cf.constant_pool is not cf.constant_pool
    assert [name for tag, name in zip(cf.constant_pool.tags, cf.constant_pool.values)
            if tag == 7] == list(cf.pool_classes)
    assert list(cf.methods) == [("run", "()V")] and cf.methods["run", "()V"] is method


def test_a_method_keeps_no_decoded_listing():
    method = parsed().methods["run", "()V"]
    assert method.instructions and method.line_numbers
    assert not hasattr(method, "__dict__")


def test_hierarchy_and_report_replace_and_compare_by_fields():
    assert ProjectReport() == ProjectReport() and ProjectReport().items == ()
    assert ProjectReport(handlers_resolved=1) != ProjectReport()
    first, second = ClassHierarchy({}, {}, {}, {"x/E"}), ClassHierarchy({}, {}, {}, {"x/E"})
    assert first == second and first.origins == {}
    with pytest.raises(TypeError):
        first.origins["x/E"] = (False, False, True)  # the default is shared, so read-only
    replaced = second._replace(duplicates={"p/C": ["a.jar", "b.jar"]})
    assert replaced != second and second == first and second.duplicates == {}
    assert replaced.externals is second.externals
