"""The record types: read-only where frozen, checked where outside input enters, compared
by value."""

from datetime import date
from pathlib import Path

import pytest

import apprepo.classfile.parser as parser
from apprepo.callgraph import ClassHierarchy, ClasspathPartition
from apprepo.classfile import parse_class
from apprepo.classfile.constant_pool import ConstantPool
from apprepo.errors import ReportItem
from apprepo.guimodel import GuiElement, GuiModel, HandlerBinding, synthetic_root
from apprepo.metrics import VersionMetrics
from apprepo.project import ClassRepository, Project, ProjectReport

from classasm import AsmClass, AsmMethod, assemble_class

RUN = AsmMethod("run", "()V", code=[("ldc_str", "hi"), ("pop",),
                                    ("invokestatic", "p/R", "g", "()V"), ("return",)],
                lines=((0, 3), (3, 4)))


def parsed(fields=()) -> parser.ClassFile:
    return parse_class(assemble_class(AsmClass("p/C", fields=fields, methods=[RUN])))


def frozen_records():
    cf = parsed()
    element = GuiElement("w", "JFrame", is_window=True)
    return [
        cf, cf.methods[0],
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


def test_cached_reads_refuse_assignment_and_deletion():
    cf = parsed()
    method = cf.methods[0]
    for record, name in ((method, "instructions"), (method, "line_numbers"),
                         (cf, "_methods_by_key")):
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


def test_method_equality_compares_decoded_instructions_not_body_bytes():
    plain = parsed().methods[0]
    shifted = parsed(fields=(("f", "I", 0),)).methods[0]  # every pool index moves
    assert plain.body.code != shifted.body.code
    assert plain == shifted and not plain != shifted
    assert hash(plain) == hash(shifted)
    other = plain._replace(access_flags=plain.access_flags | parser.ACC_FINAL)
    assert plain != other and not plain == other
    assert plain != parser.MethodInfo("run", "()V", plain.access_flags, plain.line_table,
                                      plain.attribute_names)  # no body: no instructions


def test_class_equality_ignores_the_constant_pool():
    first, second = parsed(), parsed()
    assert first.constant_pool is not second.constant_pool
    assert first == second and hash(first) == hash(second)
    emptied = first._replace(constant_pool=ConstantPool([0], [None]))
    assert emptied == first and hash(emptied) == hash(first)
    assert first._replace(source_file="C.java") != first
    assert "constant_pool" not in repr(first) and "body" not in repr(first.methods[0])


def test_listing_views_decode_on_read_and_the_method_index_is_kept():
    cf = parsed()
    method = cf.methods[0]
    assert [i.mnemonic for i in method.instructions] == ["ldc", "pop", "invokestatic",
                                                         "return"]
    assert method.line_numbers == ((0, 3), (3, 4))
    assert cf.find_method("run", "()V") is method
    assert cf._methods_by_key is cf._methods_by_key


def test_a_method_keeps_no_decoded_listing():
    method = parsed().methods[0]
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
