"""The XML loaders' contract: any document bytes give a value or the loader's
typed error, never another exception. And the writers' contract: what they
write reads back, or they raise SchemaViolation."""

import re
import tempfile
from datetime import date
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apprepo.callgraph import build_callgraph, parse_callgraph, serialize_callgraph
from apprepo.classfile import MethodRef
from apprepo.errors import SchemaViolation, TransformFailure
from apprepo.guimodel import GuiModel, load_gui, persist_gui, transform_external
from apprepo.project import init_project, read_project_file

from bundles import MAIN_DESC, bundle_gui_model, ripper_document

PROJECT_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<project name="demo" version="1.0" timestamp="2001-06-01">
  <binaries path="bin"/>
  <libraries path="lib"/>
  <sources path="src"/>
  <gui path="gui/model.xml" external="gui/ripper.xml"/>
  <callgraph path="callgraph/callgraph.xml"/>
</project>
"""


def read_project_bytes(doc: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "project.xml"
        path.write_bytes(doc)
        return read_project_file(path)


# loader name -> (loader over document bytes, its error type)
LOADERS = {
    "callgraph": (parse_callgraph, SchemaViolation),
    "model": (load_gui, SchemaViolation),
    "ripper": (transform_external, TransformFailure),
    "project": (read_project_bytes, SchemaViolation),
}


@pytest.fixture(scope="module")
def documents(hierarchy) -> dict[str, bytes]:
    """One valid document per loader."""
    graph = build_callgraph(hierarchy, {MethodRef("fix/Main2", "main", MAIN_DESC)})
    return {
        "callgraph": serialize_callgraph(graph),
        "model": persist_gui(bundle_gui_model()),
        "ripper": ripper_document().encode("utf-8"),
        "project": PROJECT_XML,
    }


def test_valid_documents_load(documents):
    for kind, (load, _) in LOADERS.items():
        load(documents[kind])


def with_declaration(doc: bytes, encoding: str) -> bytes:
    body = doc.split(b"?>", 1)[1] if doc.startswith(b"<?xml") else doc
    return f'<?xml version="1.0" encoding="{encoding}"?>'.encode("ascii") + body


# LookupError: unknown or not a text codec; ValueError: multi-byte codec;
# UnicodeError: a codec that fails every decode
@pytest.mark.parametrize("encoding", ["UTF-x", "rot13", "utf-7", "cp932", "undefined"])
@pytest.mark.parametrize("kind", LOADERS)
def test_unusable_declared_encoding_raises_the_loaders_error(documents, kind, encoding):
    load, error = LOADERS[kind]
    with pytest.raises(error, match="not well-formed XML"):
        load(with_declaration(documents[kind], encoding))


ENCODINGS = ["UTF-8", "utf-16", "latin-1", "ascii", "UTF-x", "rot13", "utf-7", "cp932",
             "undefined", "idna", "punycode", "hex", "utf-32", "shift_jis"]
VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8),
    st.sampled_from(["", "-5", "0", "true", "false", "9" * 5000, "/abs/x.png",
                     "p/A.m()V", "p/A", "x\ud800"]))


@st.composite
def damaged_document(draw, documents):
    """One loader and its document with an attribute value or text node
    replaced, a line dropped or repeated, bytes overwritten, text spliced
    in, cut off, spliced from another document, or re-declared."""
    kind = draw(st.sampled_from(sorted(LOADERS)))
    data = bytearray(documents[kind])
    damage = draw(st.sampled_from(["value", "line", "overwrite", "text", "truncate",
                                   "splice", "declare"]))
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 40)))
    if damage == "value":
        spans = [m.span(1) for pattern in (rb'="([^"]*)"', rb">([^<]*)<")
                 for m in re.finditer(pattern, data)]
        start, end = draw(st.sampled_from(spans))
        text = escape(draw(VALUES), {'"': "&quot;"})
        data[start:end] = text.encode("utf-8", "surrogatepass")
    elif damage == "line":
        lines = bytes(data).splitlines(keepends=True)
        index = draw(st.integers(0, len(lines) - 1))
        lines[index:index + 1] = [lines[index]] * draw(st.sampled_from([0, 2]))
        data = bytearray(b"".join(lines))
    elif damage == "overwrite":
        edits = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))
        for position, value in draw(st.lists(edits, min_size=1, max_size=6)):
            data[position] = value
    elif damage == "text":
        data[start:end] = draw(st.text(max_size=12)).encode("utf-8", "surrogatepass")
    elif damage == "truncate":
        del data[start:]
    elif damage == "splice":
        donor = documents[draw(st.sampled_from(sorted(documents)))]
        donor_start = draw(st.integers(0, len(donor)))
        donor_end = draw(st.integers(donor_start, min(len(donor), donor_start + 400)))
        data[start:end] = donor[donor_start:donor_end]
    else:
        data = bytearray(with_declaration(bytes(data), draw(st.sampled_from(ENCODINGS))))
    return kind, bytes(data)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_document_loads_or_raises_the_loaders_error(documents, data):
    kind, doc = data.draw(damaged_document(documents))
    load, error = LOADERS[kind]
    try:
        load(doc)
    except error:
        pass


# text that XML 1.0 cannot carry, not even as a character reference, and
# how the writers name its first such character
UNCARRIED = pytest.mark.parametrize("text,held", [
    ("a\x01b", "character U+0001"),
    ("a\x02b", "character U+0002"),
    ("a\ud800b", "an unpaired surrogate"),
], ids=["U+0001", "U+0002", "surrogate"])


@UNCARRIED
def test_project_writer_refuses_text_xml_cannot_carry(tmp_path, text, held):
    with pytest.raises(SchemaViolation) as info:
        init_project(tmp_path / "p", text, "1.0", date(2001, 6, 1))
    assert str(info.value) == (f"<project> attribute name {text!r} holds {held},"
                               " which XML 1.0 cannot carry")
    assert not (tmp_path / "p").exists()
    with pytest.raises(SchemaViolation, match="<sources> attribute path"):
        init_project(tmp_path / "p", "demo", "1.0", date(2001, 6, 1), sources=text)


@UNCARRIED
def test_gui_writer_refuses_text_xml_cannot_carry(text, held):
    base = bundle_gui_model()
    window = base.root.children[0]._replace(title=text)
    with pytest.raises(SchemaViolation) as info:
        persist_gui(GuiModel(base.root._replace(children=(window,)), base.source_format))
    assert str(info.value) == (f"<window> attribute title {text!r} holds {held},"
                               " which XML 1.0 cannot carry")
