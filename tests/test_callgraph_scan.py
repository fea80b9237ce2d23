"""The call graph scan against the tree reader: the same graph or the same
error for any document, and no written document left to the tree reader."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apprepo import callgraph
from apprepo.callgraph import build_callgraph, parse_callgraph, serialize_callgraph
from apprepo.classfile import MethodRef
from apprepo.errors import SchemaViolation

from bundles import MAIN_DESC
from generators import callgraph_of, random_callgraph
from test_xml_contract import LOADERS, damaged_document

# characters the writer refuses, each written as a private-use stand-in
# that a document may then carry back: a surrogate, U+FFFE and a C0 control
REFUSED = str.maketrans({"\ue000": "\ud800", "\ue001": "\ufffe", "\ue002": "\x01"})
# escapable, non-ASCII and C1 characters, the characters that split a method
# text, text that looks escaped, and the stand-ins
PIECES = [*'ab/$<>&"\'\t\n\r é中😀\x7f\x85.(', "&lt;", "&amp;", "&#9;", "\ue000", "\ue001",
          "\ue002"]


def texts(exclude: str = "", min_size: int = 0):
    pieces = [p for p in PIECES if not any(c in p for c in exclude)]
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=5).map("".join)


# a method text reads back as its method only when the class holds no "("
# and the name neither "." nor "("
METHODS = st.builds(MethodRef, texts("(", 1), texts(".("),
                    st.builds("({}){}".format, texts(), texts()))
FLAGS = st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans())


@st.composite
def graphs(draw):
    refs = draw(st.lists(METHODS, min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(refs), st.sampled_from(refs))
    return callgraph_of({ref: draw(FLAGS) for ref in refs}, draw(st.lists(pairs, max_size=10)),
                        draw(st.sets(st.sampled_from(refs))))


# the writer's references, each with the character it stands for
REFERENCES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"', "&#10;": "\n",
              "&#13;": "\r", "&#9;": "\t"}


@st.composite
def damaged(draw, doc: bytes) -> bytes:
    """``doc`` damaged as the XML contract test damages any loader's
    document, or with one reference written as its character, one id,
    inClass or target value copied over another, or one method repeated."""
    damage = draw(st.sampled_from(["contract", "literal", "copy", "repeat"]))
    if damage == "contract":
        # every loader's slot holds this document, so each damage applies to it
        return draw(damaged_document(dict.fromkeys(LOADERS, doc)))[1]
    if damage == "literal":
        reference = draw(st.sampled_from(sorted(REFERENCES)))
        return doc.replace(reference.encode(), REFERENCES[reference].encode(), 1)
    if damage == "repeat":
        parts = re.split(rb"(?m)^(?=  <method |</callgraph>)", doc)  # head, methods, tail
        index = draw(st.integers(1, len(parts) - 2))
        return b"".join(parts[:index + 1] + parts[index:])
    spans = [m.span(1) for m in re.finditer(rb'(?:id|inClass|target)="([^"]*)"', doc)]
    (start, end), (to_start, to_end) = draw(st.sampled_from(spans)), draw(st.sampled_from(spans))
    return doc[:to_start] + doc[start:end] + doc[to_end:]


def outcome(read, doc):
    try:
        return read(doc)
    except SchemaViolation as exc:
        return str(exc)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(graph=graphs(), refused=st.sampled_from([False, False, False, True]), data=st.data())
def test_scan_reads_as_the_tree_reader_does(graph, refused, data):
    written = serialize_callgraph(graph).decode("utf-8")
    text = written.translate(REFUSED) if refused else written
    if text == written:
        assert callgraph._scan_callgraph(text) == graph
    doc = text.encode("utf-8", "surrogatepass")
    damaged_doc = data.draw(damaged(doc))
    for form in (damaged_doc, damaged_doc.decode("utf-8", "surrogateescape"), doc, text):
        assert outcome(parse_callgraph, form) == outcome(callgraph._parse_tree, form)


@pytest.fixture
def tree_reads(monkeypatch) -> list:
    """The documents that reach the tree reader."""
    reads = []
    tree = callgraph._parse_tree
    monkeypatch.setattr(callgraph, "_parse_tree", lambda doc: reads.append(doc) or tree(doc))
    return reads


def test_written_documents_never_reach_the_tree_reader(hierarchy, tree_reads):
    rng = random.Random(7)
    written = [random_callgraph(rng) for _ in range(200)]
    written.append(build_callgraph(hierarchy, {MethodRef("fix/Main2", "main", MAIN_DESC)}))
    odd = MethodRef('p/<A>&"\t\n\r', "<init>é中😀", '(L"&;)V')
    written.append(callgraph_of({odd: (True, False, True, False)}, {(odd, odd)}, {odd}))
    for graph in written:
        doc = serialize_callgraph(graph)
        assert parse_callgraph(doc) == graph
        assert parse_callgraph(doc.decode("utf-8")) == graph
    assert tree_reads == []
    # a document off the writer's layout does reach it
    damaged = doc.replace(b' entry="true"', b' entry="false"')
    assert parse_callgraph(damaged).entry_points == frozenset()
    assert tree_reads == [damaged]
