"""Call graph XML persistence: schema, round trips, determinism."""

import random
import xml.etree.ElementTree as ET
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apprepo.callgraph import (
    build_callgraph,
    find_main_entries,
    parse_callgraph,
    serialize_callgraph,
)
from apprepo.classfile import MethodRef
from apprepo.errors import SchemaViolation
from apprepo.xmlio import escape_attr, non_xml_char

from generators import APP, EXTERNAL, LIB, callgraph_of, random_callgraph

MAIN_DESC = "([Ljava/lang/String;)V"


def test_empty_graph_document():
    doc = serialize_callgraph(callgraph_of({}))
    assert doc == (b'<?xml version="1.0" encoding="UTF-8"?>\n'
                   b'<callgraph algorithm="CHA"/>\n')


def test_golden_document_sorts_by_raw_text():
    # "9" is a legal JVM method name. By raw text p/A.9()V sorts before
    # p/A.<init>()V ('9' < '<'); by escaped text &lt;init&gt; would sort
    # first ('&' < '9').
    main = MethodRef("p/Main", "main", MAIN_DESC)
    init = MethodRef("p/A", "<init>", "()V")
    nine = MethodRef("p/A", "9", "()V")
    graph = callgraph_of({main: APP, init: LIB, nine: LIB},
                         edges={(main, init), (main, nine)}, entry_points={main})
    doc = serialize_callgraph(graph)
    assert doc == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<callgraph algorithm="CHA">\n'
        b'  <method id="p/A.9()V" inClass="p/A" inFramework="false" inLibrary="true"'
        b' inApplication="false" reachable="true"/>\n'
        b'  <method id="p/A.&lt;init&gt;()V" inClass="p/A" inFramework="false"'
        b' inLibrary="true" inApplication="false" reachable="true"/>\n'
        b'  <method id="p/Main.main([Ljava/lang/String;)V" inClass="p/Main"'
        b' inFramework="false" inLibrary="false" inApplication="true" reachable="true"'
        b' entry="true">\n'
        b'    <calls target="p/A.9()V"/>\n'
        b'    <calls target="p/A.&lt;init&gt;()V"/>\n'
        b'  </method>\n'
        b'</callgraph>\n')
    assert parse_callgraph(doc) == graph


@pytest.mark.parametrize("raw,escaped", [
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\n", "&#10;"), ("\r", "&#13;"), ("\t", "&#9;"),
    ("a&b<c>d\"e\nf\rg\th", "a&amp;b&lt;c&gt;d&quot;e&#10;f&#13;g&#9;h"),
    ("pkg/Cls$1.m'x(I)V", "pkg/Cls$1.m'x(I)V"),
])
def test_escape_attr(raw, escaped):
    assert escape_attr(raw) == escaped


# the reference: the seven escapes as one translation table
ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                              "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(st.text(st.sampled_from('<>&"\t\r\n\x00\u00e9\ud800a;#')) | st.text())
def test_escape_attr_agrees_with_the_escape_table(text):
    assert escape_attr(text) == text.translate(ATTR_ESCAPES)


def test_unpaired_surrogate_in_method_name_is_a_schema_violation():
    # "x\ud800" is valid modified UTF-8 (ED A0 80) but has no UTF-8 form
    main = MethodRef("p/A", "main", MAIN_DESC)
    odd = MethodRef("p/A", "x\ud800", "()V")
    graph = callgraph_of({main: EXTERNAL, odd: EXTERNAL},
                         edges={(main, odd)}, entry_points={main})
    with pytest.raises(SchemaViolation, match=r"'p/A\.x\\ud800\(\)V' holds an unpaired"):
        serialize_callgraph(graph)


@pytest.mark.parametrize("odd,twin", [
    # written as p/A.x(y()V, which reads back as p/A.x with descriptor (y()V
    (MethodRef("p/A", "x(y", "()V"), None),
    # both written as p/A.b.c()V, which reads back as the second
    (MethodRef("p/A", "b.c", "()V"), MethodRef("p/A.b", "c", "()V")),
    # written as p/A.mV, which holds no "(" and so reads back as no method
    (MethodRef("p/A", "m", "V"), None),
], ids=["paren-in-name", "dot-in-name-collides", "descriptor-without-paren"])
def test_method_whose_text_reads_back_as_another_is_a_schema_violation(odd, twin):
    main = MethodRef("p/A", "main", MAIN_DESC)
    callees = {odd} if twin is None else {odd, twin}
    graph = callgraph_of(dict.fromkeys({main} | callees, EXTERNAL),
                         edges={(main, c) for c in callees}, entry_points={main})
    with pytest.raises(SchemaViolation) as info:
        serialize_callgraph(graph)
    assert str(info.value) == (f"method {odd.name!r} of class 'p/A' is written as"
                               f" {odd.text!r}, which reads back as another method")


def test_writer_refuses_exactly_the_methods_that_do_not_read_back():
    # every class, name and descriptor of up to 2 of the characters from_text splits at
    fields = ["".join(chars) for n in range(3) for chars in product("a.(", repeat=n)]
    for ref in map(MethodRef._make, product(fields, repeat=3)):
        try:
            reads_back = MethodRef.from_text(ref.text) == ref
        except ValueError:
            reads_back = False
        try:
            serialize_callgraph(callgraph_of({ref: EXTERNAL}))
        except SchemaViolation:
            assert not reads_back, ref
        else:
            assert reads_back, ref


def test_single_node_attributes():
    ref = MethodRef("pkg/Cls", "m", "(I)I")
    doc = serialize_callgraph(callgraph_of({ref: APP})).decode()
    assert '<method id="pkg/Cls.m(I)I"' in doc
    assert 'inClass="pkg/Cls"' in doc
    assert 'inFramework="false"' in doc
    assert 'inLibrary="false"' in doc
    assert 'inApplication="true"' in doc
    assert 'reachable="true"' in doc


def test_methods_sorted_and_calls_sorted(hierarchy):
    graph = build_callgraph(hierarchy, {MethodRef("fix/Main2", "main", MAIN_DESC)})
    text = serialize_callgraph(graph).decode()
    ids = [line.split('id="')[1].split('"')[0]
           for line in text.splitlines() if "<method" in line]
    assert ids == sorted(ids)
    targets = [line.split('target="')[1].split('"')[0]
               for line in text.splitlines() if "<calls" in line]
    # within each method block targets are sorted; check per block
    blocks = text.split("<method")
    for block in blocks[1:]:
        block_targets = [line.split('target="')[1].split('"')[0]
                         for line in block.splitlines() if "<calls" in line]
        assert block_targets == sorted(block_targets)
    assert targets  # the fixture graph has edges


def test_round_trip_built_graph(hierarchy):
    for main_class in ("fix/Main1", "fix/Main2", "fix/Main3"):
        graph = build_callgraph(hierarchy, {MethodRef(main_class, "main", MAIN_DESC)})
        doc = serialize_callgraph(graph)
        assert parse_callgraph(doc) == graph


def test_node_and_edge_counts_match_the_document(hierarchy):
    # the bench reports callgraph.nodes and callgraph.edges from these lengths
    graph = build_callgraph(hierarchy, find_main_entries(hierarchy))
    doc = serialize_callgraph(graph)
    root = ET.fromstring(doc)
    counts = (len(root.findall("method")), len(root.findall("method/calls")))
    assert counts[1] > 0
    for g in (graph, parse_callgraph(doc)):
        assert (len(g.nodes), len(g.edges)) == counts


def test_serialize_deterministic(hierarchy):
    graph = build_callgraph(hierarchy, {MethodRef("fix/Main3", "main", MAIN_DESC)})
    assert serialize_callgraph(graph) == serialize_callgraph(graph)


def test_round_trip_randomized():
    for seed in range(60):
        graph = random_callgraph(random.Random(seed))
        doc = serialize_callgraph(graph)
        back = parse_callgraph(doc)
        assert back == graph, f"seed={seed}"
        assert serialize_callgraph(back) == doc, f"seed={seed}"


def test_entry_points_survive_round_trip():
    ref = MethodRef("A", "main", MAIN_DESC)
    graph = callgraph_of({ref: APP}, entry_points={ref})
    back = parse_callgraph(serialize_callgraph(graph))
    assert back.entry_points == {ref}


def test_parse_rejects_dangling_target():
    doc = """<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="A" inFramework="false" inLibrary="false" inApplication="true" reachable="true">
    <calls target="B.gone()V"/>
  </method>
</callgraph>
"""
    with pytest.raises(SchemaViolation, match="B.gone"):
        parse_callgraph(doc)


def test_parse_rejects_duplicate_method_id():
    doc = """<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="A" inFramework="false" inLibrary="false" inApplication="true" reachable="true"/>
  <method id="A.m()V" inClass="A" inFramework="false" inLibrary="false" inApplication="true" reachable="true"/>
</callgraph>
"""
    with pytest.raises(SchemaViolation, match="duplicate method id"):
        parse_callgraph(doc)


def test_parse_rejects_missing_attribute():
    doc = """<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="A" inFramework="false" reachable="true"/>
</callgraph>
"""
    with pytest.raises(SchemaViolation, match="inLibrary"):
        parse_callgraph(doc)


def test_parse_rejects_inclass_mismatch():
    doc = """<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="B" inFramework="false" inLibrary="false" inApplication="true" reachable="true"/>
</callgraph>
"""
    with pytest.raises(SchemaViolation, match="disagrees"):
        parse_callgraph(doc)


def test_parse_rejects_bad_xml():
    with pytest.raises(SchemaViolation, match="well-formed"):
        parse_callgraph("<callgraph><method</callgraph>")


def test_parse_rejects_wrong_root():
    with pytest.raises(SchemaViolation, match="root element"):
        parse_callgraph("<graph/>")


@pytest.mark.parametrize("flag", ["inFramework", "entry"])
def test_parse_rejects_bad_boolean(flag):
    flags = {"inFramework": "false", "inLibrary": "false", "inApplication": "true",
             "reachable": "true", flag: "yes"}
    attrs = "".join(f' {name}="{value}"' for name, value in flags.items())
    doc = f"""<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="A"{attrs}/>
</callgraph>
"""
    with pytest.raises(SchemaViolation,
                       match=f"^{flag} must be 'true' or 'false', got 'yes'$"):
        parse_callgraph(doc)


def test_parse_rejects_a_repeated_call_target():
    flags = 'inFramework="false" inLibrary="false" inApplication="true" reachable="true"'
    doc = f"""<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="A" {flags}>
    <calls target="A.n()V"/>
    <calls target="A.n()V"/>
  </method>
  <method id="A.n()V" inClass="A" {flags}/>
</callgraph>
"""
    with pytest.raises(SchemaViolation) as err:
        parse_callgraph(doc)
    assert str(err.value) == "method 'A.m()V' lists call target 'A.n()V' twice"


def test_text_edit_duplicating_id_detected(hierarchy):
    # mutate a valid document by duplicating one method element
    graph = build_callgraph(hierarchy, {MethodRef("fix/Main1", "main", MAIN_DESC)})
    text = serialize_callgraph(graph).decode()
    lines = text.splitlines()
    method_line = next(l for l in lines if "<method" in l and l.endswith("/>"))
    lines.insert(lines.index(method_line), method_line)
    with pytest.raises(SchemaViolation, match="duplicate method id"):
        parse_callgraph("\n".join(lines))


def test_non_xml_char_follows_the_xml_char_production():
    def is_char(c: int) -> bool:  # XML 1.0 production [2] Char
        return (c in (0x9, 0xA, 0xD) or 0x20 <= c <= 0xD7FF or 0xE000 <= c <= 0xFFFD
                or 0x10000 <= c <= 0x10FFFF)

    plane_bounds = [c for plane in range(1, 17) for c in (plane << 16, plane << 16 | 0xFFFF)]
    for c in [*range(0x10000), *plane_bounds]:
        assert non_xml_char(f"a{chr(c)}b") == (None if is_char(c) else chr(c)), hex(c)
