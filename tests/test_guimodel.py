"""GUI model ingestion, validation, persistence and code linking."""

import random

import pytest

from apprepo.guimodel import (
    MAX_GUI_DEPTH,
    GuiElement,
    GuiModel,
    HandlerBinding,
    link_event_handlers,
    load_gui,
    persist_gui,
    synthetic_root,
    transform_external,
    validate_gui,
)
from apprepo.errors import SchemaViolation, TransformFailure

from generators import random_gui_model


def prop(name, value):
    return f"<Property><Name>{name}</Name><Value>{value}</Value></Property>"


def ripper_node(tag, props, children=()):
    inner = "".join(children)
    contents = f"<Contents>{inner}</Contents>" if children else ""
    return f"<{tag}><Attributes>{''.join(props)}</Attributes>{contents}</{tag}>"


def ripper_doc(*windows):
    return f"<GUIStructure><GUI>{''.join(windows)}</GUI></GUIStructure>"


def widget(wid, *children, is_window=False, **kwargs):
    defaults = dict(element_class="Panel", bounds=(0, 0, 10, 10))
    defaults.update(kwargs)
    return GuiElement(id=wid, children=tuple(children), is_window=is_window, **defaults)


def window(wid, *children, **kwargs):
    return widget(wid, *children, is_window=True, **kwargs)


def model(*windows):
    return GuiModel(synthetic_root(tuple(windows)), "test")


# --- external transformation -------------------------------------------------

def test_transform_window_with_button():
    doc = ripper_doc(ripper_node("Window", [
        prop("ID", "w1"), prop("Class", "JFrame"), prop("Title", "Main"),
        prop("X", "10"), prop("Y", "20"), prop("Width", "300"), prop("Height", "200"),
    ], [ripper_node("Component", [prop("ID", "b1"), prop("Class", "JButton")])]))
    m = transform_external(doc)
    assert len(m.root.children) == 1
    win = m.root.children[0]
    assert (win.id, win.element_class, win.title) == ("w1", "JFrame", "Main")
    assert win.bounds == (10, 20, 300, 200)
    assert win.is_window
    assert [c.id for c in win.children] == ["b1"]
    assert not win.children[0].is_window


def test_transform_empty_document_fails():
    with pytest.raises(TransformFailure):
        transform_external(ripper_doc())


def test_transform_depth_three_preserves_order():
    doc = ripper_doc(ripper_node("Window", [prop("ID", "w")], [
        ripper_node("Component", [prop("ID", "panel")], [
            ripper_node("Component", [prop("ID", "first")]),
            ripper_node("Component", [prop("ID", "second")]),
        ])]))
    m = transform_external(doc)
    panel = m.root.children[0].children[0]
    assert [c.id for c in panel.children] == ["first", "second"]


def test_transform_synthesizes_missing_ids():
    doc = ripper_doc(ripper_node("Window", [prop("Class", "JFrame")], [
        ripper_node("Component", [prop("Class", "JButton")]),
        ripper_node("Component", [prop("ID", "named")]),
    ]))
    m = transform_external(doc)
    win = m.root.children[0]
    assert win.id == "synth:/0"
    assert win.children[0].id == "synth:/0/0"
    assert win.children[1].id == "named"


def test_transform_collects_handlers_and_extras():
    doc = ripper_doc(ripper_node("Window", [
        prop("ID", "w"), prop("EventHandler", "app/H1"), prop("EventHandler", "app/H2"),
        prop("Tooltip", "hi"), prop("Visible", "false"),
        prop("Screenshot", "shots/w.png"),
    ]))
    win = transform_external(doc).root.children[0]
    assert win.event_handlers == ("app/H1", "app/H2")
    assert win.properties == (("Tooltip", "hi"),)
    assert win.visible is False
    assert win.screenshot == "shots/w.png"


def test_transform_bad_int_names_node():
    doc = ripper_doc(ripper_node("Window", [prop("ID", "w"), prop("X", "wide")]))
    with pytest.raises(TransformFailure, match=r"Window\[0\]"):
        transform_external(doc)


def test_transform_duplicate_external_ids_fail():
    doc = ripper_doc(
        ripper_node("Window", [prop("ID", "w")],
                    [ripper_node("Component", [prop("ID", "b1")]),
                     ripper_node("Component", [prop("ID", "b1")])]))
    with pytest.raises(TransformFailure, match="b1"):
        transform_external(doc)


def test_widget_count_conservation():
    for seed in range(20):
        rng = random.Random(seed)
        names = [f"e{i}" for i in range(rng.randint(1, 15))]
        # one window, all others nested underneath in a random chain
        nodes = [ripper_node("Component", [prop("ID", n)]) for n in names[1:]]
        doc = ripper_doc(ripper_node("Window", [prop("ID", names[0])], nodes))
        m = transform_external(doc)
        widgets, windows = m.counts()
        assert widgets + windows == len(names)


# --- validation -----------------------------------------------------------------

def test_empty_model_valid():
    assert validate_gui(model()) == []


def test_duplicate_id_names_both_paths():
    m = model(window("w", widget("btn1"), widget("btn1")))
    report = validate_gui(m)
    dups = [v for v in report if v.code == "DuplicateId"]
    assert len(dups) == 1
    assert dups[0].paths == ("/0/0", "/0/1")
    assert "btn1" in dups[0].detail


def test_widget_at_window_level_violation():
    m = model(widget("stray"))  # depth 1 but not a window
    report = validate_gui(m)
    assert [v.code for v in report] == ["WindowLevelViolation"]


def test_window_below_top_level_violation():
    m = model(window("w", window("nested")))
    assert [v.code for v in validate_gui(m)] == ["WindowLevelViolation"]


def test_missing_id_violation():
    m = model(window("w", widget("")))
    assert [v.code for v in validate_gui(m)] == ["MissingId"]


def test_negative_size_violation():
    m = model(window("w", widget("x", bounds=(0, 0, -1, 5))))
    assert [v.code for v in validate_gui(m)] == ["NegativeSize"]


def test_zero_and_one_pixel_elements_legal():
    m = model(window("w", widget("tiny", bounds=(5, 5, 1, 1)),
                     widget("zero", bounds=(0, 0, 0, 0))))
    assert validate_gui(m) == []


def test_negative_position_legal():
    assert validate_gui(model(window("w", bounds=(-10, -20, 5, 5)))) == []


def test_absolute_screenshot_violation():
    m = model(window("w", screenshot="/abs/shot.png"))
    assert [v.code for v in validate_gui(m)] == ["AbsoluteScreenshot"]


# --- persistence ------------------------------------------------------------------

def test_round_trip_structural_identity():
    m = model(
        window("w1", widget("p", widget("b", event_handlers=("app/H",))),
               title="Ti&tle <>", screenshot="s/w1.png",
               properties=(("k", "v ☃"),)),
        window("w2", visible=False))
    m = GuiModel(m.root, "ripper")
    assert load_gui(persist_gui(m)) == m


def test_persist_byte_deterministic():
    m = model(window("w", widget("a"), widget("b")))
    assert persist_gui(m) == persist_gui(m)


def test_persist_attribute_order():
    text = persist_gui(model(window("w", title="T", screenshot="s.png"))).decode()
    line = next(l for l in text.splitlines() if "<window" in l)
    positions = [line.index(k) for k in
                 ('id="', 'class="', 'title="', 'x="', 'y="', 'w="', 'h="',
                  'visible="', 'screenshot="')]
    assert positions == sorted(positions)


def test_load_rejects_duplicate_ids_with_report():
    good = persist_gui(model(window("w", widget("a"), widget("b"))))
    mutated = good.replace(b'id="b"', b'id="a"')
    with pytest.raises(SchemaViolation) as err:
        load_gui(mutated)
    assert [v.code for v in err.value.violations] == ["DuplicateId"]


def test_load_rejects_bad_structure():
    with pytest.raises(SchemaViolation, match="root element"):
        load_gui("<nope/>")
    with pytest.raises(SchemaViolation, match="source"):
        load_gui("<gui/>")
    with pytest.raises(SchemaViolation, match="missing attribute"):
        load_gui('<gui source="x"><window id="w" class="C"/></gui>')


def nested_ripper_doc(depth):
    """A ripper document holding one chain of elements ``depth`` levels deep."""
    opens = [f"<Window><Attributes>{prop('ID', 'e1')}</Attributes>"]
    opens += [f"<Contents><Component><Attributes>{prop('ID', f'e{level}')}</Attributes>"
              for level in range(2, depth + 1)]
    closes = ["</Component></Contents>"] * (depth - 1) + ["</Window>"]
    return ripper_doc("".join(opens + closes))


def nested_model_doc(depth):
    """A persisted model holding one chain of elements ``depth`` levels deep."""
    bounds = 'x="0" y="0" w="1" h="1" visible="true"'
    opens = [f'<gui source="ripper"><window id="e1" class="C" {bounds}>']
    opens += [f'<widget id="e{level}" class="C" {bounds}>' for level in range(2, depth + 1)]
    closes = ["</widget>"] * (depth - 1) + ["</window></gui>"]
    return "".join(opens + closes)


def test_transform_rejects_nesting_beyond_the_limit():
    with pytest.raises(TransformFailure) as err:
        transform_external(nested_ripper_doc(2000))
    assert f"nested deeper than {MAX_GUI_DEPTH} levels" in str(err.value)
    assert err.value.node_path == (
        "/GUIStructure/GUI/Window[0]" + "/Contents/Component[0]" * MAX_GUI_DEPTH)


def test_load_rejects_nesting_beyond_the_limit():
    with pytest.raises(SchemaViolation) as err:
        load_gui(nested_model_doc(2000))
    assert str(err.value) == (f"element at {'/0' * (MAX_GUI_DEPTH + 1)}"
                              f" is nested deeper than {MAX_GUI_DEPTH} levels")


def test_documents_at_the_depth_limit_load_and_round_trip():
    m = transform_external(nested_ripper_doc(MAX_GUI_DEPTH))
    assert m.counts() == (MAX_GUI_DEPTH - 1, 1)
    assert max(depth for _, depth, _ in m.walk()) == MAX_GUI_DEPTH
    doc = persist_gui(m)
    assert load_gui(doc) == m
    assert persist_gui(load_gui(doc)) == doc
    assert load_gui(nested_model_doc(MAX_GUI_DEPTH)).counts() == (MAX_GUI_DEPTH - 1, 1)


def test_round_trip_randomized():
    for seed in range(60):
        m = random_gui_model(random.Random(seed))
        doc = persist_gui(m)
        assert load_gui(doc) == m, f"seed={seed}"
        assert persist_gui(load_gui(doc)) == doc, f"seed={seed}"


# --- linkage and diffing ------------------------------------------------------------

def test_link_no_handlers(hierarchy):
    assert link_event_handlers(model(window("w")), hierarchy) == []


def test_link_resolved_handler_lists_methods(hierarchy):
    m = model(window("w", event_handlers=("fix/Circle",)))
    bindings = link_event_handlers(m, hierarchy)
    assert len(bindings) == 1
    binding = bindings[0]
    assert binding.status == "resolved"
    assert binding._replace(methods=()).status == "unresolved"
    assert binding.element_id == "w"
    assert len(binding.methods) == 3  # <init>, area, label
    assert {r.name for r in binding.methods} == {"<init>", "area", "label"}


def test_link_unresolved_handler(hierarchy):
    m = model(window("w", event_handlers=("no/Such",)))
    bindings = link_event_handlers(m, hierarchy)
    assert bindings == [HandlerBinding("w", "no/Such")]
    assert bindings[0].status == "unresolved"
    assert bindings[0]._replace(methods=(("x",),)).status == "resolved"


def test_link_methodless_class_is_unresolved():
    from apprepo.callgraph import hierarchy_from_classes
    from generators import make_class

    h = hierarchy_from_classes([make_class("app/Empty", "java/lang/Object")])
    bindings = link_event_handlers(
        model(window("w", event_handlers=("app/Empty",))), h)
    assert bindings[0].status == "unresolved"


def test_link_document_order(hierarchy):
    m = model(window("w", widget("a", event_handlers=("fix/Util",)),
                     event_handlers=("no/Such",)),
              window("v", event_handlers=("fix/Circle",)))
    ids = [b.element_id for b in link_event_handlers(m, hierarchy)]
    assert ids == ["w", "a", "v"]


def test_diff_identical_models():
    m = model(window("w", widget("a")))
    assert m.counts() == m.counts() == (1, 1)


def test_diff_three_vs_four_widgets():
    a = model(window("w", widget("a"), widget("b"), widget("c")))
    b = model(window("w", widget("a"), widget("b"), widget("c"), widget("d")))
    assert (a.counts(), b.counts()) == ((3, 1), (4, 1))


def test_diff_empty_vs_one_window():
    assert (model().counts(), model(window("w")).counts()) == ((0, 0), (0, 1))


def test_hidden_widgets_counted():
    m = model(window("w", widget("h", visible=False), widget("v")))
    widgets, windows = m.counts()
    assert (widgets, windows) == (2, 1)
