"""Hierarchical GUI models: ingestion, validation, persistence, code linking.

A model is a rooted tree. The root is synthetic (it corresponds to no
on-screen artifact), its direct children are the application's windows
and everything deeper is a widget. Element identity comes from an
externally supplied id that must be unique across the whole model; the
uniqueness safeguard runs on every load.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import PureWindowsPath
from typing import Iterator, NamedTuple

from .errors import ReportItem, SchemaViolation, TransformFailure
from .xmlio import XmlWriter, read_document

RIPPER_FORMAT = "ripper"
SYNTH_PREFIX = "synth:"
# deepest element level a model may hold (windows are level 1); reading,
# writing and comparing models recurse up to four frames per level, which
# keeps a model at the limit well under Python's default recursion limit
MAX_GUI_DEPTH = 128


class GuiElement(NamedTuple):
    """One window or widget, with its recorded properties and children."""

    id: str
    element_class: str
    bounds: tuple[int, int, int, int] = (0, 0, 0, 0)
    visible: bool = True
    title: str | None = None
    screenshot: str | None = None
    event_handlers: tuple[str, ...] = ()
    properties: tuple[tuple[str, str], ...] = ()
    children: tuple["GuiElement", ...] = ()
    is_window: bool = False


def synthetic_root(windows: tuple[GuiElement, ...]) -> GuiElement:
    return GuiElement(id="", element_class="", children=windows)


class GuiModel(NamedTuple):
    """A validated-on-load GUI tree plus the tag of its external origin."""

    root: GuiElement
    source_format: str

    def walk(self) -> Iterator[tuple[GuiElement, int, str]]:
        """Pre-order traversal yielding (element, depth, index path).

        The root is not yielded; depth 1 is the window level. The path is
        the slash-joined sequence of sibling indices from the root.
        """
        def recurse(element: GuiElement, depth: int, path: str):
            for index, child in enumerate(element.children):
                child_path = f"{path}/{index}"
                yield child, depth, child_path
                yield from recurse(child, depth + 1, child_path)

        yield from recurse(self.root, 1, "")

    def counts(self) -> tuple[int, int]:
        """(widgets, windows): all non-root elements, hidden ones included."""
        windows = 0
        widgets = 0
        for _, depth, _ in self.walk():
            if depth == 1:
                windows += 1
            else:
                widgets += 1
        return widgets, windows


class HandlerBinding(NamedTuple):
    """The link from one GUI element to one event handler class, and the
    handler's methods when the class was parsed."""

    element_id: str
    handler_class: str
    methods: tuple = ()

    @property
    def status(self) -> str:
        return "resolved" if self.methods else "unresolved"


def validate_gui(m: GuiModel) -> list[ReportItem]:
    """Check the structural invariants; violations are data, never raises.

    Each finding is a ``violation`` :class:`ReportItem` that names the
    paths of its elements. An empty report means: ids unique and
    non-empty, windows exactly at depth 1, no negative sizes, screenshot
    paths relative.
    """
    violations: list[ReportItem] = []

    def violation(code: str, paths: tuple[str, ...], detail: str) -> None:
        violations.append(ReportItem("violation", code, detail, paths))

    ids: dict[str, list[str]] = {}
    for element, depth, path in m.walk():
        if not element.id:
            violation("MissingId", (path,), f"element at {path} has no id")
        else:
            ids.setdefault(element.id, []).append(path)
        if element.is_window != (depth == 1):
            expected = "window" if depth == 1 else "widget"
            violation("WindowLevelViolation", (path,),
                      f"element {element.id or path!r} at depth {depth} must be a {expected}")
        _, _, w, h = element.bounds
        if w < 0 or h < 0:
            violation("NegativeSize", (path,),
                      f"element {element.id or path!r} has negative size {w}x{h}")
        if element.screenshot is not None and _is_absolute(element.screenshot):
            violation("AbsoluteScreenshot", (path,),
                      f"screenshot path must be relative: {element.screenshot}")
    for dup_id, paths in sorted(ids.items()):
        if len(paths) > 1:
            violation("DuplicateId", tuple(paths), f"id {dup_id!r} used at " + " and ".join(paths))
    return violations


def _is_absolute(path: str) -> bool:
    return path.startswith("/") or PureWindowsPath(path).is_absolute()


# --- external model ingestion -------------------------------------------

def _ripper_properties(node: ET.Element, path: str) -> list[tuple[str, str]]:
    attrs = node.find("Attributes")
    pairs: list[tuple[str, str]] = []
    if attrs is None:
        return pairs
    for prop in attrs.findall("Property"):
        name = prop.findtext("Name")
        value = prop.findtext("Value")
        if name is None:
            raise TransformFailure("Property without Name", path)
        pairs.append((name, value or ""))
    return pairs


def _ripper_int(pairs: dict[str, str], key: str, default: int, path: str) -> int:
    raw = pairs.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise TransformFailure(f"property {key} is not an integer: {raw!r}", path) from None


def _ripper_element(node: ET.Element, path: str, index_path: str,
                    depth: int) -> GuiElement:
    if depth > MAX_GUI_DEPTH:
        raise TransformFailure(f"nested deeper than {MAX_GUI_DEPTH} levels", path)
    pairs = _ripper_properties(node, path)
    handlers = tuple(v for k, v in pairs if k == "EventHandler")
    known = {"ID", "Class", "Title", "X", "Y", "Width", "Height",
             "Visible", "Screenshot", "EventHandler"}
    by_name = {k: v for k, v in pairs if k not in ("EventHandler",)}
    extras = tuple((k, v) for k, v in pairs if k not in known)
    bounds = (
        _ripper_int(by_name, "X", 0, path),
        _ripper_int(by_name, "Y", 0, path),
        _ripper_int(by_name, "Width", 0, path),
        _ripper_int(by_name, "Height", 0, path),
    )
    visible_raw = by_name.get("Visible", "true").lower()
    if visible_raw not in ("true", "false"):
        raise TransformFailure(f"property Visible is not a boolean: {visible_raw!r}", path)
    children = []
    contents = node.find("Contents")
    if contents is not None:
        for child_index, child in enumerate(contents.findall("Component")):
            children.append(_ripper_element(
                child,
                f"{path}/Contents/Component[{child_index}]",
                f"{index_path}/{child_index}",
                depth + 1))
    return GuiElement(
        id=by_name.get("ID") or f"{SYNTH_PREFIX}{index_path}",
        element_class=by_name.get("Class", ""),
        bounds=bounds,
        visible=visible_raw == "true",
        title=by_name.get("Title"),
        screenshot=by_name.get("Screenshot"),
        event_handlers=handlers,
        properties=extras,
        children=tuple(children),
        is_window=depth == 1,
    )


def transform_external(doc: bytes | str) -> GuiModel:
    """Convert a ripper-produced XML document into a validated model.

    Expected shape: a ``GUIStructure`` root with one ``GUI`` child holding
    ``Window`` elements; every Window/Component carries an ``Attributes``
    list of Name/Value ``Property`` pairs (ID, Class, Title, X, Y, Width,
    Height, Visible, Screenshot, repeated EventHandler; anything else is
    kept as an extra property) and an optional ``Contents`` list of child
    ``Component`` elements, at most ``MAX_GUI_DEPTH`` levels deep. Element
    ids come from the ``ID`` property, or are synthesized from the
    element's index path when the document provides none.
    """
    root = read_document(doc, "GUIStructure", TransformFailure)
    gui = root.find("GUI")
    if gui is None:
        raise TransformFailure("missing GUI element", "/GUIStructure")
    windows = []
    for index, window in enumerate(gui.findall("Window")):
        windows.append(_ripper_element(
            window, f"/GUIStructure/GUI/Window[{index}]", f"/{index}", 1))
    if not windows:
        raise TransformFailure("document contains no windows", "/GUIStructure/GUI")
    model = GuiModel(synthetic_root(tuple(windows)), RIPPER_FORMAT)
    violations = validate_gui(model)
    if violations:
        raise TransformFailure(
            "transformed model violates invariants: "
            + "; ".join(v.detail for v in violations))
    return model


# --- persistence ----------------------------------------------------------

def persist_gui(m: GuiModel) -> bytes:
    """Serialize a model to deterministic UTF-8 XML bytes."""
    writer = XmlWriter()
    writer.element("gui", [("source", m.source_format)],
                   has_children=bool(m.root.children))

    def emit(element: GuiElement, depth: int) -> None:
        tag = "window" if depth == 1 else "widget"
        x, y, w, h = element.bounds
        attrs = [("id", element.id), ("class", element.element_class)]
        if element.title is not None:
            attrs.append(("title", element.title))
        attrs += [("x", str(x)), ("y", str(y)), ("w", str(w)), ("h", str(h)),
                  ("visible", "true" if element.visible else "false")]
        if element.screenshot is not None:
            attrs.append(("screenshot", element.screenshot))
        has_children = bool(element.event_handlers or element.properties
                            or element.children)
        writer.element(tag, attrs, has_children)
        for handler in element.event_handlers:
            writer.leaf("handler", [("class", handler)])
        for name, value in element.properties:
            writer.leaf("prop", [("name", name), ("value", value)])
        for child in element.children:
            emit(child, depth + 1)
        if has_children:
            writer.close()

    for window in m.root.children:
        emit(window, 1)
    if m.root.children:
        writer.close()
    return writer.tobytes()


def _load_element(elem: ET.Element, depth: int, path: str) -> GuiElement:
    if depth > MAX_GUI_DEPTH:
        raise SchemaViolation(
            f"element at {path} is nested deeper than {MAX_GUI_DEPTH} levels")
    attrs = elem.attrib
    try:
        bounds = (int(attrs["x"]), int(attrs["y"]), int(attrs["w"]), int(attrs["h"]))
    except KeyError as exc:
        raise SchemaViolation(f"element at {path} missing attribute {exc.args[0]!r}")
    except ValueError as exc:
        raise SchemaViolation(f"element at {path} has non-integer bounds: {exc}")
    visible_raw = attrs.get("visible")
    if visible_raw not in ("true", "false"):
        raise SchemaViolation(f"element at {path} has invalid visible={visible_raw!r}")
    handlers = []
    properties = []
    children = []
    child_index = 0
    for child in elem:
        if child.tag == "handler":
            if "class" not in child.attrib:
                raise SchemaViolation(f"handler at {path} missing class attribute")
            handlers.append(child.attrib["class"])
        elif child.tag == "prop":
            if "name" not in child.attrib or "value" not in child.attrib:
                raise SchemaViolation(f"prop at {path} missing name/value")
            properties.append((child.attrib["name"], child.attrib["value"]))
        elif child.tag in ("window", "widget"):
            children.append(_load_element(child, depth + 1, f"{path}/{child_index}"))
            child_index += 1
        else:
            raise SchemaViolation(f"unexpected element <{child.tag}> at {path}")
    return GuiElement(
        id=attrs.get("id", ""),
        element_class=attrs.get("class", ""),
        bounds=bounds,
        visible=visible_raw == "true",
        title=attrs.get("title"),
        screenshot=attrs.get("screenshot"),
        event_handlers=tuple(handlers),
        properties=tuple(properties),
        children=tuple(children),
        is_window=elem.tag == "window",
    )


def load_gui(doc: bytes | str) -> GuiModel:
    """Parse a persisted model and enforce every validation rule.

    Any validation violation (duplicate ids above all) aborts the load
    with a SchemaViolation carrying the full report.
    """
    root = read_document(doc, "gui", SchemaViolation)
    if "source" not in root.attrib:
        raise SchemaViolation("<gui> missing required attribute 'source'")
    windows = []
    for index, child in enumerate(root):
        if child.tag not in ("window", "widget"):
            raise SchemaViolation(f"unexpected element <{child.tag}> under <gui>")
        windows.append(_load_element(child, 1, f"/{index}"))
    model = GuiModel(synthetic_root(tuple(windows)), root.attrib["source"])
    violations = validate_gui(model)
    if violations:
        raise SchemaViolation(
            "model violates invariants: " + "; ".join(v.detail for v in violations),
            violations)
    return model


# --- code linkage ----------------------------------------------------------

def link_event_handlers(m: GuiModel, h) -> list[HandlerBinding]:
    """Bind every (element, handler class) pair to the code model.

    ``h`` is a ClassHierarchy; a binding resolves when the handler class
    was parsed, in which case it lists all the class's declared methods.
    """
    bindings: list[HandlerBinding] = []
    for element, _, _ in m.walk():
        for handler in element.event_handlers:
            cf = h.classes.get(handler)
            methods = tuple(meth.ref(cf.class_name) for meth in cf.methods.values()) if cf else ()
            bindings.append(HandlerBinding(element.id, handler, methods))
    return bindings
