"""Seeded random generators for hierarchies, call graphs and GUI models."""

from __future__ import annotations

import random

from apprepo.callgraph import CallGraph, ClassHierarchy, hierarchy_from_classes
from apprepo.classfile import ClassFile, MethodInfo, MethodRef
from apprepo.classfile.constant_pool import ConstantPool
from apprepo.classfile.parser import ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC
from apprepo.guimodel import GuiElement, GuiModel, synthetic_root

METHOD_NAMES = ["m", "run", "size", "close"]
DESCRIPTORS = ["()V", "(I)I", "()Ljava/lang/String;"]


def _empty_pool() -> ConstantPool:
    return ConstantPool([0], [None])


def make_class(name: str, super_name: str | None, interfaces=(),
               method_sigs=(), is_interface=False) -> ClassFile:
    """Construct an in-memory ClassFile carrying only hierarchy-relevant data."""
    flags = ACC_PUBLIC | (ACC_INTERFACE | ACC_ABSTRACT if is_interface else 0)
    methods = []
    for m_name, m_desc, abstract in method_sigs:
        m_flags = ACC_PUBLIC | (ACC_ABSTRACT if abstract else 0)
        methods.append(MethodInfo(m_name, m_desc, m_flags))
    return ClassFile(
        class_name=name,
        super_name=super_name,
        interfaces=tuple(interfaces),
        access_flags=flags,
        methods=tuple(methods),
        source_file=None,
        constant_pool=_empty_pool(),
    )


def random_hierarchy(rng: random.Random, max_classes: int = 50) -> ClassHierarchy:
    """A random class/interface forest with random method declarations.

    Supers may be external names; interfaces occasionally carry concrete
    (default-style) method declarations.
    """
    count = rng.randint(2, max_classes)
    classes: list[ClassFile] = []
    interface_names: list[str] = []
    class_names: list[str] = []
    for i in range(count):
        name = f"gen/C{i}"
        is_interface = rng.random() < 0.25
        if is_interface:
            super_name = "java/lang/Object"
        elif class_names and rng.random() < 0.7:
            super_name = rng.choice(class_names)
        elif rng.random() < 0.3:
            super_name = "ext/Unseen"
        else:
            super_name = "java/lang/Object"
        ifaces = []
        for candidate in interface_names:
            if rng.random() < 0.15 and len(ifaces) < 2:
                ifaces.append(candidate)
        sigs = []
        for m_name in METHOD_NAMES:
            if rng.random() < 0.45:
                desc = rng.choice(DESCRIPTORS)
                abstract = is_interface and rng.random() < 0.8
                sigs.append((m_name, desc, abstract))
        classes.append(make_class(name, super_name, ifaces, sigs, is_interface))
        (interface_names if is_interface else class_names).append(name)
    return hierarchy_from_classes(classes)


def random_site_args(rng: random.Random, h: ClassHierarchy):
    """(kind, declared MethodRef) over the hierarchy's known names."""
    kind = rng.choice(["static", "special", "virtual", "interface", "dynamic"])
    pool = sorted(h.classes) + sorted(h.externals)
    declared_class = rng.choice(pool)
    name = rng.choice(METHOD_NAMES)
    desc = rng.choice(DESCRIPTORS)
    return kind, MethodRef(declared_class, name, desc)


_ID_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_-."
_TEXT_CHARS = _ID_CHARS + ' <>&"\'é☃'


def _random_text(rng: random.Random, chars: str, low: int, high: int) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randint(low, high)))


# method flags (inFramework, inLibrary, inApplication, reachable) of a
# reachable method of each origin
APP = (False, False, True, True)
LIB = (False, True, False, True)
EXTERNAL = (False, False, False, True)


def callgraph_of(nodes: dict[MethodRef, tuple[bool, bool, bool, bool]],
                 edges=(), entry_points=()) -> CallGraph:
    """A call graph from each method's flags and (caller, callee) pairs."""
    calls: dict[MethodRef, set[MethodRef]] = {}
    for caller, callee in edges:
        calls.setdefault(caller, set()).add(callee)
    return CallGraph(dict(nodes), {caller: frozenset(callees) for caller, callees in calls.items()},
                     frozenset(entry_points))


def random_callgraph(rng: random.Random) -> CallGraph:
    count = rng.randint(0, 12)
    nodes = {}
    for i in range(count):
        cls = f"p{rng.randint(0, 3)}/Cls{i}"
        name = rng.choice(["m", "<init>", "<clinit>", "do_it"])
        desc = rng.choice(DESCRIPTORS)
        # a repeated method keeps its first place and its last flags
        nodes[MethodRef(cls, name, desc)] = (rng.random() < 0.3, rng.random() < 0.3,
                                             rng.random() < 0.7, rng.random() < 0.9)
    refs = list(nodes)
    edges = set()
    for _ in range(rng.randint(0, 20)):
        if len(refs) >= 2:
            edges.add((rng.choice(refs), rng.choice(refs)))
    entries = {ref for ref in refs if rng.random() < 0.25}
    return callgraph_of(nodes, edges, entries)


def random_gui_element(rng: random.Random, depth: int, used_ids: set[str],
                       max_depth: int = 4) -> GuiElement:
    while True:
        new_id = _random_text(rng, _ID_CHARS, 1, 10)
        if new_id not in used_ids:
            used_ids.add(new_id)
            break
    children = []
    if depth < max_depth:
        for _ in range(rng.randint(0, 3 if depth > 1 else 4)):
            children.append(random_gui_element(rng, depth + 1, used_ids, max_depth))
    handlers = tuple(f"app/H{rng.randint(0, 5)}" for _ in range(rng.randint(0, 2)))
    props = tuple(
        (_random_text(rng, _ID_CHARS, 1, 8), _random_text(rng, _TEXT_CHARS, 0, 12))
        for _ in range(rng.randint(0, 2)))
    return GuiElement(
        id=new_id,
        element_class=rng.choice(["Frame", "Panel", "Button", "Menu", "Label"]),
        bounds=(rng.randint(-50, 500), rng.randint(-50, 500),
                rng.randint(0, 800), rng.randint(0, 600)),
        visible=rng.random() < 0.8,
        title=_random_text(rng, _TEXT_CHARS, 0, 15) if rng.random() < 0.5 else None,
        screenshot=f"shots/{_random_text(rng, _ID_CHARS, 1, 8)}.png"
        if rng.random() < 0.4 else None,
        event_handlers=handlers,
        properties=props,
        children=tuple(children),
        is_window=depth == 1,
    )


def random_gui_model(rng: random.Random) -> GuiModel:
    used: set[str] = set()
    windows = tuple(
        random_gui_element(rng, 1, used) for _ in range(rng.randint(0, 4)))
    return GuiModel(synthetic_root(windows), "ripper")
