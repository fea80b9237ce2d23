"""Static call graphs over a partitioned class path.

Call targets are resolved with Class Hierarchy Analysis: a virtual or
interface call may dispatch to the resolved declaration or to any
override in a transitive subtype of the declared class. The resulting
edge set over-approximates every dynamic call graph of the program
(invokedynamic sites excepted, which contribute no edges).
"""

from __future__ import annotations

import re
from collections import Counter, deque
from collections.abc import Mapping
from functools import cache
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .classfile import MAIN_DESCRIPTOR, MAIN_NAME, ClassFile, MethodRef, parse_class
from .classfile.constant_pool import CONST_CLASS
from .classfile.opcodes import INVOKE_KINDS
from .containers import iter_class_entries
from .errors import (EntryPointMissing, MalformedClassFile, SchemaViolation,
                     TargetClassMissing)
from .xmlio import (ESCAPED_VALUE, XML_DECLARATION, check_xml_text, escape_attr,
                    non_xml_char, read_document, unescape_attr)

ALGORITHM = "CHA"
CLINIT_NAME = "<clinit>"
CLINIT_DESCRIPTOR = "()V"
# instructions that initialize the class they name (JVMS §5.5), besides invokestatic
_INITIALIZING = frozenset(("new", "getstatic", "putstatic"))
_NO_ORIGIN = (False, False, False)  # the origin flags of an external class
_NO_ORIGINS = MappingProxyType({})  # the origins of a hierarchy built without them
# the attributes of a <method> that hold its flags, in CallGraph.nodes order
_FLAGS = ("inFramework", "inLibrary", "inApplication", "reachable")
# each possible tuple of method flags -> the text of its attributes
_FLAG_ATTRS = {flags: " ".join(f'{name}="{"true" if value else "false"}"'
                               for name, value in zip(_FLAGS, flags))
               for flags in product((False, True), repeat=len(_FLAGS))}
_FLAGS_OF = {text: flags for flags, text in _FLAG_ATTRS.items()}

# the document of a graph with no methods, and the lines around the methods
# of any other graph, as serialize_callgraph writes them
_EMPTY_DOCUMENT = XML_DECLARATION + f'<callgraph algorithm="{ALGORITHM}"/>\n'
_HEAD = XML_DECLARATION + f'<callgraph algorithm="{ALGORITHM}">\n'
_TAIL = "</callgraph>\n"
# a run of <calls> lines is the targets joined by what ends one line and starts the next
_CALLS_OPEN, _CALLS_CLOSE = '    <calls target="', '"/>\n'
_CALLS_SEPARATOR = _CALLS_CLOSE + _CALLS_OPEN
_METHOD_CLOSE = "  </method>\n"
# one <method> element, as serialize_callgraph writes it: the raw id and
# inClass, the flag attributes, entry, and the run of <calls> lines if any.
# A target's characters need no check here: it counts only if it is an id.
_FLAG_VALUES = " ".join(f'{name}="(?:true|false)"' for name in _FLAGS)
_METHOD = (f'  <method id="({ESCAPED_VALUE})" inClass="({ESCAPED_VALUE})"'
           f' ({_FLAG_VALUES})( entry="true")?'
           f'(?:/>\n|>\n((?:{_CALLS_OPEN}[^"]*+{_CALLS_CLOSE})++){_METHOD_CLOSE})')


class ClasspathPartition(NamedTuple):
    """The framework / library / application split of the class path.

    Only :meth:`of` checks that no container is listed in two components;
    the classes the containers provide may still overlap by name.
    """

    framework: tuple[Path, ...] = ()
    library: tuple[Path, ...] = ()
    application: tuple[Path, ...] = ()

    @staticmethod
    def of(framework=(), library=(), application=()) -> "ClasspathPartition":
        """The partition of these paths; a path in two components is a ValueError."""
        partition = ClasspathPartition(tuple(map(Path, framework)), tuple(map(Path, library)),
                                       tuple(map(Path, application)))
        seen: dict[Path, str] = {}
        for component, containers in zip(partition._fields, partition):
            for path in containers:
                if seen.setdefault(path, component) != component:
                    raise ValueError(
                        f"container {path} listed in both {seen[path]} and {component}")
        return partition


class ClassHierarchy(NamedTuple):
    """All parsed classes plus the inverted subtype relation.

    ``externals`` holds every class name referenced by parsed classes
    (supertypes, interfaces or constant pool class entries) that no
    container provided; call resolution treats those as known-but-opaque.
    ``origins`` maps a provided class name to its (framework, library,
    application) flags; a name it lacks is external. :meth:`lookup` and
    :meth:`transitive_subtypes` keep no answer: :func:`build_callgraph`
    keeps them for its own run.
    """

    classes: dict[str, ClassFile]
    subtypes: dict[str, set[str]]
    duplicates: dict[str, list[str]]
    externals: set[str]
    origins: Mapping[str, tuple[bool, bool, bool]] = _NO_ORIGINS

    def transitive_subtypes(self, class_name: str) -> frozenset[str]:
        """Every direct or indirect subtype of a class."""
        subtypes = self.subtypes  # a named tuple's field reads slower than a local
        seen: set[str] = set()
        work = list(subtypes.get(class_name, ()))
        while work:
            name = work.pop()
            if name in seen:
                continue
            seen.add(name)
            work.extend(subtypes.get(name, ()))
        return frozenset(seen)

    def lookup(self, class_name: str, name: str, descriptor: str) -> MethodRef | None:
        """Nearest declaration of (name, descriptor) at or above a class.

        Walks the superclass chain first, then the transitive super-interface
        set. Returns None when no parsed class declares the method.
        """
        classes = self.classes
        current = class_name
        interfaces: list[str] = []
        while current is not None and current in classes:
            cf = classes[current]
            if cf.find_method(name, descriptor) is not None:
                return MethodRef(current, name, descriptor)
            interfaces.extend(cf.interfaces)
            current = cf.super_name
        seen: set[str] = set()
        while interfaces:
            iface = interfaces.pop(0)
            if iface in seen or iface not in classes:
                continue
            seen.add(iface)
            cf = classes[iface]
            if cf.find_method(name, descriptor) is not None:
                return MethodRef(iface, name, descriptor)
            interfaces.extend(cf.interfaces)
        return None

    def knows(self, class_name: str) -> bool:
        return class_name in self.classes or class_name in self.externals


def _referenced_class_names(cf: ClassFile) -> set[str]:
    names = set()
    if cf.super_name:
        names.add(cf.super_name)
    names.update(cf.interfaces)
    pool = cf.constant_pool
    names.update(value for tag, value in zip(pool.tags, pool.values) if tag == CONST_CLASS)
    return names


def hierarchy_from_classes(classes: list[ClassFile],
                           origins: dict[str, tuple[bool, bool, bool]] | None = None,
                           ) -> ClassHierarchy:
    """Assemble a hierarchy from already parsed classes (first name wins).

    Without ``origins`` no class has origin flags set. A class that is its
    own superclass, directly or through others, raises
    :class:`MalformedClassFile` naming the cycle (JVMS §5.3.5).
    """
    by_name: dict[str, ClassFile] = {}
    for cf in classes:
        by_name.setdefault(cf.class_name, cf)
    ending: set[str] = set()  # classes whose superclass chain is known to end
    for start in by_name:
        chain: dict[str, None] = {}  # the classes walked from start, in order
        current = start
        while current in by_name and current not in ending:
            if current in chain:
                walked = list(chain)
                cycle = " -> ".join(walked[walked.index(current):] + [current])
                raise MalformedClassFile(f"class {current} is its own superclass: {cycle}",
                                         0, by_name[current].constant_pool.source)
            chain[current] = None
            current = by_name[current].super_name
        ending.update(chain)
    subtypes: dict[str, set[str]] = {}
    referenced: set[str] = set()
    for cf in by_name.values():
        referenced.update(_referenced_class_names(cf))
        for parent in ([cf.super_name] if cf.super_name else []) + list(cf.interfaces):
            subtypes.setdefault(parent, set()).add(cf.class_name)
    externals = referenced - set(by_name)
    return ClassHierarchy(by_name, subtypes, {}, externals, origins or _NO_ORIGINS)


def build_hierarchy(partition: ClasspathPartition) -> ClassHierarchy:
    """Parse every container of the partition into a class hierarchy.

    Each container is read once and each entry parsed once. Application
    containers shadow library containers, which shadow framework
    containers: the first occurrence of a class name wins for parsing,
    while ``duplicates`` records every provider of a name seen more than
    once. Origin flags say which components provide a class, keyed by the
    name the class file declares, whatever its entry path. A
    ``module-info`` class (``ACC_MODULE``) is parsed, so a damaged one
    fails the build, and left out: it declares no type, so it gets no
    class, origin or provider.
    """
    ordered = ([(p, "application") for p in partition.application]
               + [(p, "library") for p in partition.library]
               + [(p, "framework") for p in partition.framework])
    by_name: dict[str, ClassFile] = {}
    providers: dict[str, list[str]] = {}
    provided_by: dict[str, set[str]] = {}
    for container, component in ordered:
        for entry, data in iter_class_entries(container):
            cf = parse_class(data, source=f"{container}!{entry}")
            if cf.is_module:
                continue
            provider_list = providers.setdefault(cf.class_name, [])
            if str(container) not in provider_list:
                provider_list.append(str(container))
            by_name.setdefault(cf.class_name, cf)
            provided_by.setdefault(cf.class_name, set()).add(component)

    origins = {name: ("framework" in c, "library" in c, "application" in c)
               for name, c in provided_by.items()}
    return hierarchy_from_classes(list(by_name.values()), origins)._replace(
        duplicates={n: ps for n, ps in providers.items() if len(ps) > 1})


def resolve_targets(kind: str, declared: MethodRef, h: ClassHierarchy) -> set[MethodRef]:
    """Possible callees of a ``kind`` call site naming ``declared``, under CHA.

    static/special sites resolve to the single declared-or-inherited
    implementation; virtual/interface sites additionally fan out to every
    override in transitive subtypes of the declared class; dynamic sites
    resolve to nothing.
    """
    return _resolve_targets(kind, declared, h, h.lookup, h.transitive_subtypes)


def _resolve_targets(kind: str, declared: MethodRef, h: ClassHierarchy,
                     lookup, transitive_subtypes) -> set[MethodRef]:
    """:func:`resolve_targets`, asking ``lookup`` and ``transitive_subtypes``
    in place of the hierarchy's own, so that the closure can keep their answers."""
    if kind == "dynamic":
        return set()
    in_class, name, descriptor = declared
    if not h.knows(in_class):
        raise TargetClassMissing(
            f"class {in_class} of call target {declared.text} is not on"
            " the partition and is not a known external")
    base = lookup(in_class, name, descriptor)
    targets = {base if base is not None else declared}
    if kind in ("virtual", "interface"):
        classes = h.classes
        for sub in transitive_subtypes(in_class):
            if sub not in classes:
                continue
            found = lookup(sub, name, descriptor)
            if found is not None:
                targets.add(found)
    return targets


class CallGraph(NamedTuple):
    """Immutable call graph: one table of methods, their callees and entries.

    ``nodes`` maps every method to its (inFramework, inLibrary,
    inApplication, reachable) flags; a method whose three origin flags are
    all false is an external, provided by no partition component.
    ``calls`` maps each method that has callees to them, so a built graph
    and its read-back compare equal. Nothing checks the table when it is
    made: :func:`serialize_callgraph` rejects a call or entry point that
    names a method outside ``nodes``.
    """

    nodes: dict[MethodRef, tuple[bool, bool, bool, bool]]
    calls: dict[MethodRef, frozenset[MethodRef]]
    entry_points: frozenset[MethodRef]

    @property
    def edges(self) -> frozenset[tuple[MethodRef, MethodRef]]:
        """Every (caller, callee) pair, built on each call."""
        return frozenset((caller, callee)
                         for caller, callees in self.calls.items() for callee in callees)


def _resolve_entry(entry: MethodRef, h: ClassHierarchy, lookup) -> MethodRef:
    if entry.in_class not in h.classes:
        raise EntryPointMissing(f"entry point class not on partition: {entry.text}")
    resolved = lookup(entry.in_class, entry.name, entry.descriptor)
    if resolved is None:
        raise EntryPointMissing(f"entry point method not found: {entry.text}")
    return resolved


def build_callgraph(h: ClassHierarchy, entries: set[MethodRef]) -> CallGraph:
    """Reachability closure from the entry points under CHA resolution.

    Class initializers of every class touched by the closure (instantiated,
    statically accessed or owning a reachable method) become additional
    entry points, superclass initializers included.

    Each reachable method is queued once on a first-in-first-out worklist
    and visited once. Its call sites and the classes it initializes come
    from its body's ``operands``, which
    :func:`~apprepo.classfile.parse_class` resolved; no code array is read
    again. Targets are resolved once per distinct ``(kind, declared
    target)``, and a method's callees are built once, as their union.
    The closure keeps the answer to each distinct method lookup and each
    class's transitive subtypes for its own run, so each is walked once;
    the hierarchy keeps none of them.
    A class, with its superclass chain, is marked initialized when the
    closure first touches it; once the worklist drains, the ``<clinit>`` of
    each newly marked class that the closure has not reached becomes an
    entry point, in class name order.
    """
    lookup = cache(h.lookup)
    transitive_subtypes = cache(h.transitive_subtypes)
    classes = h.classes
    entry_refs = {_resolve_entry(e, h, lookup) for e in entries}
    reached: set[MethodRef] = set(entry_refs)
    calls: dict[MethodRef, frozenset[MethodRef]] = {}
    initialized: set[str] = set()
    triggered_clinits: list[MethodRef] = []
    # resolved targets by invoke mnemonic, then declared target
    targets_of: dict[str, dict[MethodRef, set[MethodRef]]] = {m: {} for m in INVOKE_KINDS}
    work = deque(sorted(entry_refs, key=lambda r: r.text))

    def initialize(class_name: str | None) -> None:
        while class_name not in initialized and class_name in classes:
            initialized.add(class_name)
            cf = classes[class_name]
            if cf.find_method(CLINIT_NAME, CLINIT_DESCRIPTOR) is not None:
                triggered_clinits.append(MethodRef(class_name, CLINIT_NAME, CLINIT_DESCRIPTOR))
            class_name = cf.super_name

    def visit(ref: MethodRef) -> None:
        cf = classes.get(ref.in_class)
        method = cf.find_method(ref.name, ref.descriptor) if cf is not None else None
        if method is None or not method.has_body:
            return
        initialize(ref.in_class)
        sites: list[set[MethodRef]] = []
        for mnemonic, target, member, type_name in method.body.operands:
            if mnemonic in _INITIALIZING:
                initialize(type_name if mnemonic == "new" else member[0])
            elif mnemonic in targets_of:
                if mnemonic == "invokestatic":
                    initialize(target.in_class)
                resolved = targets_of[mnemonic]
                targets = resolved.get(target)
                if targets is None:
                    targets = resolved[target] = _resolve_targets(
                        INVOKE_KINDS[mnemonic], target, h, lookup, transitive_subtypes)
                sites.append(targets)
        callees = frozenset().union(*sites)
        if callees:
            calls[ref] = callees
            fresh = callees - reached
            reached.update(fresh)
            work.extend(fresh)

    while work:
        while work:
            visit(work.popleft())
        pending = sorted((c for c in triggered_clinits if c not in reached),
                         key=lambda c: c.in_class)
        triggered_clinits.clear()
        reached.update(pending)
        entry_refs.update(pending)
        work.extend(pending)

    return CallGraph({ref: (*h.origins.get(ref.in_class, _NO_ORIGIN), True) for ref in reached},
                     calls, frozenset(entry_refs))


def serialize_callgraph(g: CallGraph) -> bytes:
    """Render a call graph as deterministic UTF-8 XML bytes.

    Methods are sorted by id, ``calls`` children by target, both by the raw
    (unescaped) method text. Each method's attributes come in a fixed
    order: id, inClass, the flags inFramework / inLibrary / inApplication /
    reachable, each ``true`` or ``false``, and ``entry="true"`` on an entry
    point only. Each method's text is computed
    and escaped once; the lines, in :class:`~apprepo.xmlio.XmlWriter`'s
    layout, are written directly from the graph's table, out of the same
    pieces (``_HEAD``, ``_CALLS_OPEN`` ...) that the scan reader matches.
    A caller, call target or entry point outside ``nodes`` raises
    :class:`SchemaViolation`, for the document would not read back.
    A method text holding a character that XML 1.0 cannot carry, such as
    a control character or an unpaired surrogate (modified UTF-8 class
    files can hold both), raises :class:`SchemaViolation` naming the method.
    So does a method whose text reads back as another method: a name
    holding ``.`` (JVMS §4.2.2 forbids it, the parser lets it through) or
    ``(``, a class name holding ``(``, or a descriptor that does not start
    with ``(``. Of two methods sharing one text at least one is such a
    case, so every id in the document is unique.
    """
    for what, strays in (("caller", g.calls.keys() - g.nodes.keys()),
                         ("call target", frozenset().union(*g.calls.values()) - g.nodes.keys()),
                         ("entry point", g.entry_points - g.nodes.keys())):
        if strays:
            stray = min(ref.text for ref in strays)
            raise SchemaViolation(f"{what} {stray!r} is not among the graph's methods")
    text = {ref: ref.text for ref in g.nodes}
    bad = min((t for t in text.values() if non_xml_char(t) is not None), default=None)
    if bad is not None:
        check_xml_text(bad, "method")
    # MethodRef.from_text splits at the first "(" and then the last "."
    misread = min(((t, ref) for ref, t in text.items()
                   if "(" in ref.in_class or "(" in ref.name or "." in ref.name
                   or not ref.descriptor.startswith("(")), default=None)
    if misread is not None:
        t, ref = misread
        raise SchemaViolation(f"method {ref.name!r} of class {ref.in_class!r} is written as"
                              f" {t!r}, which reads back as another method")
    escaped = {ref: escape_attr(t) for ref, t in text.items()}
    if not text:
        return _EMPTY_DOCUMENT.encode("utf-8")
    parts = [_HEAD]
    for ref in sorted(text, key=text.__getitem__):
        calls = sorted(g.calls.get(ref, ()), key=text.__getitem__)
        entry = ' entry="true"' if ref in g.entry_points else ""
        parts.append(
            f'  <method id="{escaped[ref]}" inClass="{escape_attr(ref.in_class)}"'
            f' {_FLAG_ATTRS[g.nodes[ref]]}{entry}{">" if calls else "/>"}\n')
        if calls:
            parts.append(_CALLS_OPEN + _CALLS_SEPARATOR.join(map(escaped.__getitem__, calls))
                         + _CALLS_CLOSE + _METHOD_CLOSE)
    parts.append(_TAIL)
    return "".join(parts).encode("utf-8")


def _parse_bool(value: str, what: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise SchemaViolation(f"{what} must be 'true' or 'false', got {value!r}")


def parse_callgraph(doc: bytes | str) -> CallGraph:
    """Parse and validate a persisted call graph document.

    A document in exactly :func:`serialize_callgraph`'s layout that passes
    every schema check is read with one pattern scan. Any other document
    goes to the tree reader, which is the reference reader and the source
    of every error.
    """
    graph = _scan_callgraph(doc)
    return _parse_tree(doc) if graph is None else graph


def _scan_callgraph(doc: bytes | str) -> CallGraph | None:
    """The graph of a document that the writer's own layout matches at
    every byte and that passes every schema check, else None.

    Each method's match must start where the last one ended. Every value
    has one spelling (see :data:`~apprepo.xmlio.ESCAPED_VALUE`), so ids are
    compared, and call targets looked up, by their raw text.
    """
    if not isinstance(doc, str):
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if doc == _EMPTY_DOCUMENT:
        return CallGraph({}, {}, frozenset())
    if not doc.startswith(_HEAD):
        return None
    pos = len(_HEAD)
    refs: dict[str, MethodRef] = {}  # raw id -> its method
    nodes: dict[MethodRef, tuple[bool, bool, bool, bool]] = {}
    entry_points: list[MethodRef] = []
    listed: list[tuple[MethodRef, int, int]] = []  # each caller's run of <calls> lines
    # compiled on the first read (re caches it), so other commands never pay for it
    for match in re.compile(_METHOD).finditer(doc, pos):
        if match.start() != pos:
            return None
        pos = match.end()
        raw_id, raw_class, flags, entry = match.group(1, 2, 3, 4)
        if raw_id in refs:
            return None
        try:
            ref = refs[raw_id] = MethodRef.from_text(unescape_attr(raw_id))
        except ValueError:
            return None
        if unescape_attr(raw_class) != ref.in_class:
            return None
        nodes[ref] = _FLAGS_OF[flags]
        if entry:
            entry_points.append(ref)
        start, end = match.span(5)
        if start >= 0:
            listed.append((ref, start + len(_CALLS_OPEN), end - len(_CALLS_CLOSE)))
    if not nodes or pos + len(_TAIL) != len(doc) or not doc.endswith(_TAIL):
        return None
    calls: dict[MethodRef, frozenset[MethodRef]] = {}
    for caller, start, end in listed:
        targets = doc[start:end].split(_CALLS_SEPARATOR)
        callees = calls[caller] = frozenset(map(refs.get, targets))
        if None in callees or len(callees) < len(targets):
            return None  # a dangling or repeated target
    return CallGraph(nodes, calls, frozenset(entry_points))


def _parse_tree(doc: bytes | str) -> CallGraph:
    """The reference reader: any document, through an element tree."""
    root = read_document(doc, "callgraph", SchemaViolation)
    nodes: dict[MethodRef, tuple[bool, bool, bool, bool]] = {}
    listed: dict[MethodRef, list[str]] = {}  # each caller's call targets, as written
    entry_points: set[MethodRef] = set()
    refs: dict[str, MethodRef] = {}
    for elem in root:
        if elem.tag != "method":
            raise SchemaViolation(f"unexpected element <{elem.tag}> under <callgraph>")
        attrs = elem.attrib
        for required in ("id", "inClass", *_FLAGS):
            if required not in attrs:
                raise SchemaViolation(f"<method> missing required attribute {required!r}")
        method_id = attrs["id"]
        if method_id in refs:
            raise SchemaViolation(f"duplicate method id {method_id!r}")
        try:
            ref = refs[method_id] = MethodRef.from_text(method_id)
        except ValueError as exc:
            raise SchemaViolation(str(exc)) from exc
        if attrs["inClass"] != ref.in_class:
            raise SchemaViolation(
                f"inClass {attrs['inClass']!r} disagrees with id {method_id!r}")
        nodes[ref] = tuple(_parse_bool(attrs[flag], flag) for flag in _FLAGS)
        if _parse_bool(attrs.get("entry", "false"), "entry"):
            entry_points.add(ref)
        for child in elem:
            if child.tag != "calls":
                raise SchemaViolation(f"unexpected element <{child.tag}> under <method>")
            target = child.attrib.get("target")
            if target is None:
                raise SchemaViolation("<calls> missing required attribute 'target'")
            listed.setdefault(ref, []).append(target)
    dangling = next((t for targets in listed.values() for t in targets if t not in refs), None)
    if dangling is not None:
        raise SchemaViolation(f"dangling call target {dangling!r}")
    calls = {caller: frozenset(map(refs.__getitem__, targets))
             for caller, targets in listed.items()}
    for caller, targets in listed.items():
        if len(calls[caller]) < len(targets):
            target = next(t for t, n in Counter(targets).items() if n > 1)
            raise SchemaViolation(f"method {caller.text!r} lists call target {target!r} twice")
    return CallGraph(nodes, calls, frozenset(entry_points))


def find_main_entries(h: ClassHierarchy) -> set[MethodRef]:
    """All application-partition main methods, the default entry points."""
    entries = set()
    for name, cf in h.classes.items():
        if not h.origins.get(name, _NO_ORIGIN)[2]:
            continue
        if cf.find_method(MAIN_NAME, MAIN_DESCRIPTOR) is not None:
            entries.add(MethodRef(name, MAIN_NAME, MAIN_DESCRIPTOR))
    return entries
