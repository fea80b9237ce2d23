"""Brute-force call target resolution oracle.

Enumerates every class in the hierarchy and takes the declared-or-
inherited dispatch result for each subtype of the declared class. Written
against the raw class declarations only; shares no resolution code with
the package. :func:`invoke_sites` lists a class's call sites from its
decoded instructions, for tests that walk sites themselves.
"""

from __future__ import annotations

from typing import NamedTuple

from apprepo.classfile import ClassFile, MethodRef

from classasm import ACC_PRIVATE, ACC_STATIC

_SITE_KINDS = {"invokestatic": "static", "invokespecial": "special",
               "invokevirtual": "virtual", "invokeinterface": "interface",
               "invokedynamic": "dynamic"}


class Site(NamedTuple):
    """An invoke-family instruction inside a method body."""

    caller: MethodRef
    kind: str  # static | special | virtual | interface | dynamic
    declared_target: MethodRef
    offset: int


def invoke_sites(cf: ClassFile) -> list[Site]:
    """All invoke-family sites of a class, in (method, offset) order."""
    return [Site(method.ref(cf.class_name), _SITE_KINDS[ins.mnemonic], ins.target, ins.offset)
            for method in cf.methods.values() for ins in method.instructions
            if ins.mnemonic in _SITE_KINDS]


def _declares(cf: ClassFile, name: str, desc: str) -> bool:
    return (name, desc) in cf.methods


def oracle_default(classes: dict[str, ClassFile], cls: str, name: str,
                   desc: str) -> MethodRef | None:
    """The superinterface method the JVM selects for cls (JVMS §5.4.3.3,
    §5.4.6): the one non-abstract method among the maximally-specific ones,
    or None when there is not exactly one. Only the superclass chain's
    declarations come before it."""
    chain = []
    current = cls
    while current in classes:
        chain.append(current)
        current = classes[current].super_name
    supers: set[str] = set()
    frontier = {i for link in chain for i in classes[link].interfaces}
    while frontier:
        supers |= frontier
        frontier = {i for iface in frontier if iface in classes
                    for i in classes[iface].interfaces} - supers
    candidates = {iface for iface in supers if iface in classes
                  and _declares(classes[iface], name, desc)
                  and not classes[iface].methods[name, desc].access_flags
                  & (ACC_PRIVATE | ACC_STATIC)}
    maximal = [iface for iface in sorted(candidates)
               if not any(other != iface and oracle_is_subtype(classes, other, iface)
                          for other in candidates)]
    bodies = [iface for iface in maximal if not classes[iface].methods[name, desc].is_abstract]
    return MethodRef(bodies[0], name, desc) if len(bodies) == 1 else None


def oracle_lookup(classes: dict[str, ClassFile], cls: str, name: str,
                  desc: str) -> MethodRef | None:
    """Nearest declaration at or above cls on its superclass chain, then the
    JVM's default method (:func:`oracle_default`), then the first interface
    declaration breadth first."""
    chain = []
    current = cls
    while current in classes:
        chain.append(current)
        if _declares(classes[current], name, desc):
            return MethodRef(current, name, desc)
        current = classes[current].super_name
    selected = oracle_default(classes, cls, name, desc)
    if selected is not None:
        return selected
    iface_queue = []
    for link in chain:
        iface_queue.extend(classes[link].interfaces)
    seen = set()
    while iface_queue:
        iface = iface_queue.pop(0)
        if iface in seen or iface not in classes:
            continue
        seen.add(iface)
        if _declares(classes[iface], name, desc):
            return MethodRef(iface, name, desc)
        iface_queue.extend(classes[iface].interfaces)
    return None


def oracle_is_subtype(classes: dict[str, ClassFile], sub: str, sup: str) -> bool:
    """True when sup is reachable from sub via super/interface declarations."""
    if sub == sup:
        return True
    work = [sub]
    seen = set()
    while work:
        current = work.pop()
        if current == sup:
            return True
        if current in seen or current not in classes:
            continue
        seen.add(current)
        cf = classes[current]
        if cf.super_name:
            work.append(cf.super_name)
        work.extend(cf.interfaces)
    return False


def oracle_resolve(kind: str, declared: MethodRef,
                   classes: dict[str, ClassFile]) -> set[MethodRef]:
    """Expected resolve_targets result, by exhaustive enumeration."""
    if kind == "dynamic":
        return set()
    base = oracle_lookup(classes, declared.in_class, declared.name, declared.descriptor)
    if base is None:
        base = declared
    if kind in ("static", "special"):
        return {base}
    targets = {base}
    for candidate in classes:
        if candidate == declared.in_class:
            continue
        if not oracle_is_subtype(classes, candidate, declared.in_class):
            continue
        found = oracle_lookup(classes, candidate, declared.name, declared.descriptor)
        if found is not None:
            targets.add(found)
    return targets
