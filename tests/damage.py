"""Seeded damage of class file bytes, and the outcome of parsing them.

Shared by ``test_parse_outcomes.py``, which pins the outcomes of a few
hundred damaged fixture classes in a golden file, and by the ``outcomes``
measure of ``ab.py``, which compares two revisions of the parser on many
more. Four kinds of damage:

- ``overwrite``: 1 to 4 bytes anywhere are set to random values;
- ``overwrite_tail``: the same, in the second half of the file, past the
  constant pool of most classes;
- ``truncate``: the file is cut at a random length;
- ``splice``: the head of one class is joined to the tail of another.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path
from typing import Callable, Iterator

from classasm import assemble_class
from fixtures import all_classes

KINDS = ("overwrite", "overwrite_tail", "truncate", "splice")
JDK_MODULES = ("java.base", "java.desktop")


def fixture_classes() -> list[bytes]:
    """The assembled fixture corpus, one class file per spec, in a fixed order."""
    return [assemble_class(spec) for group in all_classes().values() for spec in group]


def jdk_jmods() -> list[Path] | None:
    """The local JDK's jmods of JDK_MODULES; None if one is missing."""
    javac = shutil.which("javac")
    if javac is None:
        return None
    jmods = [Path(javac).resolve().parent.parent / "jmods" / f"{module}.jmod"
             for module in JDK_MODULES]
    return jmods if all(path.is_file() for path in jmods) else None


def _overwrite(rng: random.Random, data: bytes, low: int) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(low, len(out))] = rng.getrandbits(8)
    return bytes(out)


def damage(rng: random.Random, kind: str, classes: list[bytes]) -> bytes:
    """One damaged class file of ``kind``, drawn from ``classes`` with ``rng``."""
    data = rng.choice(classes)
    if kind == "overwrite":
        return _overwrite(rng, data, 0)
    if kind == "overwrite_tail":
        return _overwrite(rng, data, len(data) // 2)
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "splice":
        other = rng.choice(classes)
        return data[:rng.randrange(len(data))] + other[rng.randrange(len(other)):]
    raise ValueError(f"unknown damage kind {kind!r}")


def damaged(classes: list[bytes], kind: str, seed: int, count: int) -> Iterator[bytes]:
    """``count`` damaged class files of ``kind``; the same for the same arguments."""
    rng = random.Random(f"{seed}/{kind}")
    for _ in range(count):
        yield damage(rng, kind, classes)


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def methods_of(cf) -> list:
    """The methods of a class, in file order: a revision keeps them in a
    tuple, or in a dict keyed by name and descriptor."""
    return list(cf.methods.values() if isinstance(cf.methods, dict) else cf.methods)


def _method_form(method) -> tuple:
    """A method's name, descriptor and flags, its line table flattened, its
    attribute names, and its instructions."""
    lines = tuple(field for pair in method.line_numbers for field in pair)
    return ((method.name, method.descriptor, method.access_flags, lines,
             method.attribute_names), method.instructions)


def outcome(parse_class: Callable, data: bytes, operands: Callable | None = None) -> str:
    """What ``parse_class`` makes of ``data``: ``ok`` and a digest of the
    accepted class, or the offset and reason of its ``MalformedClassFile``
    (a reason may hold any character a pool text can); any other exception
    is ``raised`` with its type. Decoding an accepted class's bodies is
    part of the outcome: an error there is recorded as if parsing raised it.

    The digest covers the class's names, flags, source file, version and
    attribute names, and each method's, with its decoded line table and
    instructions. It reads only views that every revision of the class
    model gives, so two revisions agree on it exactly when they decode
    equal classes. Given ``operands``, which maps a method with code to its
    ``(mnemonic, target, member, type_name)`` tuples, an accepted class's
    line also carries a digest of each method's, sorted: the call graph
    closure reads those, not the instructions.
    """
    try:
        cf = parse_class(data, "damaged.class")
        methods = methods_of(cf)
        form = (cf.class_name, cf.super_name, cf.interfaces, cf.access_flags, cf.source_file,
                cf.version, cf.attribute_names, tuple(map(_method_form, methods)))
        line = "ok " + _digest(form)
        if operands is not None:
            line += " " + _digest(tuple(sorted(map(repr, operands(m))) if m.has_body else ()
                                        for m in methods))
    except Exception as exc:  # noqa: BLE001 - the outcome records it
        if type(exc).__name__ == "MalformedClassFile":
            return f"{exc.offset} {exc.reason}"
        return f"raised {type(exc).__name__}: {exc}"
    return line
