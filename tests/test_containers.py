"""Class container discovery: directories, jars, nested archives."""

import io
import struct
import zipfile
from pathlib import Path

import pytest

from apprepo.callgraph import (
    ClasspathPartition,
    build_callgraph,
    build_hierarchy,
    hierarchy_from_classes,
)
from apprepo.classfile import MethodRef, parse_class
from apprepo.containers import iter_class_entries
from apprepo.errors import ContainerUnreadable, MalformedClassFile

from classasm import ACC_MODULE, ACC_PUBLIC, AsmClass, AsmMethod, assemble_class


def class_names(container):
    return set(build_hierarchy(ClasspathPartition.of(application=[container])).classes)


def klass(name):
    return assemble_class(AsmClass(name, methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])]))


def test_directory_with_nested_jar(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.class").write_bytes(klass("p/A"))
    with zipfile.ZipFile(tmp_path / "inner.jar", "w") as zf:
        zf.writestr("q/B.class", klass("q/B"))
    names = class_names(tmp_path)
    assert names == {"p/A", "q/B"}
    entries = dict(iter_class_entries(tmp_path))
    assert "p/A.class" in entries
    assert "inner.jar!q/B.class" in entries


def test_plain_jar_container(tmp_path):
    jar = tmp_path / "only.jar"
    with zipfile.ZipFile(jar, "w") as zf:
        zf.writestr("x/C.class", klass("x/C"))
    assert class_names(jar) == {"x/C"}


def test_missing_container(tmp_path):
    with pytest.raises(ContainerUnreadable):
        list(iter_class_entries(tmp_path / "ghost"))


def test_container_name_too_long(tmp_path):
    # the file system refuses the name (ENAMETOOLONG): absent, not an OSError
    with pytest.raises(ContainerUnreadable, match="container does not exist"):
        list(iter_class_entries(tmp_path / ("x" * 300)))


def test_non_container_file(tmp_path):
    other = tmp_path / "file.txt"
    other.write_text("nope")
    with pytest.raises(ContainerUnreadable):
        list(iter_class_entries(other))


def test_corrupt_archive(tmp_path):
    bad = tmp_path / "bad.jar"
    bad.write_bytes(b"not a zip at all")
    with pytest.raises(ContainerUnreadable):
        list(iter_class_entries(bad))


def damage_jar(jar: Path, damage: str) -> str:
    """Rewrite ``jar`` with one class entry damaged, and return its name.

    ``deflate`` and ``lzma`` overwrite the start of the entry's compressed
    stream; ``method`` sets compression method 99 and ``encrypted`` the
    encryption flag, each in the local and the central header.
    """
    with zipfile.ZipFile(jar) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    name = next(n for n in entries if n.endswith(".class"))
    method = zipfile.ZIP_LZMA if damage == "lzma" else zipfile.ZIP_DEFLATED
    with zipfile.ZipFile(jar, "w", method) as zf:  # the damaged entry first
        zf.writestr(name, entries.pop(name))
        for other, data in entries.items():
            zf.writestr(other, data)
    data = bytearray(jar.read_bytes())
    central = data.index(b"PK\x01\x02")
    # the stream follows the local header, and for LZMA its 9-byte properties
    stream = 30 + len(name.encode()) + (9 if damage == "lzma" else 0)
    if damage in ("deflate", "lzma"):
        data[stream:stream + 8] = b"\xff" * 8
    elif damage == "method":
        struct.pack_into("<H", data, 8, 99)
        struct.pack_into("<H", data, central + 10, 99)
    else:
        data[6] |= 1
        data[central + 8] |= 1
    jar.write_bytes(bytes(data))
    return name


@pytest.mark.parametrize("damage,reason", [
    ("deflate", "invalid block type"),
    ("lzma", "Corrupt input data"),
    ("method", "compression method is not supported"),
    ("encrypted", "is encrypted"),
])
def test_damaged_entry_is_unreadable_naming_archive_and_entry(tmp_path, damage, reason):
    jar = tmp_path / "lib.jar"
    with zipfile.ZipFile(jar, "w") as zf:
        zf.writestr("x/C.class", klass("x/C"))
        zf.writestr("x/D.class", klass("x/D"))
    name = damage_jar(jar, damage)
    with pytest.raises(ContainerUnreadable) as err:
        list(iter_class_entries(jar))
    assert f"cannot read entry {name} of archive {jar}: " in str(err.value)
    assert reason in str(err.value)


def test_unresolved_external_nodes_have_no_flags_and_no_edges(corpus):
    # no framework on the partition: java/lang/Object becomes an external node
    parsed = [parse_class(assemble_class(s)) for s in corpus.groups["application"]]
    h = hierarchy_from_classes(parsed)
    main = MethodRef("fix/Main2", "main", "([Ljava/lang/String;)V")
    graph = build_callgraph(h, {main})
    object_init = MethodRef("java/lang/Object", "<init>", "()V")
    flags = graph.nodes.get(object_init)
    assert flags is not None and not any(flags[:3])
    assert not any(caller == object_init for caller, _ in graph.edges)


def jmod(path: Path, entries: dict[str, bytes]) -> Path:
    """A jmod file (JEP 261): the magic ``JM``, version 1.0, then a zip
    archive whose classes sit under ``classes/``."""
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w") as zf:
        for name, data in entries.items():
            zf.writestr(name, data)
    path.write_bytes(b"JM\x01\x00" + archive.getvalue())
    return path


def module_info() -> bytes:
    return assemble_class(AsmClass("module-info", super_name=None, flags=ACC_MODULE, major=53,
                                   module="m.one"))


def test_jmod_is_an_archive_container(tmp_path):
    container = jmod(tmp_path / "m.jmod", {"classes/p/A.class": klass("p/A"),
                                           "classes/module-info.class": module_info(),
                                           "lib/libm.so": b"\x7fELF"})
    assert [name for name, _ in iter_class_entries(container)] == [
        "classes/p/A.class", "classes/module-info.class"]
    (tmp_path / "dir").mkdir()
    jmod(tmp_path / "dir" / "n.jmod", {"classes/q/B.class": klass("q/B")})
    assert class_names(tmp_path / "dir") == {"q/B"}


def test_module_info_classes_are_left_out_of_the_hierarchy(tmp_path):
    """A module-info class is parsed, but declares no type: it gets no class,
    origin or provider, so two modules do not duplicate it, and the class
    count leaves it out."""
    from apprepo.metrics import count_classes

    first = jmod(tmp_path / "one.jmod", {"classes/p/A.class": klass("p/A"),
                                         "classes/module-info.class": module_info()})
    second = jmod(tmp_path / "two.jmod", {"classes/module-info.class": module_info()})
    h = build_hierarchy(ClasspathPartition.of(framework=[second], application=[first]))
    assert set(h.classes) == {"p/A"}
    assert set(h.origins) == {"p/A"}
    assert h.duplicates == {}
    assert "module-info" not in h.externals
    assert count_classes(h) == 1
    broken = jmod(tmp_path / "three.jmod", {"classes/module-info.class": module_info()[:-1]})
    with pytest.raises(MalformedClassFile):
        build_hierarchy(ClasspathPartition.of(application=[broken]))
