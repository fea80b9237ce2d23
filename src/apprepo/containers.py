"""Class container discovery: directories and zip-format archives.

A "container" is anywhere class files live: a directory tree holding
``.class`` files (possibly with nested jars) or a jar, zip or jmod archive
with ``.class`` entries. A jmod (JEP 261) is a zip archive behind a short
header, which ``zipfile`` reads as it is; its classes sit under
``classes/``.
"""

from __future__ import annotations

import lzma
import os
import zipfile
import zlib
from pathlib import Path
from stat import S_IFDIR, S_IFMT
from typing import Iterator

from .errors import ContainerUnreadable

ARCHIVE_SUFFIXES = (".jar", ".zip", ".jmod")
# what zipfile raises on damaged archive bytes: besides BadZipFile and
# OSError, a bad deflate or LZMA stream, a stream that ends early, an
# unknown compression method or zip version, an encrypted entry, a negative
# offset or a file name that is not UTF-8
_DAMAGED = (zipfile.BadZipFile, OSError, zlib.error, lzma.LZMAError, EOFError,
            NotImplementedError, RuntimeError, ValueError)


def exists_as(path: Path, kind: int | None = None) -> bool:
    """Whether ``path`` exists, as a ``kind`` of file if one is given.

    ``kind`` is ``S_IFDIR`` or ``S_IFREG``. A path that cannot be looked up
    is absent, whatever the error, as for ``os.path.exists``: pathlib's
    ``exists``, ``is_dir`` and ``is_file`` raise on some errors, a name
    longer than the file system allows among them.
    """
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):
        return False
    return kind is None or S_IFMT(mode) == kind


def is_archive(path: Path) -> bool:
    return path.suffix.lower() in ARCHIVE_SUFFIXES


def iter_class_entries(container: Path) -> Iterator[tuple[str, bytes]]:
    """Yield (entry name, class file bytes) for every class in a container.

    Directory containers are walked recursively in sorted order; jars found
    inside a directory are descended into. Archive entries come back in
    the archive's stored order.
    """
    if not exists_as(container):
        raise ContainerUnreadable(f"container does not exist: {container}")
    if exists_as(container, S_IFDIR):
        for path in sorted(container.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(container).as_posix()
            if path.suffix == ".class":
                try:
                    yield rel, path.read_bytes()
                except OSError as exc:
                    raise ContainerUnreadable(f"cannot read {path}: {exc}") from exc
            elif is_archive(path):
                yield from _iter_archive(path, prefix=rel + "!")
    elif is_archive(container):
        yield from _iter_archive(container)
    else:
        raise ContainerUnreadable(
            f"not a class container (directory or jar): {container}")


def _iter_archive(path: Path, prefix: str = "") -> Iterator[tuple[str, bytes]]:
    try:
        archive = zipfile.ZipFile(path)
    except _DAMAGED as exc:
        raise ContainerUnreadable(f"cannot read archive {path}: {exc}") from exc
    with archive:
        for name in archive.namelist():
            if name.endswith(".class"):
                try:
                    data = archive.read(name)
                except _DAMAGED as exc:
                    raise ContainerUnreadable(f"cannot read entry {name} of archive {path}:"
                                              f" {exc or type(exc).__name__}") from exc
                yield prefix + name, data
