"""Compare the class file parser of this tree with the one at a git revision.

    python tests/parse_differential.py REV [--count N] [--seed S] [PATH ...]

``REV``'s ``src/`` is unpacked into a temporary directory with ``git
archive``. Each parser then runs in its own child process over the same
damaged inputs: ``--count`` of each kind of damage in ``damage.py``, drawn
from the assembled fixture classes and from the class files in each
``PATH``, a jar, a jmod or a directory. Every input must get the same outcome from
both: an equal class with the same operands in each method (see
``damage.outcome``), or the same reason and offset. The script prints the
counts per kind and the first few differences, and exits 1 if any outcome
differs or either parser raised anything but ``MalformedClassFile``.

Run by hand, before and after a change to the parser; pytest does not
collect it. ``test_parse_outcomes.py`` pins a few hundred of these outcomes
in tier-1.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import zipfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SHOWN = 10  # differences printed per kind


def class_files(paths: list[str]) -> list[bytes]:
    """The class files of the fixtures, then of each jar or directory in turn."""
    from damage import fixture_classes

    out = fixture_classes()
    for path in map(Path, paths):
        if path.is_dir():
            out += [p.read_bytes() for p in sorted(path.rglob("*.class"))]
        else:
            with zipfile.ZipFile(path) as jar:
                out += [jar.read(name) for name in sorted(jar.namelist())
                        if name.endswith(".class")]
    return out


def unpack_src(rev: str, into: str) -> Path:
    """Unpack ``rev``'s ``src/`` into the directory ``into`` with ``git
    archive``, and return its path there."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def child(src: str, args: argparse.Namespace) -> None:
    """Print, as JSON, the outcome of each input under the parser in ``src``."""
    sys.path[:0] = [src, str(TESTS)]
    from apprepo.classfile import parser
    from damage import KINDS, damaged, outcome

    if hasattr(parser, "resolved_operands"):  # a revision whose bodies keep no operands
        def operands(body) -> list[tuple]:
            return [(mnemonic, *fields[1:4])  # target, member, type_name
                    for mnemonic, fields in parser.resolved_operands(body)]
    else:
        def operands(body) -> tuple:
            return body.operands

    classes = class_files(args.paths)
    json.dump({kind: [outcome(parser.parse_class, data, operands)
                      for data in damaged(classes, kind, args.seed, args.count)]
               for kind in KINDS}, sys.stdout)


def outcomes(src: Path, argv: list[str]) -> dict[str, list[str]]:
    done = subprocess.run([sys.executable, __file__, "--child", str(src), *argv],
                          capture_output=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose parser is the reference")
    parser.add_argument("paths", nargs="*", help="jars or directories of class files")
    parser.add_argument("--count", type=int, default=6000, help="inputs per kind of damage")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_intermixed_args(argv)
    if args.child:
        child(args.child, args)
        return 0
    shared = [args.rev, *(str(Path(path).resolve()) for path in args.paths),
              "--count", str(args.count), "--seed", str(args.seed)]
    with tempfile.TemporaryDirectory() as tmp:
        reference = outcomes(unpack_src(args.rev, tmp), shared)
    current = outcomes(ROOT / "src", shared)
    failed = False
    for kind, expected in reference.items():
        got = current[kind]
        differ = [(i, e, g) for i, (e, g) in enumerate(zip(expected, got)) if e != g]
        raised = sum(line.startswith("raised ") for line in expected + got)
        tally = Counter("accepted" if line.startswith("ok ") else "rejected" for line in got)
        print(f"{kind}: {len(got)} inputs, {tally['accepted']} accepted,"
              f" {tally['rejected']} rejected; {len(differ)} differ, {raised} raised")
        for i, e, g in differ[:SHOWN]:
            print(f"  input {i}: {e!r} -> {g!r}")
        failed |= bool(differ or raised)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
