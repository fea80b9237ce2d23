"""Measure the resident memory of this tree's class model and call graph
closure against a git revision's.

    python tests/model_memory.py REV [--pairs N] [PATH ...]

``REV``'s ``src/`` is unpacked as ``parse_differential.py`` does it. Each
child process runs, with the collector paused as the command line runs,
``build_hierarchy`` over the containers ``PATH`` as framework (the local
JDK's ``java.base`` and ``java.desktop`` jmods by default), then the call
graph closure from ``javax/swing/JFrame.<init>()V``. It reports its
resident MiB, read from ``/proc/self/statm``, after each of the two, then
the graph's node and edge counts and the SHA-256 of its serialized XML.
Children of ``REV`` and of this tree alternate, ``--pairs`` of each (3 by
default), one at a time, and the one that runs first alternates too. The
script prints each side's figures per pair.

Run by hand, before and after a change to the class model; pytest does not
collect it. Over both jmods a child holds about 600 MiB at its peak.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from parse_differential import ROOT, unpack_src

JDK_MODULES = ("java.base", "java.desktop")
ENTRY = "javax/swing/JFrame.<init>()V"


def resident_mib() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def child(src: str, paths: list[str]) -> None:
    """Print, as JSON, the figures of one build over ``paths`` under the
    code in ``src``."""
    sys.path.insert(0, src)
    from apprepo.callgraph import (ClasspathPartition, build_callgraph, build_hierarchy,
                                   serialize_callgraph)
    from apprepo.classfile import MethodRef

    gc.disable()
    hierarchy = build_hierarchy(ClasspathPartition.of(framework=paths))
    built = resident_mib()
    graph = build_callgraph(hierarchy, {MethodRef.from_text(ENTRY)})
    closed = resident_mib()
    json.dump({"hierarchy_mib": built, "closure_mib": closed, "nodes": len(graph.nodes),
               "edges": sum(map(len, graph.calls.values())),
               "sha256": hashlib.sha256(serialize_callgraph(graph)).hexdigest()}, sys.stdout)


def jdk_paths() -> list[str] | None:
    """The local JDK's jmods of JDK_MODULES, or None if one is missing."""
    javac = shutil.which("javac")
    if javac is None:
        return None
    paths = [Path(javac).resolve().parent.parent / "jmods" / f"{m}.jmod" for m in JDK_MODULES]
    return [str(path) for path in paths] if all(p.is_file() for p in paths) else None


def measured(src: Path, argv: list[str]) -> dict:
    done = subprocess.run([sys.executable, __file__, "--child", str(src), *argv],
                          capture_output=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose code is the reference")
    parser.add_argument("paths", nargs="*", help="jars, jmods or directories of class files")
    parser.add_argument("--pairs", type=int, default=3, help="child processes of each side")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_intermixed_args(argv)
    if args.child:
        child(args.child, args.paths)
        return 0
    paths = [str(Path(path).resolve()) for path in args.paths] or jdk_paths()
    if paths is None:
        sys.exit("no PATH given, and no java.base and java.desktop jmods beside javac")
    shared = [args.rev, *paths]
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {args.rev: unpack_src(args.rev, tmp), "this tree": ROOT / "src"}
        for pair in range(args.pairs):
            order = list(srcs) if pair % 2 == 0 else list(srcs)[::-1]
            figures = {side: measured(srcs[side], shared) for side in order}
            print(f"pair {pair + 1}:")
            for side in srcs:
                got = figures[side]
                print(f"  {side:>12}: {got['hierarchy_mib']:7.1f} MiB after build_hierarchy,"
                      f" {got['closure_mib']:7.1f} MiB after the closure; {got['nodes']:,}"
                      f" nodes, {got['edges']:,} edges, SHA-256 {got['sha256'][:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
