"""Compare this tree with a git revision, in alternating child processes.

    python tests/ab.py REV MEASURE [--pairs N] [--count N] [--seed S] [PATH ... | -- ARGV]

``REV``'s ``src/`` is unpacked into a temporary directory with ``git
archive``; this tree's is the ``src/`` beside ``tests/``. ``PATH`` is a
jar, a jmod or a directory of class files. The measures:

- ``outcomes``: one child of each side parses the same damaged inputs,
  ``--count`` of each kind of damage in ``damage.py`` drawn with
  ``--seed`` from the assembled fixture classes and the class files of
  each ``PATH``. Every input must get the same outcome from both: an equal
  class with the same operands in each method (see ``damage.outcome``),
  or the same reason and offset. Prints the counts per kind and the first
  few differences.
- ``scan``: the best CPU time of 15 runs (which waits on a busy host do
  not inflate) of ``_scan`` over a 65,533-byte code array of 5,461 empty
  ``lookupswitch``es and a ``return`` (the scan's worst case), of ``_scan``
  over every code array of the fixture classes and the ``PATH``s, and of
  ``parse_class`` over every one of those classes. ``scan_worst_ms``
  moves by 2-4% with what the child imported before it built that array,
  so a gap under about 4% from a change to ``apprepo.classfile``'s
  imports may be heap layout, not the scan.
- ``pipeline``: with the collector off, as the command line runs,
  ``build_hierarchy`` over the ``PATH``s as framework (the local JDK's
  ``java.base`` and ``java.desktop`` jmods by default), the call graph
  closure from ``javax/swing/JFrame.<init>()V``, then
  ``serialize_callgraph``: each stage's CPU time and the resident MiB
  after it (``/proc/self/statm``), the peak MiB (``ru_maxrss``), and the
  graph's node and edge counts and XML SHA-256. Over both jmods a child
  peaks near 860 MiB.
- ``listing``: with the collector off, ``parse_class`` over the class
  files of the ``PATH``s (the local JDK's ``java.desktop`` jmod by
  default), then ``render_method`` on every method of every class: the
  CPU time of the renders (hashing each listing included), the resident
  MiB after parsing and after rendering, the method count and the SHA-256
  of all listings joined. Each listing is encoded as plain UTF-8, so a
  listing that holds a lone surrogate fails the child.
- ``command``: the apprepo command line ``ARGV`` run as ``python -m
  apprepo`` in the current directory: its wall time and peak MiB
  (``ru_maxrss``), both taken by a small launcher process that starts it
  (see ``LAUNCHER``). Each side first runs it once untimed, which compiles
  that side's bytecode into its own cache in the temporary directory
  (``PYTHONPYCACHEPREFIX``; ``PYTHONDONTWRITEBYTECODE`` is dropped for
  these children only). Otherwise every child would recompile apprepo,
  and that fixed cost would hide a change.

Except for ``outcomes``, ``--pairs`` children of each side run (10 by
default), one at a time, and the side that runs first alternates. For
each figure the harness prints each side's median and quartiles, this
tree's median as a ratio of ``REV``'s, and the pairs each side won: lower
wins, and ties count for neither. It also says whether the claim rule
holds: of at least 10 pairs, this tree won nine tenths or more, and its
median is below ``REV``'s by more than ``REV``'s interquartile range.
Counts and hashes must be the same in every child.

Exits 1 if an outcome, count or hash differs, or a parser raised anything
but ``MalformedClassFile``. Exits 2, with its error output, if ``git`` or
a child fails. Run by hand, before and after a change; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit
import zipfile
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

# statistics, damage.py and the fixture modules that damage.py loads are
# imported where they are used, so that a pipeline child's resident memory
# holds none of them.
ROOT = Path(__file__).resolve().parent.parent
MEASURES = ("outcomes", "scan", "pipeline", "listing", "command")
ENTRY = "javax/swing/JFrame.<init>()V"
RUNS = 15  # scan runs per child, of which the best counts
SHOWN = 10  # differing outcomes printed per kind
PAIRS = 10  # the fewest pairs on which a gain may be claimed
THIS = "this tree"


# Runs the command line in its arguments, with its output discarded, and
# prints its wall time and peak MiB. A child's ru_maxrss is never below the
# peak of the process that started it, so a command child is started from
# this small interpreter, whose peak lies below any apprepo command's, and
# not from the harness.
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start, "peak_mib": usage.ru_maxrss / 1024}))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def launch(argv: list[str], env: dict[str, str] | None = None) -> bytes:
    """Run ``argv`` to its end and return its output. If it fails, print its
    error output and exit 2."""
    done = subprocess.run(argv, capture_output=True, env=env)
    if done.returncode != 0:
        sys.stderr.buffer.write(done.stderr)
        shown = " ".join(argv).replace(LAUNCHER, "LAUNCHER")
        print(f"ab.py: {shown} exited {done.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return done.stdout


def unpack_src(rev: str, into: str) -> Path:
    """Unpack ``rev``'s ``src/`` into the directory ``into``; return its path."""
    archive = launch(["git", "-C", str(ROOT), "archive", rev, "src"])
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def class_files(paths: list[str]) -> list[bytes]:
    """The fixture class files, then those of each jar, jmod or directory."""
    from damage import fixture_classes

    return fixture_classes() + read_classes(paths)


def read_classes(paths: list[str]) -> list[bytes]:
    """The class files of each jar, jmod or directory."""
    out = []
    for path in map(Path, paths):
        if path.is_dir():
            out += [p.read_bytes() for p in sorted(path.rglob("*.class"))]
        else:
            with zipfile.ZipFile(path) as jar:
                out += [jar.read(name) for name in sorted(jar.namelist())
                        if name.endswith(".class")]
    return out


def outcomes(paths: list[str], count: int, seed: int) -> dict[str, list[str]]:
    from apprepo.classfile import parser
    from damage import KINDS, damaged, outcome

    if hasattr(parser, "resolved_operands"):  # a revision whose bodies keep no operands
        def operands(body) -> list[tuple]:
            return [(mnemonic, *fields[1:4])  # target, member, type_name
                    for mnemonic, fields in parser.resolved_operands(body)]
    else:
        def operands(body) -> tuple:
            return body.operands

    classes = class_files(paths)
    return {kind: [outcome(parser.parse_class, data, operands)
                   for data in damaged(classes, kind, seed, count)] for kind in KINDS}


def scan(paths: list[str], count: int, seed: int) -> dict[str, float]:
    from apprepo.classfile.opcodes import MNEMONICS
    from apprepo.classfile.parser import _scan, parse_class

    worst = (bytes([MNEMONICS["lookupswitch"]]) + bytes(11)) * 5461 + bytes([MNEMONICS["return"]])
    classes = class_files(paths)
    codes = [method.body.code for data in classes for method in parse_class(data).methods
             if method.body is not None]
    runs = {"scan_worst_ms": lambda: _scan(worst),
            "scan_all_ms": lambda: [_scan(code) for code in codes],
            "parse_all_ms": lambda: [parse_class(data) for data in classes]}
    return {name: 1000 * min(timeit.repeat(run, number=1, repeat=RUNS, timer=time.process_time))
            for name, run in runs.items()}


def resident_mib() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def pipeline(paths: list[str], count: int, seed: int) -> dict[str, float | int | str]:
    from apprepo.callgraph import (ClasspathPartition, build_callgraph, build_hierarchy,
                                   serialize_callgraph)
    from apprepo.classfile import MethodRef

    figures: dict[str, float | int | str] = {}

    def stage(name: str, run: Callable):
        start = time.process_time()
        result = run()
        figures[f"{name}_s"] = time.process_time() - start
        figures[f"{name}_mib"] = resident_mib()
        return result

    gc.disable()
    hierarchy = stage("hierarchy", lambda: build_hierarchy(ClasspathPartition.of(framework=paths)))
    graph = stage("closure", lambda: build_callgraph(hierarchy, {MethodRef.from_text(ENTRY)}))
    xml = stage("serialize", lambda: serialize_callgraph(graph))
    figures["peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures.update(nodes=len(graph.nodes), edges=sum(map(len, graph.calls.values())),
                   sha256=hashlib.sha256(xml).hexdigest())
    return figures


def listing(paths: list[str], count: int, seed: int) -> dict[str, float | int | str]:
    from apprepo.classfile import parse_class, render_method

    gc.disable()
    classes = [parse_class(data) for data in read_classes(paths)]
    parsed_mib = resident_mib()
    digest = hashlib.sha256()
    start = time.process_time()
    for cf in classes:
        for method in cf.methods:
            digest.update(render_method(cf, method.ref(cf.class_name)).encode("utf-8"))
    render_s = time.process_time() - start
    return {"render_s": render_s, "parsed_mib": parsed_mib, "rendered_mib": resident_mib(),
            "methods": sum(len(cf.methods) for cf in classes), "sha256": digest.hexdigest()}


CHILDREN = {"outcomes": outcomes, "scan": scan, "pipeline": pipeline, "listing": listing}


class Comparison(NamedTuple):
    reference: tuple[float, float, float]  # REV's lower quartile, median, upper quartile
    current: tuple[float, float, float]  # this tree's
    ratio: float  # this tree's median over REV's
    won: int  # pairs in which this tree's figure is lower
    lost: int  # pairs in which REV's is lower
    claim: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    import statistics

    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def compare(reference: list[float], current: list[float]) -> Comparison:
    """Compare one figure of ``current`` with ``reference``, pair by pair;
    lower is better."""
    ref, cur = quartiles(reference), quartiles(current)
    won = sum(c < r for r, c in zip(reference, current))
    lost = sum(c > r for r, c in zip(reference, current))
    claim = (len(reference) >= PAIRS and 10 * won >= 9 * len(reference)
             and ref[1] - cur[1] > ref[2] - ref[0])
    return Comparison(ref, cur, cur[1] / ref[1], won, lost, claim)


def summarize(rev: str, runs: dict[str, list[dict]]) -> bool:
    """Print the comparison of each figure, and each count or hash; return
    whether a count or hash differs."""
    reference, current = runs.values()
    differs = False
    for name, value in reference[0].items():
        if not isinstance(value, float):
            seen = {side: sorted({run[name] for run in got}) for side, got in runs.items()}
            same = seen[rev] == seen[THIS] and len(seen[rev]) == 1
            print(f"{name}: {value}" if same else f"{name} DIFFERS: {seen}")
            differs |= not same
            continue
        c = compare([run[name] for run in reference], [run[name] for run in current])
        print(f"{name}:")
        for side, (low, median, high) in ((rev, c.reference), (THIS, c.current)):
            print(f"  {side:>12}: median {median:.4g} (quartiles {low:.4g}-{high:.4g})")
        print(f"  this tree / {rev} = {c.ratio:.3f}; of {len(reference)} pairs this tree"
              f" won {c.won}, {rev} won {c.lost}; claim rule {'met' if c.claim else 'not met'}")
    return differs


def summarize_outcomes(reference: dict[str, list[str]], current: dict[str, list[str]]) -> bool:
    """Print the outcomes of each kind; return whether any differs or raised."""
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
    return failed


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:  # the child process of one measure
        measure, src, count, seed, *paths = argv[1:]
        sys.path.insert(0, src)
        json.dump(CHILDREN[measure](paths, int(count), int(seed)), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision that is the reference")
    parser.add_argument("measure", choices=MEASURES)
    parser.add_argument("paths", nargs="*", metavar="PATH | -- ARGV",
                        help="jars, jmods or directories of class files; for command,"
                             " the apprepo command line")
    parser.add_argument("--pairs", type=int, default=PAIRS, help="children of each side")
    parser.add_argument("--count", type=int, default=6000,
                        help="outcomes: inputs per kind of damage")
    parser.add_argument("--seed", type=int, default=1, help="outcomes: seed of the damage")
    args = parser.parse_intermixed_args(argv)
    paths = args.paths
    if args.measure in ("pipeline", "listing") and not paths:
        from damage import jdk_jmods

        paths = [str(path) for path in jdk_jmods() or []]
        if not paths:
            print("ab.py: no PATH given, and no java.base and java.desktop jmods beside javac",
                  file=sys.stderr)
            return 2
        if args.measure == "listing":
            paths = [path for path in paths if Path(path).stem == "java.desktop"]
    if args.measure == "command" and not paths:
        parser.error("command needs an apprepo command line after --")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {args.rev: unpack_src(args.rev, tmp), THIS: ROOT / "src"}
        if args.measure == "command":
            children = {}
            for i, (side, src) in enumerate(srcs.items()):
                env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
                env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=f"{tmp}/pycache-{i}")
                # -P: an apprepo/ in the current directory must not stand in for this side's
                child = [sys.executable, "-S", "-c", LAUNCHER,
                         sys.executable, "-P", "-m", "apprepo", *paths]
                launch(child, env)  # the untimed warm-up
                children[side] = lambda child=child, env=env: json.loads(launch(child, env))
        else:
            children = {side: lambda src=src: json.loads(launch(
                [sys.executable, __file__, "--child", args.measure, str(src),
                 str(args.count), str(args.seed), *paths])) for side, src in srcs.items()}
        pairs = 1 if args.measure == "outcomes" else args.pairs
        runs: dict[str, list] = {side: [] for side in srcs}
        for pair in range(pairs):
            for side in list(srcs) if pair % 2 == 0 else list(srcs)[::-1]:
                runs[side].append(children[side]())
    if args.measure == "outcomes":
        return 1 if summarize_outcomes(*(got[0] for got in runs.values())) else 0
    return 1 if summarize(args.rev, runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
