"""Time the body scan and parse_class of this tree against a git revision's.

    python tests/scan_timing.py REV [--pairs N] [PATH ...]

``REV``'s ``src/`` is unpacked as ``parse_differential.py`` does it, and
the inputs are the class files that its ``class_files`` reads: the
assembled fixture classes, then those of each ``PATH``, a jar, a jmod or a
directory. Each child process times, as the best of 15 runs of its CPU
time (which waits on a busy host do not inflate), three things:
``_scan`` over a 65,533-byte code array of 5,461 empty ``lookupswitch``es
and a ``return`` (the scan's worst case), ``_scan`` over every code array
of the inputs, and ``parse_class`` over all the inputs. Children of
``REV`` and of this tree alternate, ``--pairs`` of each (5 by default),
and the one that runs first alternates too. The script prints, for each
side and each timing, the median and the quartiles of the children's
bests, and in how many pairs this tree was faster.

Run by hand, before and after a change to the parser; pytest does not
collect it. A shared or busy host spreads the figures: compare medians
only where the quartiles do not overlap.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

from parse_differential import ROOT, class_files, unpack_src

RUNS = 15  # runs per child, of which the best counts
TIMINGS = {
    "worst": "_scan, 5,461-lookupswitch body",
    "scan": "_scan, every code array",
    "parse": "parse_class, every class",
}


def child(src: str, paths: list[str]) -> None:
    """Print, as JSON, the best time of each of TIMINGS under the parser in
    ``src``."""
    sys.path.insert(0, src)
    from apprepo.classfile.opcodes import MNEMONICS
    from apprepo.classfile.parser import _scan, parse_class

    lookupswitch, ret = MNEMONICS["lookupswitch"], MNEMONICS["return"]
    worst = (bytes([lookupswitch]) + bytes(11)) * 5461 + bytes([ret])
    classes = class_files(paths)
    codes = [method.body.code for data in classes for method in parse_class(data).methods
             if method.body is not None]
    runs = {
        "worst": lambda: _scan(worst),
        "scan": lambda: [_scan(code) for code in codes],
        "parse": lambda: [parse_class(data) for data in classes],
    }
    json.dump({name: min(timeit.repeat(run, number=1, repeat=RUNS, timer=time.process_time))
               for name, run in runs.items()}, sys.stdout)


def timed(src: Path, argv: list[str]) -> dict[str, float]:
    done = subprocess.run([sys.executable, __file__, "--child", str(src), *argv],
                          capture_output=True, check=True)
    return json.loads(done.stdout)


def summary(times: list[float]) -> str:
    low, median, high = (statistics.quantiles(times, n=4) if len(times) > 1
                         else times * 3)
    return f"median {1000 * median:8.2f} ms (quartiles {1000 * low:.2f}-{1000 * high:.2f})"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose parser is the reference")
    parser.add_argument("paths", nargs="*", help="jars, jmods or directories of class files")
    parser.add_argument("--pairs", type=int, default=5, help="child processes of each side")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_intermixed_args(argv)
    if args.child:
        child(args.child, args.paths)
        return 0
    shared = [args.rev, *(str(Path(path).resolve()) for path in args.paths)]
    sides: dict[str, list[dict[str, float]]] = {args.rev: [], "this tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {args.rev: unpack_src(args.rev, tmp), "this tree": ROOT / "src"}
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                sides[side].append(timed(srcs[side], shared))
    reference, current = sides.values()
    for name, what in TIMINGS.items():
        print(f"{what}:")
        for side, runs in sides.items():
            print(f"  {side:>12}: {summary([run[name] for run in runs])}")
        faster = sum(c[name] < r[name] for r, c in zip(reference, current))
        ratio = (statistics.median(r[name] for r in reference)
                 / statistics.median(c[name] for c in current))
        print(f"  this tree is {ratio:.2f}x as fast, faster in {faster} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
