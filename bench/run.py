"""End-to-end and per-layer benchmark of the apprepo CLI on javac-built corpora.

    python3 bench/run.py --workload swing-build --seed 1 --seconds 40 --trace 0

Run from the repository root; needs ``javac`` (JDK 9 or later) on PATH.
Workloads, each generated from ``--seed``:

- ``swing-build``: ``apprepo build`` on a deep, fat, megamorphic Swing-like
  framework jar plus a GUI app, then ``validate`` and ``report`` on the
  result. Loads the call-graph layer.
- ``library-build``: the same command cycle for a small app over wide
  library jars with repeated class names. Loads container reading and
  class-file parsing.
- ``repo-report``: set-up builds eight versions of an evolving GUI app
  (``build_s`` is taken over set-ups of their mean build time); the
  loop runs ``report`` over them and ``validate`` on the newest. The read
  path: no closure, no serialization, no writes.

``BENCHMARK.json`` lists the two build workloads only. Their cycles run
``validate`` and ``report`` too, so they time the read path as well, and
on a two-CPU machine whose speed drifts over minutes, two workloads with
40-second loops give steadier figures than three with shorter loops;
repo-report's three set-ups alone take about 25 s. It stays runnable by
hand and in the smoke test.

Set-up (generate, one ``javac --release 8`` run, pack jars, and for
repo-report the version builds) runs three times; ``setup_s`` is the
median. Then the command cycle repeats until ``--seconds`` have passed:
a closed loop with one client, one command at a time.

``--trace 0`` runs each command as a child process (``python -m
apprepo``) and reports the 90th percentile of each command's wall times
over the loop, and the median per cycle of the children's peak RSS from
``os.wait4``. The 90th percentile, not the median: on a shared two-CPU
host a command's wall time sits at a steady level with spells of faster
runs while the host is quiet, and the share of those spells differs from
run to run. The median follows that share; a high percentile stays at
the steady level, so it moves less between runs of the same code and
still moves with any change to the program's own cost. With about ten
samples a run it sits near the second-slowest one, so a single stall
does not set it.

``--trace 1`` calls ``apprepo.cli.main`` in-process, alternating untraced
and traced cycles, and reports per-layer medians of the traced ones (see
``spans.py``).

Every command's output is checked against the generator's references
(``checks.py``); a failed command or check counts in ``failed``. The last
stdout line is the JSON result; the line before it is a JSON record of
the run: seed, corpus shape, tool versions, CPU, output hashes and every
sample.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3

END_TO_END_UNITS = {"build_s": "s", "validate_s": "s", "report_s": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}
BUILD_SPANS = {
    "containers.iter_class_entries", "classfile.parse_class",
    "callgraph.build_hierarchy", "callgraph.hierarchy_from_classes",
    "callgraph.build_callgraph", "callgraph.serialize_callgraph",
    "callgraph.parse_callgraph", "guimodel.transform_external", "guimodel.persist_gui",
    "guimodel.load_gui", "guimodel.link_event_handlers", "metrics.count_loc",
    "metrics.count_classes", "project.validate_project", "project.build_code_model",
}
READ_SPANS = {
    "containers.iter_class_entries", "classfile.parse_class",
    "callgraph.hierarchy_from_classes", "callgraph.parse_callgraph",
    "guimodel.load_gui", "guimodel.link_event_handlers",
    "project.validate_project", "project.build_code_model",
}
# (spans the CLI must reach, spans it must not) per workload
EXPECTED_SPANS = {
    "swing-build": (BUILD_SPANS, set()),
    "library-build": (BUILD_SPANS, set()),
    "repo-report": (READ_SPANS, {"callgraph.build_callgraph",
                                 "callgraph.serialize_callgraph"}),
}


@dataclass
class Outcome:
    code: int
    stdout: str
    seconds: float
    rss_mb: float = 0.0
    error: str = ""


@dataclass
class Command:
    metric: str
    argv: list[str]
    check: Callable[[str], list[str]]  # stdout -> failure messages
    before: Callable[[], None] | None = None  # runs untimed before each run


@dataclass
class Runner:
    """Runs commands, counts attempts and failures, keeps every sample."""

    work: Path
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def child(self, argv: list[str]) -> Outcome:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "apprepo", *argv],
                                    cwd=self.work, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_text(encoding="utf-8"), seconds,
                       usage.ru_maxrss / 1024.0, err_path.read_text(encoding="utf-8"))

    @staticmethod
    def in_process(argv: list[str], tracer=None) -> Outcome:
        from apprepo import cli

        buffer = io.StringIO()
        error = ""
        start = perf_counter()
        span = tracer.open(f"cli.{argv[0]}") if tracer is not None else None
        try:
            with redirect_stdout(buffer):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a stray exception is a failed command, not a crash
            code, error = -1, traceback.format_exc()
        finally:
            if span is not None:
                tracer.close(span)
        return Outcome(code, buffer.getvalue(), perf_counter() - start, error=error)

    def execute(self, cmd: Command, run: Callable[[list[str]], Outcome],
                sample: bool = True) -> Outcome:
        """Run and check ``cmd`` once; its time is a sample of ``cmd.metric``."""
        if cmd.before is not None:
            cmd.before()
        outcome = run(cmd.argv)
        self.attempted += 1
        failures = (cmd.check(outcome.stdout) if outcome.code == 0
                    else [f"exit code {outcome.code}: {outcome.error[-800:]}"])
        if failures:
            self.fail(f"{cmd.argv[0]}: " + "; ".join(failures))
        if sample:
            self.samples.setdefault(cmd.metric, []).append(outcome.seconds)
        return outcome

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)


def version_builds(prepared, checker, metric: str = "build_s") -> list[Command]:
    return [Command(metric, ["build", "--config", str(s.config), "--out", str(s.out)],
                    lambda _out, s=s: checker.bundle(s),
                    before=lambda s=s: shutil.rmtree(s.out, ignore_errors=True))
            for s in prepared.snapshots]


def cycle(workload: str, prepared, checker) -> list[Command]:
    """The commands one iteration of the measured loop runs, in order.

    Each command runs once per cycle, so every metric's samples are spread
    over the whole loop and a slow phase of the machine weighs on all alike.
    """
    newest = prepared.snapshots[-1]
    validate = Command("validate_s", ["validate", str(newest.out / "project.xml")],
                       lambda out: checker.validate(out, newest))
    report = Command("report_s", ["report", str(prepared.repo), "--csv"],
                     lambda out: checker.report(out, prepared.snapshots))
    if workload == "repo-report":
        return [report, validate]
    return version_builds(prepared, checker) + [validate, report]


def set_up(workload: str, work: Path, seed: int, scale: float, repeats: int,
           runner: Runner, checker):
    """Build the inputs ``repeats`` times; returns the last and the timings."""
    from workloads import WORKLOADS

    times, prepared = [], None
    for i in range(repeats):
        start = perf_counter()
        prepared = WORKLOADS[workload](work / f"setup{i}", seed, scale)
        if workload == "repo-report":
            # versions differ in size, so one sample per set-up: the mean build
            builds = [runner.execute(cmd, runner.child).seconds
                      for cmd in version_builds(prepared, checker, "version_build_s")]
            runner.samples.setdefault("build_s", []).append(statistics.fmean(builds))
        times.append(perf_counter() - start)
        if i + 1 < repeats:
            shutil.rmtree(prepared.work)
    return prepared, times


def until(seconds: float):
    """Yield once per cycle while the next cycle should mostly fit ``seconds``.

    The first cycle always runs; a later one starts only if at least half
    of a cycle as long as the previous one fits.
    """
    start = last = perf_counter()
    yield
    while True:
        now = perf_counter()
        if now + (now - last) / 2 > start + seconds:
            return
        last = now
        yield


def measure(commands: list[Command], runner: Runner, seconds: float) -> list[float]:
    """Untraced child-process cycles; the peak RSS of each cycle."""
    return [max(runner.execute(c, runner.child).rss_mb for c in commands)
            for _ in until(seconds)]


def measure_traced(workload: str, commands: list[Command], runner: Runner,
                   seconds: float) -> tuple[dict[str, dict], dict]:
    """Alternate untraced and traced in-process cycles until the deadline."""
    from spans import PER_LAYER_UNITS, Tracer, installed

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    untraced, traced, per_cycle = [], [], []
    fired: set[str] = set()
    containers: dict[str, int] = {}
    for c in commands:  # warm up imports and caches before timing
        runner.execute(c, runner.in_process, sample=False)
    for _ in until(seconds):
        untraced.append(sum(runner.execute(c, runner.in_process).seconds for c in commands))
        tracer = Tracer()
        with installed(tracer):
            traced.append(sum(
                runner.execute(c, lambda argv: runner.in_process(argv, tracer)).seconds
                for c in commands))
        per_cycle.append(tracer.metrics())
        fired |= tracer.fired()
        containers = {str(Path(k).relative_to(runner.work)): v
                      for k, v in sorted(tracer.containers.items())}
    must, must_not = EXPECTED_SPANS[workload]
    if must - fired:
        runner.fail(f"trace self-check: spans never fired: {sorted(must - fired)}")
    if must_not & fired:
        runner.fail(f"trace self-check: unexpected spans fired: {sorted(must_not & fired)}")
    metrics = {name: {"value": statistics.median([m[name] for m in per_cycle]),
                      "unit": unit}
               for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    detail = {"traced_cycles": len(traced), "spans_fired": sorted(fired),
              "iter_class_entries_calls_per_container": containers}
    return metrics, detail


def percentile_90(samples: list[float]) -> float:
    """The 90th percentile, interpolated between samples (see the module docstring)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def environment() -> dict:
    from corpus import javac_version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"javac": javac_version(), "python": platform.python_version(),
            "cpu": cpu, "nproc": os.cpu_count()}


def run(args, work: Path) -> tuple[dict, dict]:
    from checks import Checker

    checker = Checker()
    runner = Runner(work)
    env = environment()
    work.mkdir(parents=True)
    runner.child(["--help"])  # compile and cache bytecode before any timing
    prepared, setup_times = set_up(args.workload, work, args.seed, args.scale,
                                   1 if args.trace else SETUPS, runner, checker)
    runner.work = prepared.work
    commands = cycle(args.workload, prepared, checker)
    detail: dict = {}
    if args.trace:
        metrics, detail = measure_traced(args.workload, commands, runner, args.seconds)
    else:
        peaks = measure(commands, runner, args.seconds)
        values = {"build_s": percentile_90(runner.samples["build_s"]),
                  "validate_s": percentile_90(runner.samples["validate_s"]),
                  "report_s": percentile_90(runner.samples["report_s"]),
                  "peak_rss_mb": statistics.median(peaks),
                  "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        detail = {"peak_rss_mb_per_cycle": peaks}
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "corpus": prepared.shape, "environment": env,
        "sha256": checker.hashes,
        "error_rate": runner.failed / max(1, runner.attempted),
        "failures": runner.failures[:10],
        "setup_s_samples": setup_times, "samples": runner.samples, **detail,
    }
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["swing-build", "library-build", "repo-report"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor; below 1 only for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "apprepo" / "__init__.py").is_file():
        print(f"apprepo sources not found under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from corpus import SetupError

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        record, result = run(args, work)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
