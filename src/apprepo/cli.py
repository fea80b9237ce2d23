"""Command line pipeline: build project bundles, validate them, report.

  apprepo build --config cfg.json --out <dir>
  apprepo validate <project-file>
  apprepo report <repo-root> [--csv]

Exit codes: 0 success, 1 validation or pipeline failure, 2 usage or I/O
error, 120 when stdout or stderr cannot be flushed at the end.
Diagnostics go to stderr; data goes to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import sys
from datetime import date
from itertools import takewhile
from pathlib import Path
from stat import S_IFDIR, S_IFREG
from typing import NamedTuple, NoReturn

from . import callgraph as cg
from .classfile import MethodRef
from .containers import exists_as, is_archive
from .errors import ApprepoError, IoFailure, SchemaViolation
from .guimodel import persist_gui, transform_external
from .metrics import (VersionMetrics, holds_line_break, version_csv, version_metrics,
                      version_table)
from .project import (
    LAYOUT,
    PROJECT_FILE_NAME,
    Project,
    ProjectReport,
    missing_artifacts,
    read_project_file,
    render_project_file,
    validate_project,
)
from .xmlio import non_xml_char

log = logging.getLogger(__name__)


class PipelineConfig(NamedTuple):
    """One declarative build-pipeline run."""

    name: str
    version_label: str
    timestamp: date
    partition: cg.ClasspathPartition
    output_project_dir: Path
    sources_dir: Path | None = None
    external_gui_path: Path | None = None
    entry_points: frozenset[MethodRef] | str = "auto"

    def input_dirs(self) -> list[Path]:
        dirs = list(self.partition.framework + self.partition.library
                    + self.partition.application)
        if self.sources_dir is not None:
            dirs.append(self.sources_dir)
        return dirs


def _is_strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# config key -> (check of its value, what the value must be)
_KEY_TYPES = {
    **dict.fromkeys(("framework", "library", "application"),
                    (_is_strings, "a list of strings")),
    **dict.fromkeys(("sources", "external_gui", "timestamp"),
                    (lambda v: isinstance(v, str), "a string")),
    "entry_points": (lambda v: v == "auto" or _is_strings(v), '"auto" or a list of strings'),
}


def load_config(path: Path, out: Path) -> PipelineConfig:
    """Read a pipeline config document that names the inputs of a build into ``out``."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise IoFailure(f"config {path} must be a JSON object")
    for key, (check, want) in _KEY_TYPES.items():
        if key in raw and not check(raw[key]):
            raise IoFailure(f"config {path} key {key!r} must be {want}, got {raw[key]!r}")
    try:
        name = raw["name"]
        version_label = raw.get("version", "unversioned")
        timestamp = date.fromisoformat(raw["timestamp"])
    except KeyError as exc:
        raise IoFailure(f"config {path} missing required key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise IoFailure(f"config {path} has invalid timestamp: {exc}") from None
    for key, value in (("name", name), ("version", version_label)):
        if not isinstance(value, str) or non_xml_char(value) is not None:
            raise IoFailure(f"config {path} key {key!r} must be text that XML 1.0"
                            f" can carry, got {value!r}")
    if holds_line_break(version_label):
        raise IoFailure(f"config {path} key 'version' must be one line, got {version_label!r}")
    if not name:
        raise IoFailure(f"config {path} key 'name' must be non-empty")
    entry_points = raw.get("entry_points", "auto")
    if entry_points != "auto":
        try:
            entry_points = frozenset(MethodRef.from_text(t) for t in entry_points)
        except ValueError as exc:
            raise IoFailure(f"config {path} key 'entry_points': {exc},"
                            " expected class.name(descriptor)") from None
    base = path.parent

    def rel(raw_path: str) -> Path:
        p = Path(raw_path)
        return p if p.is_absolute() else base / p

    try:
        partition = cg.ClasspathPartition.of(
            framework=[rel(p) for p in raw.get("framework", [])],
            library=[rel(p) for p in raw.get("library", [])],
            application=[rel(p) for p in raw.get("application", [])],
        )
    except ValueError as exc:  # a container listed in two components
        raise IoFailure(f"config {path}: {exc}") from None
    return PipelineConfig(
        name=name,
        version_label=version_label,
        timestamp=timestamp,
        partition=partition,
        output_project_dir=out,
        sources_dir=rel(raw["sources"]) if "sources" in raw else None,
        external_gui_path=rel(raw["external_gui"]) if "external_gui" in raw else None,
        entry_points=entry_points,
    )


class StageFailure(Exception):
    def __init__(self, stage: str, cause: ApprepoError):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")


def _check_config(config: PipelineConfig) -> None:
    out = config.output_project_dir.resolve()
    for input_dir in config.input_dirs():
        resolved = input_dir.resolve()
        if out == resolved or out.is_relative_to(resolved) or resolved.is_relative_to(out):
            raise StageFailure("config", IoFailure(
                f"output dir {out} overlaps input {input_dir}"))
        if not exists_as(input_dir):
            raise StageFailure("inputs", IoFailure(f"input does not exist: {input_dir}"))
    if (config.external_gui_path is not None
            and not exists_as(config.external_gui_path, S_IFREG)):
        raise StageFailure("inputs", IoFailure(
            f"external GUI model not found: {config.external_gui_path}"))


def _copy_containers(containers: tuple[Path, ...], dest: Path) -> dict[Path, Path]:
    """Copy a component's jars into ``dest`` and merge its directories there.

    Two containers that would write the same class file or archive fail
    the copy: the bundle could keep only one of the copies analysed.
    Returns the source of every class file and archive copied, keyed by
    its copy.
    """
    writer_of: dict[str, Path] = {}
    sources: dict[Path, Path] = {}
    for container in containers:
        if container.is_dir():
            written = [(p.relative_to(container).as_posix(), p) for p in container.rglob("*")
                       if p.is_file() and (p.suffix == ".class" or is_archive(p))]
        else:
            written = [(container.name, container)]
        for rel, source in written:
            first = writer_of.setdefault(rel, container)
            if first != container:
                raise StageFailure("copy", IoFailure(
                    f"containers {first} and {container} both write {rel}"))
            sources[dest / rel] = source
    dest.mkdir(parents=True, exist_ok=True)
    for container in containers:
        if container.is_dir():
            shutil.copytree(container, dest, dirs_exist_ok=True)
        else:
            shutil.copy2(container, dest / container.name)
    return sources


def cmd_build(config: PipelineConfig) -> int:
    """Run the full pipeline into a fresh project directory.

    All artifacts are produced in a temporary directory that is renamed
    into place only after the verify step passes, so a failed build
    leaves nothing behind: neither that directory nor the parents of
    ``--out`` that the build created for it. Verify compares what is on
    disk with what the build holds (see :func:`_verify`) instead of
    loading the bundle again: the build has already parsed every class it
    copied, checked the GUI model it persisted and written each document
    from its model.
    """
    _check_config(config)
    out = config.output_project_dir
    tmp = out.parent / (out.name + ".building")
    if exists_as(tmp):
        shutil.rmtree(tmp)
    created = list(takewhile(lambda parent: not exists_as(parent), tmp.parents))
    try:
        _verify(tmp, _build_into(config, tmp))
        if exists_as(out):
            shutil.rmtree(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp.rename(out)
    except BaseException:
        if exists_as(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
        for parent in created:  # innermost first; one that is not empty stays
            try:
                parent.rmdir()
            except OSError:
                break
        raise
    log.info("project written to %s", out)
    return 0


def _verify(root: Path, expected: dict[Path, bytes | Path]) -> None:
    """Check a built project against what the build wrote into it.

    The project file must read back and declare only artifacts that
    exist, and each file of ``expected`` must hold its bytes, or those of
    the file it was copied from. Any difference fails stage ``verify``.
    """
    try:
        problems = [f"{artifact} missing: {path}" for artifact, path
                    in missing_artifacts(read_project_file(root / PROJECT_FILE_NAME))]
    except ApprepoError as exc:
        problems = [str(exc)]
    for path, want in expected.items():
        try:
            if path.read_bytes() != (want if isinstance(want, bytes) else want.read_bytes()):
                problems.append(f"{path} differs from what the build wrote")
        except OSError as exc:
            problems.append(f"cannot read {exc.filename}: {exc.strerror}")
    if problems:
        raise StageFailure("verify", SchemaViolation(
            f"built project fails verification: {'; '.join(problems)}"))


def _build_into(config: PipelineConfig, root: Path) -> dict[Path, bytes | Path]:
    """Build the project into ``root``.

    Returns what :func:`_verify` compares, keyed by path: the source of
    every class file and archive copied and the bytes of every document
    written.
    """
    declared: dict[str, str] = {}  # the artifacts written, at their LAYOUT paths

    def declare(artifact: str) -> Path:
        declared[artifact] = LAYOUT[artifact]
        return root / LAYOUT[artifact]

    try:
        root.mkdir(parents=True)
        copies = _copy_containers(config.partition.application, declare("binaries"))
        if config.partition.library:
            copies.update(_copy_containers(config.partition.library, declare("libraries")))
        if config.sources_dir is not None:
            shutil.copytree(config.sources_dir, declare("sources"))
    except OSError as exc:
        raise StageFailure("copy", IoFailure(str(exc))) from exc

    try:
        hierarchy = cg.build_hierarchy(config.partition)
    except ApprepoError as exc:
        raise StageFailure("hierarchy", exc) from exc
    try:
        entries = (cg.find_main_entries(hierarchy) if config.entry_points == "auto"
                   else config.entry_points)
        documents = {declare("callgraph"):
                     cg.serialize_callgraph(cg.build_callgraph(hierarchy, entries))}
    except ApprepoError as exc:
        raise StageFailure("callgraph", exc) from exc

    model = None
    if config.external_gui_path is not None:
        try:
            external_bytes = config.external_gui_path.read_bytes()
            model = transform_external(external_bytes)
        except ApprepoError as exc:
            raise StageFailure("gui", exc) from exc
        documents[declare("gui")] = persist_gui(model)
        documents[declare("external_gui")] = external_bytes
    else:
        log.warning("no external GUI model provided; project has no GUI artifacts")

    try:
        row = version_metrics(
            config.version_label, config.timestamp, hierarchy,
            root / declared["sources"] if "sources" in declared else None, model)
    except ApprepoError as exc:
        raise StageFailure("metrics", exc) from exc
    documents[root / LAYOUT["metrics"]] = version_csv([row]).encode("utf-8")

    documents[root / PROJECT_FILE_NAME] = render_project_file(
        config.name, config.version_label, config.timestamp, declared)
    for path, data in documents.items():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
    return {**copies, **documents}


def project_metrics(p: Project, report: ProjectReport) -> VersionMetrics:
    """The stored per-version metrics of a project, recomputed if absent.

    ``report`` is the project's passing validation: it holds the stored
    row it checked, and a recomputed row counts from the code model and
    GUI model that validation loaded.
    """
    if report.metrics is not None:
        return report.metrics
    return version_metrics(p.version_label, p.timestamp, report.repository.hierarchy,
                           p.sources_dir, report.gui_model)


def cmd_validate(project_path: Path) -> int:
    """Validate one project; JSON-lines report on stdout, text on stderr."""
    try:
        project = read_project_file(project_path)
    except (IoFailure, SchemaViolation) as exc:
        log.error("unreadable project file: %s", exc)
        return 2
    report = validate_project(project)
    for item in report.items:
        print(json.dumps({"level": item.level, "code": item.code,
                          "detail": item.detail}, sort_keys=True))
        log.log(logging.ERROR if item.level == "violation" else logging.WARNING,
                "%s: %s", item.code, item.detail)
    print(json.dumps({
        "level": "summary",
        "project": project.name,
        "violations": len(report.violations),
        "warnings": len(report.warnings),
        "handlers": report.handler_summary(),
    }, sort_keys=True))
    log.info("%s: %d violation(s), %d warning(s), handlers %s",
             project.name, len(report.violations), len(report.warnings),
             report.handler_summary())
    return 0 if report.ok else 1


def cmd_report(repo_root: Path, as_csv: bool = False) -> int:
    """Version history table over every project directly under a root."""
    if not exists_as(repo_root, S_IFDIR):
        log.error("not a directory: %s", repo_root)
        return 2
    rows = []
    for child in sorted(repo_root.iterdir()):
        project_file = child / PROJECT_FILE_NAME
        if not child.is_dir() or not project_file.is_file():
            continue
        try:
            project = read_project_file(project_file)
            report = validate_project(project)
            if not report.ok:
                raise SchemaViolation("; ".join(i.detail for i in report.violations))
            rows.append(project_metrics(project, report))
        except ApprepoError as exc:
            log.warning("skipping %s: %s", child.name, exc)
    rows.sort(key=lambda r: (r.timestamp, r.version_label))
    sys.stdout.write(version_csv(rows) if as_csv else version_table(rows))
    return 0 if rows else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apprepo",
        description="Build, validate and report on application snapshot projects.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run the artifact pipeline into a project dir")
    p_build.add_argument("--config", required=True, type=Path,
                         help="pipeline configuration file (JSON)")
    p_build.add_argument("--out", required=True, type=Path,
                         help="output project directory")

    p_validate = sub.add_parser("validate", help="validate one project bundle")
    p_validate.add_argument("project_file", type=Path)

    p_report = sub.add_parser("report", help="version history over a repository root")
    p_report.add_argument("repo_root", type=Path)
    p_report.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A command frees its memory by reference counting: it leaves a few
    hundred objects in reference cycles at most, while the collector's
    passes over the parsed classes and the call graph cost a large share
    of a build. The collector's state is restored on the way out,
    whatever the outcome, so an in-process caller keeps its own setting.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "build":
            config = load_config(args.config, args.out)
            return cmd_build(config)
        if args.command == "validate":
            return cmd_validate(args.project_file)
        if args.command == "report":
            return cmd_report(args.repo_root, args.csv)
    except StageFailure as exc:
        log.error("build failed at stage '%s': %s", exc.stage, exc.cause)
        print(json.dumps({"stage": exc.stage, "error": type(exc.cause).__name__,
                          "detail": str(exc.cause)}, sort_keys=True), file=sys.stderr)
        return 1
    except IoFailure as exc:
        log.error("%s", exc)
        return 2
    except ApprepoError as exc:
        log.error("%s", exc)
        return 1
    return 2


def console_main() -> NoReturn:
    """The ``apprepo`` command: run :func:`main`, flush, and exit at once.

    The logs and both standard streams are flushed, and the process then
    ends with ``os._exit``, so the interpreter does not tear down the
    modules and objects of the command: the exit returns their memory
    anyway. A stream that cannot be flushed makes the exit code 120, as
    it does for the interpreter's own exit.
    """
    code = main()
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            code = 120
    os._exit(code)


if __name__ == "__main__":
    console_main()
