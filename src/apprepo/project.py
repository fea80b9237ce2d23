"""Project bundles: one target application at one moment in time.

A project is a directory subtree plus a ``project.xml`` file naming the
application and locating its artifacts (binaries, libraries, sources,
GUI model, call graph, screenshots, startup script). Loading a project
runs the safeguard checks: declared artifacts must exist, the GUI model
must validate (unique ids above all), the call graph must parse and so
must every class of the binaries and libraries, and a stored
``metrics.csv`` must parse and agree with the project file.
"""

from __future__ import annotations

from datetime import date
from itertools import permutations
from pathlib import Path
from stat import S_IFDIR, S_IFREG
from typing import NamedTuple

from .callgraph import (
    ClassHierarchy,
    ClasspathPartition,
    build_hierarchy,
    parse_callgraph,
)
from .containers import exists_as
from .errors import (
    AlreadyExists,
    ContainerUnreadable,
    IoFailure,
    MalformedClassFile,
    MissingArtifact,
    ReportItem,
    SchemaViolation,
)
from .guimodel import GuiModel, link_event_handlers, load_gui
from .metrics import JAVA_SUFFIX, VersionMetrics, holds_line_break, parse_version_csv
from .xmlio import XmlWriter, read_document

PROJECT_FILE_NAME = "project.xml"

class Artifact(NamedTuple):
    """How a project file declares one artifact of the bundle."""

    field: str  # the Project field holding its resolved path
    kind: int  # S_IFDIR or S_IFREG
    required: bool  # absent: a violation if required, else a warning
    layout: str  # its conventional path under a project root


# every artifact a project file can declare, in the order it writes them.
# external_gui is no element of its own: it is the ``external`` attribute
# of <gui>, so it is declared only along with gui.
ARTIFACTS = {
    "binaries": Artifact("binaries_dir", S_IFDIR, True, "bin"),
    "libraries": Artifact("libraries_dir", S_IFDIR, True, "lib"),
    "sources": Artifact("sources_dir", S_IFDIR, True, "src"),
    "gui": Artifact("gui_model_path", S_IFREG, True, "gui/model.xml"),
    "external_gui": Artifact("external_gui_path", S_IFREG, True, "gui/ripper.xml"),
    "callgraph": Artifact("callgraph_path", S_IFREG, True, "callgraph/callgraph.xml"),
    "screenshots": Artifact("screenshots_dir", S_IFDIR, False, "screenshots"),
    "startup": Artifact("startup_script_path", S_IFREG, False, "scripts/start.sh"),
}
# conventional layout under a project root: the artifacts', and the stored metrics
LAYOUT = {artifact: a.layout for artifact, a in ARTIFACTS.items()} | {"metrics": "metrics.csv"}


class Project(NamedTuple):
    """A loaded project file: name, version stamp and resolved artifact paths.

    All paths are resolved against the directory holding the project file;
    artifacts the file does not declare are None.
    """

    name: str
    version_label: str
    timestamp: date
    project_dir: Path
    binaries_dir: Path
    libraries_dir: Path | None = None
    sources_dir: Path | None = None
    gui_model_path: Path | None = None
    external_gui_path: Path | None = None
    callgraph_path: Path | None = None
    screenshots_dir: Path | None = None
    startup_script_path: Path | None = None


class ClassRepository(NamedTuple):
    """The linked code model of one project: its classes and their sources."""

    hierarchy: ClassHierarchy
    sources: dict[str, Path]


class ProjectReport(NamedTuple):
    """Aggregated validation result of one project.

    ``repository``, ``gui_model`` and ``metrics`` are the code model, the
    GUI model and the stored metrics row that validation loaded, or None
    where it loaded none.
    """

    items: tuple[ReportItem, ...] = ()
    handlers_resolved: int = 0
    handlers_unresolved: int = 0
    repository: ClassRepository | None = None
    gui_model: GuiModel | None = None
    metrics: VersionMetrics | None = None

    @property
    def violations(self) -> list[ReportItem]:
        return [i for i in self.items if i.level == "violation"]

    @property
    def warnings(self) -> list[ReportItem]:
        return [i for i in self.items if i.level == "warning"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def handler_summary(self) -> str:
        return f"{self.handlers_resolved} resolved / {self.handlers_unresolved} unresolved"


def init_project(root: Path | str, name: str, version_label: str, timestamp: date,
                 **paths: str | None) -> Path:
    """Write a project file and create the declared directory layout.

    ``paths`` maps artifacts of :data:`ARTIFACTS` to paths under ``root``;
    binaries default to ``bin``, and an artifact left out or None is not
    declared. Re-initializing with identical arguments is a no-op; a
    project file with different content already in place raises
    AlreadyExists.
    """
    unknown = paths.keys() - ARTIFACTS.keys()
    if unknown:
        raise TypeError(f"init_project() got an unexpected keyword argument {min(unknown)!r}")
    paths = {artifact: rel for artifact, rel in {"binaries": LAYOUT["binaries"], **paths}.items()
             if rel is not None}
    root = Path(root)
    content = render_project_file(name, version_label, timestamp, paths)
    target = root / PROJECT_FILE_NAME
    try:
        if target.exists():
            if target.read_bytes() == content:
                return target
            raise AlreadyExists(f"{target} exists with different content")
        root.mkdir(parents=True, exist_ok=True)
        for artifact, rel in paths.items():
            path = root / rel
            (path if ARTIFACTS[artifact].kind == S_IFDIR else path.parent).mkdir(
                parents=True, exist_ok=True)
        target.write_bytes(content)
    except OSError as exc:
        raise IoFailure(f"cannot initialize project at {root}: {exc}") from exc
    return target


def render_project_file(name: str, version_label: str, timestamp: date,
                        paths: dict[str, str]) -> bytes:
    """The project file bytes :func:`init_project` writes for these arguments.

    ``paths`` maps each declared artifact of :data:`ARTIFACTS` to its
    path. A name that is empty, a version label that holds a line break,
    binaries and libraries at one path, a file artifact at the path of
    another artifact, and external_gui without gui raise ValueError.
    """
    if not name:
        raise ValueError("project name must be non-empty")
    if holds_line_break(version_label):
        raise ValueError(f"version label must be one line, got {version_label!r}")
    if "binaries" not in paths:
        raise ValueError("a project must declare its binaries directory")
    if "libraries" in paths and Path(paths["binaries"]) == Path(paths["libraries"]):
        raise ValueError("binaries and libraries directories must be disjoint")
    for artifact, other in permutations(paths, 2):
        if ARTIFACTS[artifact].kind == S_IFREG and Path(paths[artifact]) == Path(paths[other]):
            raise ValueError(f"{artifact} and {other} are declared at one path:"
                             f" {paths[artifact]}")
    if "external_gui" in paths and "gui" not in paths:
        raise ValueError("external_gui without gui: a project file holds it as an attribute"
                         " of <gui>")
    writer = XmlWriter()
    writer.open("project", [("name", name), ("version", version_label),
                            ("timestamp", timestamp.isoformat())])
    for artifact in ARTIFACTS:
        if artifact in paths and artifact != "external_gui":
            attrs = [("path", paths[artifact])]
            if artifact == "gui" and "external_gui" in paths:
                attrs.append(("external", paths["external_gui"]))
            writer.leaf(artifact, attrs)
    writer.close()
    return writer.tobytes()


def read_project_file(path: Path | str) -> Project:
    """Decode a project file without checking that artifacts exist."""
    path = Path(path)
    try:
        text = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read project file {path}: {exc}") from exc
    root = read_document(text, "project", SchemaViolation)
    for required in ("name", "version", "timestamp"):
        if required not in root.attrib:
            raise SchemaViolation(f"<project> missing required attribute {required!r}")
    if not root.attrib["name"]:
        raise SchemaViolation("project name must be non-empty")
    if holds_line_break(root.attrib["version"]):
        raise SchemaViolation(f"version label must be one line, got {root.attrib['version']!r}")
    try:
        timestamp = date.fromisoformat(root.attrib["timestamp"])
    except ValueError as exc:
        raise SchemaViolation(f"invalid project timestamp: {exc}") from exc

    paths: dict[str, str | None] = {}
    for elem in root:
        if elem.tag not in ARTIFACTS or elem.tag == "external_gui":
            continue  # unknown elements from other producers are ignored on load
        if "path" not in elem.attrib:
            raise SchemaViolation(f"<{elem.tag}> missing required attribute 'path'")
        paths[elem.tag] = elem.attrib["path"]
        if elem.tag == "gui":
            paths["external_gui"] = elem.attrib.get("external")
    if "binaries" not in paths:
        raise SchemaViolation("project declares no binaries directory")

    project_dir = path.parent.resolve()
    # an absolute path replaces project_dir
    fields = {ARTIFACTS[artifact].field: (project_dir / raw).resolve()
              for artifact, raw in paths.items() if raw is not None}
    if fields["binaries_dir"] == fields.get("libraries_dir"):
        raise SchemaViolation("binaries and libraries directories must be disjoint")
    return Project(root.attrib["name"], root.attrib["version"], timestamp, project_dir,
                   **fields)


def _absent(p: Project) -> list[tuple[str, Path, bool]]:
    """(artifact, path, required) of every declared artifact that is absent."""
    return [(artifact, path, a.required) for artifact, a in ARTIFACTS.items()
            if (path := getattr(p, a.field)) is not None and not exists_as(path, a.kind)]


def missing_artifacts(p: Project) -> list[tuple[str, Path]]:
    """(artifact, path) of every declared required artifact that is absent."""
    return [(artifact, path) for artifact, path, required in _absent(p) if required]


def validate_project(p: Project) -> ProjectReport:
    """Run every safeguard check, collecting violations and warnings.

    Covers artifact presence, GUI model validation, call graph schema
    validation, the stored metrics (``metrics.csv``, if present, must
    parse and each row must carry the project's version and timestamp),
    the code model (every class under the binaries and libraries must
    parse) and the handler-to-code cross check. This is the one load of a
    bundle: the report keeps the models and the metrics row it loaded.
    """
    items: list[ReportItem] = []

    def violation(code: str, detail: str) -> None:
        items.append(ReportItem("violation", code, detail))

    def warning(code: str, detail: str) -> None:
        items.append(ReportItem("warning", code, detail))

    for artifact, path, required in _absent(p):
        if required:
            violation("MissingArtifact", f"{artifact}: {path}")
        else:
            warning("MissingOptionalArtifact", f"{artifact}: {path}")

    gui_model: GuiModel | None = None
    if p.gui_model_path is not None and exists_as(p.gui_model_path, S_IFREG):
        try:
            gui_model = load_gui(p.gui_model_path.read_bytes())
        except SchemaViolation as exc:
            items += exc.violations or [ReportItem("violation", "GuiSchema", str(exc))]

    if gui_model is not None:
        # screenshots live outside version control; absent files warn only
        base = p.screenshots_dir if p.screenshots_dir is not None else p.project_dir
        for element, _, _ in gui_model.walk():
            if (element.screenshot is not None
                    and not exists_as(base / element.screenshot, S_IFREG)):
                warning("MissingScreenshot",
                        f"element {element.id!r}: {element.screenshot}")

    if p.callgraph_path is not None and exists_as(p.callgraph_path, S_IFREG):
        try:
            parse_callgraph(p.callgraph_path.read_bytes())
        except SchemaViolation as exc:
            violation("CallgraphSchema", str(exc))

    metrics: VersionMetrics | None = None
    metrics_path = p.project_dir / LAYOUT["metrics"]
    if exists_as(metrics_path, S_IFREG):
        try:
            rows = parse_version_csv(metrics_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            violation("Metrics", f"cannot read {metrics_path}: {exc}")
        except IoFailure as exc:
            violation("Metrics", f"{metrics_path}: {exc}")
        else:
            for row in rows:
                if (row.version_label, row.timestamp) != (p.version_label, p.timestamp):
                    violation("Metrics", f"{metrics_path}: row of version"
                              f" {row.version_label!r} at {row.timestamp} disagrees"
                              f" with the project's {p.version_label!r} at {p.timestamp}")
            metrics = rows[0] if rows else None

    repository: ClassRepository | None = None
    if exists_as(p.binaries_dir, S_IFDIR):
        try:
            repository = build_code_model(p)
        except (MalformedClassFile, ContainerUnreadable) as exc:
            violation("CodeModel", str(exc))
    resolved = unresolved = 0
    if gui_model is not None and repository is not None:
        bindings = link_event_handlers(gui_model, repository.hierarchy)
        resolved = sum(1 for b in bindings if b.status == "resolved")
        unresolved = sum(1 for b in bindings if b.status == "unresolved")
    return ProjectReport(tuple(items), resolved, unresolved, repository, gui_model, metrics)


def load_project(path: Path | str) -> Project:
    """Load a project with all safeguard checks; raises on any violation:
    :class:`MissingArtifact` for a missing required artifact, or else a
    :class:`SchemaViolation` whose ``violations`` are all the report's.
    Warnings pass silently: :func:`validate_project` reports them."""
    project = read_project_file(path)
    report = validate_project(project)
    if not report.ok:
        missing = missing_artifacts(project)
        if missing:
            raise MissingArtifact(*missing[0])
        summary = "; ".join(i.detail for i in report.violations)
        raise SchemaViolation(f"project failed validation: {summary}", report.violations)
    return project


def build_code_model(p: Project) -> ClassRepository:
    """Parse the project's classes and pair them with their sources.

    Source pairing matches the class file's recorded source file name, if
    it is a bare file name (or else the top-level class name plus
    ``.java``), under the package path in the sources directory. A declared
    binaries or libraries path is read only when it is a directory.
    """
    def present(container: Path | None) -> list[Path]:
        return [container] if container is not None and exists_as(container, S_IFDIR) else []

    hierarchy = build_hierarchy(ClasspathPartition.of(
        library=present(p.libraries_dir), application=present(p.binaries_dir)))

    sources: dict[str, Path] = {}
    if p.sources_dir is not None and exists_as(p.sources_dir, S_IFDIR):
        for name, cf in hierarchy.classes.items():
            found = _find_source(p.sources_dir, name, cf.source_file)
            if found is not None:
                sources[name] = found
    return ClassRepository(hierarchy, sources)


def _find_source(sources_dir: Path, class_name: str, source_file: str | None) -> Path | None:
    package, _, simple = class_name.rpartition("/")
    package_dir = sources_dir / package if package else sources_dir
    # SourceFile is a file name (JVMS §4.7.10): a path could lead out of the sources
    if source_file is not None and Path(source_file).name == source_file:
        candidate = package_dir / source_file
        if exists_as(candidate, S_IFREG):
            return candidate
    candidate = package_dir / (simple.split("$", 1)[0] + JAVA_SUFFIX)
    return candidate if exists_as(candidate, S_IFREG) else None
