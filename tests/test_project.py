"""Project bundles: init, safeguard loading, code model assembly."""

from datetime import date

import pytest

from apprepo.callgraph import parse_callgraph
from apprepo.errors import AlreadyExists, IoFailure, MissingArtifact, SchemaViolation
from apprepo.project import (
    build_code_model,
    init_project,
    load_project,
    read_project_file,
    validate_project,
)

from bundles import build_bundle
from classasm import AsmClass, assemble_class

TS = date(2001, 6, 1)
LONG_NAME = "x" * 300  # longer than a file system allows a path component to be


@pytest.fixture
def bundle(corpus, hierarchy, tmp_path):
    return build_bundle(corpus, hierarchy, tmp_path / "demo")


# --- init ------------------------------------------------------------------

def test_init_minimal_writes_only_binaries(tmp_path):
    target = init_project(tmp_path / "p", "mini", "0.1", TS)
    text = target.read_text()
    assert '<project name="mini" version="0.1" timestamp="2001-06-01">' in text
    assert "<binaries" in text
    for absent in ("<libraries", "<sources", "<gui", "<callgraph",
                   "<screenshots", "<startup"):
        assert absent not in text
    assert (tmp_path / "p" / "bin").is_dir()


def test_init_idempotent(tmp_path):
    first = init_project(tmp_path / "p", "mini", "0.1", TS)
    before = first.read_bytes()
    second = init_project(tmp_path / "p", "mini", "0.1", TS)
    assert second.read_bytes() == before


def test_init_conflicting_content(tmp_path):
    init_project(tmp_path / "p", "mini", "0.1", TS)
    with pytest.raises(AlreadyExists):
        init_project(tmp_path / "p", "mini", "0.2", TS)


def test_init_unwritable_target(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(IoFailure):
        init_project(blocker, "mini", "0.1", TS)


def test_init_rejects_overlapping_dirs(tmp_path):
    with pytest.raises(ValueError):
        init_project(tmp_path / "p", "mini", "0.1", TS,
                     binaries="bin", libraries="bin")


def test_init_rejects_external_gui_without_gui(tmp_path):
    # a project file holds external_gui only as an attribute of <gui>
    with pytest.raises(ValueError, match="external_gui without gui"):
        init_project(tmp_path / "p", "mini", "0.1", TS, external_gui="gui/r.xml")
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("paths,pair", [
    ({"callgraph": "bin"}, "callgraph and binaries"),
    ({"gui": "g/model.xml", "startup": "./g/model.xml"}, "gui and startup"),
])
def test_init_rejects_a_file_artifact_at_another_artifacts_path(tmp_path, paths, pair):
    # the one path cannot be both, so the project would fail its own validation
    with pytest.raises(ValueError, match=f"{pair} are declared at one path"):
        init_project(tmp_path / "p", "mini", "0.1", TS, **paths)
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("label", ["1\n2 | 3", "1\r", "\u20281"])
def test_init_rejects_a_version_label_with_a_line_break(tmp_path, label):
    # the report table would print the label over two lines
    with pytest.raises(ValueError) as err:
        init_project(tmp_path / "p", "mini", label, TS)
    assert str(err.value) == f"version label must be one line, got {label!r}"
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("libraries", [None, "lib"])
def test_init_rejects_undeclared_binaries(tmp_path, libraries):
    with pytest.raises(ValueError, match="must declare its binaries"):
        init_project(tmp_path / "p", "mini", "0.1", TS, binaries=None, libraries=libraries)
    assert not (tmp_path / "p").exists()


def test_init_rejects_unknown_artifacts(tmp_path):
    with pytest.raises(TypeError, match="'binary'"):
        init_project(tmp_path / "p", "mini", "0.1", TS, binary="bin")
    assert not (tmp_path / "p").exists()


# every artifact a project file declares: its path, its Project field and
# whether it is a directory; all but binaries are optional
ARTIFACT_PATHS = {
    "binaries": ("b/in", "binaries_dir", True),
    "libraries": ("l/ib", "libraries_dir", True),
    "sources": ("s", "sources_dir", True),
    "gui": ("g/model.xml", "gui_model_path", False),
    "external_gui": ("g/rip.xml", "external_gui_path", False),
    "callgraph": ("c/g.xml", "callgraph_path", False),
    "screenshots": ('shots & <"q">', "screenshots_dir", True),
    "startup": ("sh/start.sh", "startup_script_path", False),
}
OPTIONAL_ARTIFACTS = tuple(ARTIFACT_PATHS)[1:]


@pytest.mark.parametrize("declared", [
    tuple(a for i, a in enumerate(OPTIONAL_ARTIFACTS) if mask >> i & 1)
    for mask in range(1 << len(OPTIONAL_ARTIFACTS))], ids=lambda d: "+".join(d) or "none")
def test_project_file_round_trips_each_set_of_artifacts(tmp_path, declared):
    root = tmp_path / "p"
    paths = {a: ARTIFACT_PATHS[a][0] for a in ("binaries", *declared)}
    if "external_gui" in paths and "gui" not in paths:
        with pytest.raises(ValueError, match="external_gui without gui"):
            init_project(root, "every", "1.0", TS, **paths)
        assert not root.exists()
        return
    project = read_project_file(init_project(root, "every", "1.0", TS, **paths))
    assert {field: getattr(project, field) for _, field, _ in ARTIFACT_PATHS.values()
            if getattr(project, field) is not None} == {
        ARTIFACT_PATHS[a][1]: (root / rel).resolve() for a, rel in paths.items()}
    for artifact, rel in paths.items():
        is_dir = ARTIFACT_PATHS[artifact][2]
        assert (root / rel if is_dir else (root / rel).parent).is_dir()
        assert is_dir or not (root / rel).exists()


def test_project_file_with_every_artifact_is_pinned(tmp_path):
    paths = {a: rel for a, (rel, _, _) in ARTIFACT_PATHS.items()}
    target = init_project(tmp_path / "p", "every & <1>", '1.0 "beta"', TS, **paths)
    assert target.read_bytes() == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<project name="every &amp; &lt;1&gt;" version="1.0 &quot;beta&quot;"'
        b' timestamp="2001-06-01">\n'
        b'  <binaries path="b/in"/>\n'
        b'  <libraries path="l/ib"/>\n'
        b'  <sources path="s"/>\n'
        b'  <gui path="g/model.xml" external="g/rip.xml"/>\n'
        b'  <callgraph path="c/g.xml"/>\n'
        b'  <screenshots path="shots &amp; &lt;&quot;q&quot;&gt;"/>\n'
        b'  <startup path="sh/start.sh"/>\n'
        b'</project>\n')


# --- loading ------------------------------------------------------------------

def test_load_complete_bundle(bundle):
    project = load_project(bundle)
    assert project.name == "demo"
    assert project.timestamp == TS
    assert project.binaries_dir.is_dir()
    assert project.libraries_dir.is_dir()
    assert project.gui_model_path.is_file()
    assert project.callgraph_path.is_file()


def test_load_missing_callgraph(bundle):
    project = read_project_file(bundle)
    project.callgraph_path.unlink()
    with pytest.raises(MissingArtifact) as err:
        load_project(bundle)
    assert err.value.artifact == "callgraph"


def test_load_missing_artifact_typed_fields(bundle):
    project = read_project_file(bundle)
    project.callgraph_path.unlink()
    with pytest.raises(MissingArtifact) as err:
        load_project(bundle)
    assert err.value.artifact == "callgraph"
    assert err.value.path == project.callgraph_path


@pytest.mark.parametrize("alias", ["lib/../bin", "{root}/lib/../bin"])
def test_read_rejects_binaries_aliasing_libraries(bundle, alias):
    alias = alias.format(root=bundle.parent)
    text = bundle.read_text().replace('<libraries path="lib"/>',
                                      f'<libraries path="{alias}"/>')
    bundle.write_text(text)
    with pytest.raises(SchemaViolation, match="disjoint"):
        read_project_file(bundle)


@pytest.mark.parametrize("label,text", [("1&#10;2 | 3", "1\n2 | 3"), ("1&#13;", "1\r"),
                                        ("\u20281", "\u20281")])
def test_read_rejects_a_version_label_with_a_line_break(bundle, label, text):
    edited = bundle.read_text(encoding="utf-8")
    version = f'version="{read_project_file(bundle).version_label}" timestamp='
    assert edited.count(version) == 1
    bundle.write_text(edited.replace(version, f'version="{label}" timestamp='),
                      encoding="utf-8")
    with pytest.raises(SchemaViolation) as err:
        read_project_file(bundle)
    assert str(err.value) == f"version label must be one line, got {text!r}"


def test_load_rejects_duplicate_gui_ids(bundle):
    gui = read_project_file(bundle).gui_model_path
    gui.write_bytes(gui.read_bytes().replace(b'id="lbl"', b'id="ok"'))
    with pytest.raises(SchemaViolation) as err:
        load_project(bundle)
    assert any(v.code == "DuplicateId" for v in err.value.violations)


def test_load_damaged_callgraph_raises_with_its_violation(bundle):
    read_project_file(bundle).callgraph_path.write_text(
        '<callgraph algorithm="CHA"><method/></callgraph>')
    with pytest.raises(SchemaViolation) as err:
        load_project(bundle)
    assert [(v.level, v.code) for v in err.value.violations] == [
        ("violation", "CallgraphSchema")]


def test_load_is_side_effect_free(bundle):
    project_dir = bundle.parent
    before = sorted(str(p) for p in project_dir.rglob("*"))
    load_project(bundle)
    assert sorted(str(p) for p in project_dir.rglob("*")) == before


def test_unknown_project_elements_ignored(bundle):
    text = bundle.read_text()
    text = text.replace("</project>", '  <future thing="x"/>\n</project>')
    bundle.write_text(text)
    load_project(bundle)  # still loads


def test_external_gui_element_ignored(bundle):
    # external_gui is the external attribute of <gui>, never an element
    text = bundle.read_text().replace(' external="gui/ripper.xml"', "")
    bundle.write_text(text.replace("</project>",
                                   '  <external_gui path="gui/ripper.xml"/>\n</project>'))
    project = read_project_file(bundle)
    assert project.gui_model_path is not None
    assert project.external_gui_path is None


def test_projects_are_isolated(corpus, hierarchy, tmp_path):
    first = build_bundle(corpus, hierarchy, tmp_path / "v1", version="1",
                         timestamp=date(2001, 1, 1))
    second = build_bundle(corpus, hierarchy, tmp_path / "v2", version="2",
                          timestamp=date(2002, 1, 1))
    p1, p2 = load_project(first), load_project(second)
    assert p1.project_dir != p2.project_dir
    assert p1.binaries_dir != p2.binaries_dir


# --- validation ------------------------------------------------------------------

def test_validate_complete_bundle(bundle):
    report = validate_project(read_project_file(bundle))
    assert report.violations == []
    assert report.handler_summary() == "1 resolved / 0 unresolved"


def test_missing_screenshots_is_warning(corpus, hierarchy, tmp_path):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p", screenshots=True)
    project = read_project_file(bundle)
    project.screenshots_dir.rmdir()
    report = validate_project(project)
    assert report.violations == []
    assert any(i.code == "MissingOptionalArtifact" for i in report.warnings)
    load_project(bundle)  # warnings do not block loading


def test_optional_artifact_of_the_wrong_kind_is_a_warning(corpus, hierarchy, tmp_path):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p", screenshots=True)
    text = bundle.read_text().replace("</project>",
                                      '  <startup path="bin"/>\n</project>')
    bundle.write_text(text)
    project = read_project_file(bundle)
    project.screenshots_dir.rmdir()
    project.screenshots_dir.write_text("a file, not a directory")
    report = validate_project(project)
    assert report.violations == []
    assert [(i.code, i.detail) for i in report.warnings] == [
        ("MissingOptionalArtifact", f"screenshots: {project.screenshots_dir}"),
        ("MissingOptionalArtifact", f"startup: {project.binaries_dir}")]


def test_dangling_callgraph_edge_is_violation(bundle):
    project = read_project_file(bundle)
    doc = """<?xml version="1.0" encoding="UTF-8"?>
<callgraph algorithm="CHA">
  <method id="A.m()V" inClass="A" inFramework="false" inLibrary="false" inApplication="true" reachable="true">
    <calls target="ghost.gone()V"/>
  </method>
</callgraph>
"""
    project.callgraph_path.write_text(doc)
    report = validate_project(project)
    assert any(i.code == "CallgraphSchema" and "ghost.gone" in i.detail
               for i in report.violations)


def test_dangling_callgraph_edge_reported_once(bundle):
    project = read_project_file(bundle)
    project.callgraph_path.write_text(
        '<callgraph algorithm="CHA"><method id="A.m()V" inClass="A" inFramework="false"'
        ' inLibrary="false" inApplication="true" reachable="true">'
        '<calls target="ghost.gone()V"/></method></callgraph>')
    report = validate_project(project)
    assert [i.code for i in report.violations] == ["CallgraphSchema"]
    assert report.handler_summary() == "1 resolved / 0 unresolved"


def test_load_validate_equivalence(corpus, hierarchy, tmp_path):
    # broken and intact projects agree between load and validate
    intact = build_bundle(corpus, hierarchy, tmp_path / "good")
    assert validate_project(read_project_file(intact)).ok
    load_project(intact)

    broken = build_bundle(corpus, hierarchy, tmp_path / "bad")
    read_project_file(broken).callgraph_path.unlink()
    assert not validate_project(read_project_file(broken)).ok
    with pytest.raises(MissingArtifact):
        load_project(broken)


def test_missing_screenshot_file_is_warning(corpus, hierarchy, tmp_path):
    from apprepo.guimodel import GuiModel, persist_gui
    from bundles import bundle_gui_model

    bundle = build_bundle(corpus, hierarchy, tmp_path / "p", screenshots=True)
    project = read_project_file(bundle)
    base = bundle_gui_model()
    window = base.root.children[0]._replace(screenshot="shots/main.png")
    model = GuiModel(base.root._replace(children=(window,)), base.source_format)
    project.gui_model_path.write_bytes(persist_gui(model))

    report = validate_project(project)
    assert report.violations == []
    assert any(i.code == "MissingScreenshot" for i in report.warnings)

    shot = project.screenshots_dir / "shots" / "main.png"
    shot.parent.mkdir(parents=True)
    shot.write_bytes(b"\x89PNG fake")
    report = validate_project(project)
    assert not any(i.code == "MissingScreenshot" for i in report.warnings)


# a path component too long for the file system makes pathlib's checks raise
# ENAMETOOLONG; validation must read such a path from bundle data as absent

def test_over_long_sources_path_is_a_missing_artifact(bundle):
    text = bundle.read_text().replace('<sources path="src"/>',
                                      f'<sources path="{LONG_NAME}"/>')
    bundle.write_text(text)
    report = validate_project(read_project_file(bundle))
    assert [i.code for i in report.items] == ["MissingArtifact"]
    assert report.items[0].detail.startswith("sources: ")
    assert report.repository.sources == {}
    with pytest.raises(MissingArtifact) as err:
        load_project(bundle)
    assert err.value.artifact == "sources"


def test_over_long_screenshots_path_is_a_missing_optional_artifact(bundle):
    text = bundle.read_text().replace("</project>",
                                      f'  <screenshots path="{LONG_NAME}"/>\n</project>')
    bundle.write_text(text)
    report = validate_project(read_project_file(bundle))
    assert report.violations == []
    assert [(i.code, i.detail.split(":")[0]) for i in report.warnings] == [
        ("MissingOptionalArtifact", "screenshots")]


def test_over_long_element_screenshot_is_a_missing_screenshot(bundle):
    from apprepo.guimodel import GuiModel, persist_gui
    from bundles import bundle_gui_model

    project = read_project_file(bundle)
    base = bundle_gui_model()
    window = base.root.children[0]._replace(screenshot=LONG_NAME)
    model = GuiModel(base.root._replace(children=(window,)), base.source_format)
    project.gui_model_path.write_bytes(persist_gui(model))
    report = validate_project(project)
    assert report.violations == []
    assert [i.code for i in report.warnings] == ["MissingScreenshot"]
    assert report.warnings[0].detail == f"element 'main': {LONG_NAME}"


def test_unresolved_handler_counted(corpus, hierarchy, tmp_path):
    from apprepo.guimodel import persist_gui
    from bundles import bundle_gui_model

    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    project = read_project_file(bundle)
    model = bundle_gui_model(handlers=("fix/Circle", "no/Such"))
    project.gui_model_path.write_bytes(persist_gui(model))
    report = validate_project(project)
    assert report.ok
    assert report.handler_summary() == "1 resolved / 1 unresolved"


# --- code model ------------------------------------------------------------------

def test_code_model_classes_and_sources(bundle):
    project = load_project(bundle)
    repo = build_code_model(project)
    assert "fix/Circle" in repo.hierarchy.classes
    assert "fix/LibThing" in repo.hierarchy.classes  # libraries parsed too
    assert repo.sources["fix/Circle"].name == "Circle.java"
    assert "fix/Square" not in repo.sources  # no source shipped
    assert parse_callgraph(project.callgraph_path.read_bytes()).nodes


def test_code_model_origin_flags(bundle):
    origins = build_code_model(load_project(bundle)).hierarchy.origins
    assert origins["fix/LibThing"] == (False, True, False)
    assert origins["fix/Dup"] == (False, True, True)
    assert origins["fix/Circle"] == (False, False, True)


def test_code_model_inner_class_source_pairing(bundle):
    project = load_project(bundle)
    (project.sources_dir / "fix" / "App.java").write_text("public class App {}\n")
    repo = build_code_model(project)
    assert repo.sources["fix/App$Helper"].name == "App.java"


@pytest.mark.parametrize("source_file,named", [
    ("{tmp}/abs/X.java", "abs/X.java"),
    ("../../outside.java", "p/outside.java"),
    ("sub/X.java", "p/src/q/sub/X.java"),
], ids=["absolute", "parent", "subdirectory"])
def test_code_model_pairs_source_file_only_as_a_bare_name(tmp_path, source_file, named):
    # SourceFile names a file, never a directory or an absolute path (JVMS §4.7.10)
    root = tmp_path / "p"
    project = read_project_file(init_project(root, "odd", "1.0", TS, sources="src"))
    spec = AsmClass("q/X", source_file=source_file.format(tmp=tmp_path))
    (root / "bin" / "q").mkdir(parents=True)
    (root / "bin" / "q" / "X.class").write_bytes(assemble_class(spec))
    for path in (tmp_path / named, root / "src" / "q" / "X.java"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("class X {}\n")
    assert build_code_model(project).sources == {"q/X": root / "src" / "q" / "X.java"}


def test_code_model_over_long_source_file_name_pairs_by_class_name(tmp_path):
    root = tmp_path / "p"
    project = read_project_file(init_project(root, "odd", "1.0", TS, sources="src"))
    (root / "bin" / "q").mkdir(parents=True)
    (root / "bin" / "q" / "X.class").write_bytes(
        assemble_class(AsmClass("q/X", source_file=LONG_NAME + ".java")))
    (root / "bin" / "q" / "Y.class").write_bytes(
        assemble_class(AsmClass("q/Y", source_file=LONG_NAME)))
    (root / "src" / "q").mkdir(parents=True)
    (root / "src" / "q" / "X.java").write_text("class X {}\n")
    assert build_code_model(project).sources == {"q/X": root / "src" / "q" / "X.java"}
    assert validate_project(project).items == ()


def test_code_model_reads_no_library_path_that_is_not_a_directory(bundle):
    bundle.write_text(bundle.read_text().replace('<libraries path="lib"/>',
                                                 '<libraries path="lib/library.jar"/>'))
    project = read_project_file(bundle)
    report = validate_project(project)
    assert [(i.code, i.detail) for i in report.violations] == [
        ("MissingArtifact", f"libraries: {project.libraries_dir}")]
    origins = report.repository.hierarchy.origins
    assert "fix/LibThing" not in origins and origins["fix/Dup"] == (False, False, True)
    assert not any(library for _, library, _ in origins.values())


def test_code_model_empty_binaries(corpus, hierarchy, tmp_path):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p", gui=False,
                          sources=False, libraries=False)
    project = read_project_file(bundle)
    for class_file in project.binaries_dir.rglob("*.class"):
        class_file.unlink()
    repo = build_code_model(project)
    assert repo.hierarchy.classes == {}
    assert repo.sources == {}


def test_callgraph_classes_present_in_code_model(bundle):
    project = load_project(bundle)
    repo = build_code_model(project)
    graph = parse_callgraph(project.callgraph_path.read_bytes())
    for ref, (_, in_library, in_application, _) in graph.nodes.items():
        if in_application or in_library:
            assert ref.in_class in repo.hierarchy.classes
