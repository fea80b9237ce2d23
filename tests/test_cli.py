"""End-to-end CLI pipeline: build, validate, report."""

import gc
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import apprepo.callgraph
import apprepo.classfile.parser
import apprepo.cli
import apprepo.containers
import apprepo.guimodel
from apprepo.cli import main
from apprepo.metrics import parse_version_csv
from apprepo.project import LAYOUT, load_project, read_project_file

from bundles import SOURCES_LOC, build_bundle, ripper_document, write_sources
from classasm import ACC_PUBLIC, ACC_STATIC, AsmClass, AsmMethod, assemble_class
from make_demo import make_demo
from test_classfile import wrong_kind_class
from test_containers import damage_jar


def write_config(path: Path, corpus, sources_dir=None, gui_path=None, **overrides):
    cfg = {
        "name": "demo",
        "version": "1.0",
        "timestamp": "2001-06-01",
        "framework": [str(corpus.paths["framework"])],
        "library": [str(corpus.paths["library"])],
        "application": [str(corpus.paths["application"])],
        "entry_points": ["fix/Main2.main([Ljava/lang/String;)V"],
    }
    if sources_dir is not None:
        cfg["sources"] = str(sources_dir)
    if gui_path is not None:
        cfg["external_gui"] = str(gui_path)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


@pytest.fixture
def inputs(corpus, tmp_path):
    sources = tmp_path / "sources"
    write_sources(sources)
    gui = tmp_path / "ripped.xml"
    gui.write_text(ripper_document(), encoding="utf-8")
    config = write_config(tmp_path / "config.json", corpus, sources, gui)
    return config


def stage_failure(err: str) -> dict:
    """The JSON record a failed build writes to stderr."""
    return json.loads(next(line for line in err.splitlines() if line.startswith("{")))


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# --- build -----------------------------------------------------------------

def test_build_produces_valid_project(inputs, tmp_path, capsys):
    out = tmp_path / "proj"
    assert main(["build", "--config", str(inputs), "--out", str(out)]) == 0
    project = load_project(out / "project.xml")
    assert project.name == "demo"
    rows = parse_version_csv((out / "metrics.csv").read_text())
    assert len(rows) == 1
    row = rows[0]
    assert (row.classes, row.loc, row.widgets, row.windows) == (14, SOURCES_LOC, 3, 1)
    assert (out / "gui" / "ripper.xml").read_text() == ripper_document()
    assert main(["validate", str(out / "project.xml")]) == 0


def test_build_counts_class_in_two_application_jars_once(corpus, tmp_path):
    for jar in ("a.jar", "b.jar"):
        with zipfile.ZipFile(tmp_path / jar, "w") as zf:
            zf.writestr("extra/Twin.class", assemble_class(AsmClass("extra/Twin")))
    application = [str(corpus.paths["application"]),
                   str(tmp_path / "a.jar"), str(tmp_path / "b.jar")]
    config = write_config(tmp_path / "c.json", corpus, application=application)
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert parse_version_csv((out / "metrics.csv").read_text())[0].classes == 15


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace a function under every name an ``apprepo`` module binds it to,
    so calls through re-exports are seen too."""
    for name, module in list(sys.modules.items()):
        if name == "apprepo" or name.startswith("apprepo."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def record_reader_calls(monkeypatch) -> dict[str, list]:
    """First arguments of every container read, class parse, call graph
    parse and GUI model load."""
    calls: dict[str, list] = {}
    for original in (apprepo.containers.iter_class_entries,
                     apprepo.classfile.parser.parse_class,
                     apprepo.callgraph.parse_callgraph,
                     apprepo.guimodel.load_gui):
        log = calls[original.__name__] = []

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(args[0])
            return _original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
    return calls


def test_each_command_loads_the_class_path_once(tmp_path, monkeypatch):
    config = make_demo(tmp_path / "demo")
    repo = tmp_path / "demo" / "repo"
    calls = record_reader_calls(monkeypatch)
    counts = {}
    for command, argv in (
            ("build", ["build", "--config", str(config), "--out", str(repo / "v1")]),
            ("validate", ["validate", str(repo / "v1" / "project.xml")]),
            ("report", ["report", str(repo)])):
        for log in calls.values():
            log.clear()
        assert main(argv) == 0, command
        containers = [str(c) for c in calls["iter_class_entries"]]
        assert len(containers) == len(set(containers)), command
        counts[command] = {function: len(log) for function, log in calls.items()}
    # build reads each of the demo's 3 containers once and parses each of
    # their 17 class entries once; it reads none of the documents it wrote
    assert counts["build"] == {"iter_class_entries": 3, "parse_class": 17,
                               "parse_callgraph": 0, "load_gui": 0}
    for command in ("validate", "report"):
        assert counts[command]["parse_callgraph"] == 1, command


def test_bodies_are_checked_at_parse_time_and_never_decoded(tmp_path, monkeypatch):
    config = make_demo(tmp_path / "demo")
    repo = tmp_path / "demo" / "repo"
    checked, decoded, scanned, closures = [], [], [], []
    check_body = apprepo.classfile.parser._check_body
    scan = apprepo.classfile.parser._scan
    disassemble = apprepo.classfile.parser.disassemble
    build_callgraph = apprepo.callgraph.build_callgraph

    def counted_check_body(code, file_base, pool, *args):
        operands = check_body(code, file_base, pool, *args)
        checked.append((code, file_base, pool, operands))
        return operands

    def counted_disassemble(*args):
        decoded.append(args)
        return disassemble(*args)

    def counted_scan(code):
        scanned.append(code)
        return scan(code)

    def recorded_build_callgraph(h, entries):
        graph = build_callgraph(h, entries)
        closures.append((h, graph))
        return graph

    patch_everywhere(monkeypatch, check_body, counted_check_body)
    patch_everywhere(monkeypatch, disassemble, counted_disassemble)
    patch_everywhere(monkeypatch, scan, counted_scan)
    patch_everywhere(monkeypatch, build_callgraph, recorded_build_callgraph)
    for command, argv in (
            ("build", ["build", "--config", str(config), "--out", str(repo / "v1")]),
            ("validate", ["validate", str(repo / "v1" / "project.xml")]),
            ("report", ["report", str(repo)])):
        checked.clear()
        decoded.clear()
        scanned.clear()
        assert main(argv) == 0, command
        assert checked, command
        # a body is its class's pool and its code array's place in the file
        bodies_checked = {(id(pool), file_base) for _, file_base, pool, _ in checked}
        assert len(bodies_checked) == len(checked), command
        # each checked body's code array is scanned once, and nothing else is
        assert sorted(map(id, scanned)) == sorted(id(code) for code, *_ in checked), command
        assert decoded == [], command
        if command == "build":
            # the closure reads the operands that this build's body checks found
            (h, graph), = closures
            assert graph.calls
            kept = {(cf.source, m.code_at, id(m.operands)) for cf in h.classes.values()
                    for m in cf.methods.values() if m.code_at}
            assert kept <= {(pool.source, file_base, id(found))
                            for _, file_base, pool, found in checked}


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("outcome", ["built", "stage-failure", "usage-error"])
def test_main_pauses_the_collector_and_restores_its_state(corpus, tmp_path, monkeypatch,
                                                          capsys, collecting, outcome):
    during = []
    build_hierarchy = apprepo.callgraph.build_hierarchy

    def recorded_build_hierarchy(partition):
        during.append(gc.isenabled())
        return build_hierarchy(partition)

    patch_everywhere(monkeypatch, build_hierarchy, recorded_build_hierarchy)
    entry = "fix/Main2.main([Ljava/lang/String;)V" if outcome == "built" else "fix/Main2.gone()V"
    config = write_config(tmp_path / "c.json", corpus, entry_points=[entry])
    argv = ["build", "--config", str(config)]
    if outcome != "usage-error":
        argv += ["--out", str(tmp_path / "proj")]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is collecting
    assert code == {"built": 0, "stage-failure": 1, "usage-error": 2}[outcome]
    if outcome == "usage-error":
        assert during == []
    else:
        assert during and not any(during)
    if outcome == "stage-failure":
        assert stage_failure(capsys.readouterr().err)["stage"] == "callgraph"


def test_report_without_metrics_counts_classes_from_the_code_model(tmp_path, monkeypatch,
                                                                 capsys):
    config = make_demo(tmp_path / "demo")
    repo = tmp_path / "demo" / "repo"
    assert main(["build", "--config", str(config), "--out", str(repo / "v1")]) == 0
    stored = (repo / "v1" / "metrics.csv").read_text()
    (repo / "v1" / "metrics.csv").unlink()
    capsys.readouterr()
    calls = record_reader_calls(monkeypatch)
    assert main(["report", str(repo), "--csv"]) == 0
    assert parse_version_csv(capsys.readouterr().out) == parse_version_csv(stored)
    assert [Path(c).name for c in calls["iter_class_entries"]] == ["bin", "lib"]
    assert len(calls["parse_class"]) == 16
    assert len(calls["load_gui"]) == 1


@pytest.mark.parametrize("row,reason", [
    (b"2.0,2002-02-02,many,10,3,1", "invalid literal for int()"),
    (b"2.0,2002-02-02,-1,10,3,1", "classes must be non-negative"),
    (b"2.0,2002-13-02,14,10,3,1", "month must be in 1..12"),
    (b"\xff\xfe,2002-02-02,14,10,3,1", "can't decode byte 0xff"),
    (b"9.9,1999-01-01,14,10,3,1",
     "row of version '9.9' at 1999-01-01 disagrees with the project's '2.0' at 2002-02-02"),
], ids=["non-integer-count", "negative-count", "bad-date", "undecodable-bytes",
        "disagreeing-row"])
def test_report_skips_project_with_damaged_metrics(corpus, hierarchy, tmp_path, capsys,
                                                   row, reason):
    from datetime import date
    repo = tmp_path / "repo"
    build_bundle(corpus, hierarchy, repo / "good", version="1.0", timestamp=date(2001, 1, 1))
    build_bundle(corpus, hierarchy, repo / "damaged", version="2.0",
                 timestamp=date(2002, 2, 2))
    (repo / "damaged" / "metrics.csv").write_bytes(
        b"version,timestamp,classes,loc,widgets,windows\r\n" + row + b"\r\n")
    assert main(["report", str(repo), "--csv"]) == 0
    out, err = capsys.readouterr()
    rows = parse_version_csv(out)
    assert [r.version_label for r in rows] == ["1.0"]
    skipped = [line for line in err.splitlines() if line.startswith("WARNING skipping damaged")]
    assert len(skipped) == 1 and reason in skipped[0]
    assert main(["validate", str(repo / "damaged" / "project.xml")]) == 1
    violations = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                  if json.loads(line)["level"] == "violation"]
    assert len(violations) == 1 and violations[0]["code"] == "Metrics"
    assert reason in violations[0]["detail"]


def test_corrupt_library_jar_fails_a_bundle_without_gui(corpus, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", corpus)
    repo = tmp_path / "repo"
    assert main(["build", "--config", str(config), "--out", str(repo / "v1")]) == 0
    project = read_project_file(repo / "v1" / "project.xml")
    assert project.gui_model_path is None
    jar, = project.libraries_dir.glob("*.jar")
    jar.write_bytes(b"garbage, not a zip archive")
    capsys.readouterr()
    assert main(["validate", str(repo / "v1" / "project.xml")]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [(l["level"], l["code"]) for l in lines[:-1]] == [("violation", "CodeModel")]
    assert jar.name in lines[0]["detail"]
    assert lines[-1]["violations"] == 1
    assert main(["report", str(repo)]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2  # header and separator only
    assert any(line.startswith("WARNING skipping v1") for line in err.splitlines())


def test_damaged_jar_entry_fails_validate_and_build_without_a_traceback(
        corpus, hierarchy, tmp_path, capsys):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "bundle")
    jar, = read_project_file(bundle).libraries_dir.glob("*.jar")
    entry = damage_jar(jar, "deflate")
    capsys.readouterr()
    assert main(["validate", str(bundle)]) == 1
    out, err = capsys.readouterr()
    lines = [json.loads(l) for l in out.splitlines()]
    assert [(l["level"], l["code"]) for l in lines[:-1]] == [("violation", "CodeModel")]
    assert f"cannot read entry {entry} of archive {jar}" in lines[0]["detail"]
    assert "Traceback" not in err

    config = write_config(tmp_path / "c.json", corpus, library=[str(jar)])
    assert main(["build", "--config", str(config), "--out", str(tmp_path / "proj")]) == 1
    out, err = capsys.readouterr()
    failure = stage_failure(err)
    assert (failure["stage"], failure["error"]) == ("hierarchy", "ContainerUnreadable")
    assert "Traceback" not in err


def test_build_byte_identical_outputs(inputs, tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["build", "--config", str(inputs), "--out", str(out1)]) == 0
    assert main(["build", "--config", str(inputs), "--out", str(out2)]) == 0
    assert snapshot(out1) == snapshot(out2)
    # rebuilding over the same output is also byte-stable
    before = snapshot(out1)
    assert main(["build", "--config", str(inputs), "--out", str(out1)]) == 0
    assert snapshot(out1) == before


def test_build_missing_binaries_no_output(corpus, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", corpus,
                          application=[str(tmp_path / "missing")])
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()
    assert '"stage"' in capsys.readouterr().err


def test_failed_build_removes_only_the_parents_it_created(corpus, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", corpus,
                          entry_points=["fix/Nowhere.main([Ljava/lang/String;)V"])
    keep = tmp_path / "keep"
    keep.mkdir()
    (keep / "file").write_bytes(b"x")
    assert main(["build", "--config", str(config), "--out", str(keep / "a" / "b" / "proj")]) == 1
    assert stage_failure(capsys.readouterr().err)["stage"] == "callgraph"
    assert [p.name for p in keep.iterdir()] == ["file"]


def test_build_reports_unencodable_method_name_as_stage_failure(tmp_path, capsys):
    app = tmp_path / "app"
    (app / "p").mkdir(parents=True)
    odd = "x\ud800"  # valid modified UTF-8 (ED A0 80), no UTF-8 form
    (app / "p" / "A.class").write_bytes(assemble_class(AsmClass("p/A", methods=[
        AsmMethod("main", "([Ljava/lang/String;)V", ACC_PUBLIC | ACC_STATIC,
                  [("invokestatic", "p/A", odd, "()V"), ("return",)]),
        AsmMethod(odd, "()V", ACC_PUBLIC | ACC_STATIC, [("return",)])])))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"name": "odd", "timestamp": "2001-06-01",
                                  "application": [str(app)]}), encoding="utf-8")
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    failure = json.loads(next(line for line in err.splitlines() if line.startswith("{")))
    assert (failure["stage"], failure["error"]) == ("callgraph", "SchemaViolation")
    assert "unpaired surrogate" in failure["detail"]
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


def test_build_reports_method_name_xml_cannot_carry_at_the_callgraph_stage(tmp_path, capsys):
    app = tmp_path / "app"
    (app / "p").mkdir(parents=True)
    odd = "x\u0001y"  # a legal method name that XML 1.0 cannot carry
    (app / "p" / "A.class").write_bytes(assemble_class(AsmClass("p/A", methods=[
        AsmMethod("main", "([Ljava/lang/String;)V", ACC_PUBLIC | ACC_STATIC,
                  [("invokestatic", "p/A", odd, "()V"), ("return",)]),
        AsmMethod(odd, "()V", ACC_PUBLIC | ACC_STATIC, [("return",)])])))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"name": "odd", "timestamp": "2001-06-01",
                                  "application": [str(app)]}), encoding="utf-8")
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    failure = stage_failure(capsys.readouterr().err)
    assert failure == {"stage": "callgraph", "error": "SchemaViolation",
                       "detail": "method 'p/A.x\\x01y()V' holds character U+0001,"
                                 " which XML 1.0 cannot carry"}
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


@pytest.mark.parametrize("odd,twin", [
    ("x(y", None),
    ("b.c", "p/A.b"),  # p/A.b.c()V is also method c of class p/A.b
], ids=["paren-in-name", "dot-in-name-collides"])
def test_build_rejects_method_text_that_reads_back_as_another_method(tmp_path, capsys,
                                                                     odd, twin):
    app = tmp_path / "app"
    (app / "p").mkdir(parents=True)
    calls = [("invokestatic", "p/A", odd, "()V")]
    if twin is not None:
        calls.append(("invokestatic", twin, "c", "()V"))
        (app / "p" / "A.b.class").write_bytes(assemble_class(AsmClass(twin, methods=[
            AsmMethod("c", "()V", ACC_PUBLIC | ACC_STATIC, [("return",)])])))
    (app / "p" / "A.class").write_bytes(assemble_class(AsmClass("p/A", methods=[
        AsmMethod("main", "([Ljava/lang/String;)V", ACC_PUBLIC | ACC_STATIC,
                  calls + [("return",)]),
        AsmMethod(odd, "()V", ACC_PUBLIC | ACC_STATIC, [("return",)])])))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"name": "odd", "timestamp": "2001-06-01",
                                  "application": [str(app)]}), encoding="utf-8")
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    failure = stage_failure(capsys.readouterr().err)
    assert failure == {"stage": "callgraph", "error": "SchemaViolation",
                       "detail": f"method {odd!r} of class 'p/A' is written as"
                                 f" 'p/A.{odd}()V', which reads back as another method"}
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


def test_build_missing_input_is_an_io_failure(corpus, tmp_path, capsys):
    for missing in (tmp_path / "missing", tmp_path / ("x" * 300)):  # absent, over-long
        config = write_config(tmp_path / "c.json", corpus, application=[str(missing)])
        assert main(["build", "--config", str(config), "--out", str(tmp_path / "proj")]) == 1
        assert stage_failure(capsys.readouterr().err) == {
            "stage": "inputs", "error": "IoFailure",
            "detail": f"input does not exist: {missing}"}


def test_build_rejects_invoke_naming_a_field(tmp_path, capsys):
    app = tmp_path / "app"
    (app / "p").mkdir(parents=True)
    data, _, _ = wrong_kind_class(("getstatic", "p/Main", "f", "I"), 0xB8)
    (app / "p" / "Main.class").write_bytes(data)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"name": "odd", "timestamp": "2001-06-01",
                                  "application": [str(app)]}), encoding="utf-8")
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    failure = stage_failure(capsys.readouterr().err)
    assert (failure["stage"], failure["error"]) == ("hierarchy", "MalformedClassFile")
    assert "holds Fieldref, expected a method reference" in failure["detail"]
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


def write_superclass_cycle(container: Path) -> None:
    """Classes p/A and p/B, each the other's superclass; p/A has a main."""
    (container / "p").mkdir(parents=True, exist_ok=True)
    (container / "p" / "A.class").write_bytes(assemble_class(AsmClass("p/A", "p/B", methods=[
        AsmMethod("main", "([Ljava/lang/String;)V", ACC_PUBLIC | ACC_STATIC, [("return",)])])))
    (container / "p" / "B.class").write_bytes(assemble_class(AsmClass("p/B", "p/A")))


def test_superclass_cycle_fails_build_at_hierarchy_and_validate_at_code_model(
        corpus, hierarchy, tmp_path, capsys):
    app = tmp_path / "app"
    write_superclass_cycle(app)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"name": "odd", "timestamp": "2001-06-01",
                                  "application": [str(app)]}), encoding="utf-8")
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    failure = stage_failure(capsys.readouterr().err)
    assert (failure["stage"], failure["error"]) == ("hierarchy", "MalformedClassFile")
    assert failure["detail"].startswith("class p/A is its own superclass: p/A -> p/B -> p/A")
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()

    bundle = build_bundle(corpus, hierarchy, tmp_path / "bundle")
    write_superclass_cycle(read_project_file(bundle).binaries_dir)
    assert main(["validate", str(bundle)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [(l["level"], l["code"]) for l in lines[:-1]] == [("violation", "CodeModel")]
    assert "class p/A is its own superclass: p/A -> p/B -> p/A" in lines[0]["detail"]


def write_container(container: Path, class_names: tuple[str, ...]) -> None:
    """A jar (by suffix) or directory holding empty classes of these names."""
    container.parent.mkdir(parents=True, exist_ok=True)
    if container.suffix == ".jar":
        with zipfile.ZipFile(container, "w") as zf:
            for name in class_names:
                zf.writestr(f"{name}.class", assemble_class(AsmClass(name)))
        return
    for name in class_names:
        (container / name).parent.mkdir(parents=True, exist_ok=True)
        (container / f"{name}.class").write_bytes(assemble_class(AsmClass(name)))


@pytest.mark.parametrize("container,written", [("app.jar", "app.jar"),
                                               ("classes", "p/A.class")])
def test_build_rejects_containers_that_collide_in_the_bundle(corpus, tmp_path, capsys,
                                                             container, written):
    first, second = tmp_path / "d1" / container, tmp_path / "d2" / container
    write_container(first, ("p/A", "p/B"))
    write_container(second, ("p/A", "p/C"))
    application = [str(corpus.paths["application"]), str(first), str(second)]
    config = write_config(tmp_path / "c.json", corpus, application=application)
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    failure = stage_failure(capsys.readouterr().err)
    assert (failure["stage"], failure["error"]) == ("copy", "IoFailure")
    assert failure["detail"] == f"containers {first} and {second} both write {written}"
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


def flip_last_byte(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


# ways to damage a built project between its build and its verify step
CORRUPTIONS = {
    "callgraph": lambda root: (root / LAYOUT["callgraph"]).write_bytes(b"<callgraph"),
    "gui-model": lambda root: (root / LAYOUT["gui"]).write_bytes(b"<gui/>"),
    "ripper-copy": lambda root: flip_last_byte(root / LAYOUT["external_gui"]),
    "metrics": lambda root: (root / LAYOUT["metrics"]).write_bytes(
        (root / LAYOUT["metrics"]).read_bytes().replace(b"1.0,2001-06-01", b"9.9,1999-01-01")),
    "project-file": lambda root: (root / "project.xml").write_bytes(b"<project"),
    "bin-class": lambda root: flip_last_byte(min((root / LAYOUT["binaries"]).rglob("*.class"))),
    "lib-jar": lambda root: next((root / LAYOUT["libraries"]).glob("*.jar")).write_bytes(b"zip?"),
    "deleted-gui-model": lambda root: (root / LAYOUT["gui"]).unlink(),
}


def test_build_fails_verify_when_callgraph_is_corrupted_on_disk(inputs, tmp_path,
                                                                monkeypatch, capsys):
    for name, corrupt in CORRUPTIONS.items():
        def build_then_corrupt(config, root, _original=apprepo.cli._build_into):
            written = _original(config, root)
            corrupt(root)
            return written

        monkeypatch.setattr(apprepo.cli, "_build_into", build_then_corrupt)
        out = tmp_path / "proj"
        assert main(["build", "--config", str(inputs), "--out", str(out)]) == 1, name
        failure = stage_failure(capsys.readouterr().err)
        assert (failure["stage"], failure["error"]) == ("verify", "SchemaViolation"), name
        assert not out.exists(), name
        assert not (tmp_path / "proj.building").exists(), name
        monkeypatch.undo()


def test_build_rejects_malformed_entry_point_before_any_work(corpus, tmp_path, capsys,
                                                           monkeypatch):
    calls = record_reader_calls(monkeypatch)
    copies = []
    monkeypatch.setattr(apprepo.cli, "_copy_containers", lambda *args: copies.append(args))
    config = write_config(tmp_path / "c.json", corpus,
                          entry_points=["fix/Main2.main([Ljava/lang/String;)V", "fix/Main1"])
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert ("key 'entry_points': not a method reference: 'fix/Main1',"
            " expected class.name(descriptor)") in capsys.readouterr().err
    assert copies == [] and not any(calls.values())
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


def test_build_without_gui_warns(corpus, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", corpus)
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert any(line.startswith("WARNING ") and "GUI" in line
               for line in capsys.readouterr().err.splitlines())
    project = load_project(out / "project.xml")
    assert project.gui_model_path is None
    rows = parse_version_csv((out / "metrics.csv").read_text())
    assert (rows[0].widgets, rows[0].windows) == (0, 0)


def test_build_rejects_output_inside_input(corpus, tmp_path):
    config = write_config(tmp_path / "c.json", corpus)
    out = corpus.paths["application"] / "nested"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()


def test_build_out_too_long_for_its_temporary_name_is_a_stage_failure(corpus, tmp_path,
                                                                     capsys):
    # the build writes into "<out>.building" first: 259 bytes, over the file system's limit
    config = write_config(tmp_path / "c.json", corpus)
    out = tmp_path / "out" / ("y" * 250)
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    failure = stage_failure(capsys.readouterr().err)
    assert (failure["stage"], failure["error"]) == ("copy", "IoFailure")
    assert not os.path.lexists(tmp_path / "out")  # the build made it, and took it away


def test_build_entry_override(corpus, tmp_path):
    config = write_config(tmp_path / "c.json", corpus,
                          entry_points=["fix/Main1.main([Ljava/lang/String;)V"])
    out = tmp_path / "proj"
    rc = main(["build", "--config", str(config), "--out", str(out)])
    assert rc == 0
    text = (out / "callgraph" / "callgraph.xml").read_text()
    assert "fix/Main1.main" in text
    assert "fix/Circle.area" not in text  # Main2's world is absent


def test_build_auto_entries(corpus, tmp_path):
    config = write_config(tmp_path / "c.json", corpus, entry_points="auto")
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "callgraph" / "callgraph.xml").read_text()
    for main_class in ("fix/App", "fix/Main1", "fix/Main2", "fix/Main3"):
        assert f'{main_class}.main' in text


def test_build_takes_the_project_directory_from_out_only(corpus, tmp_path):
    elsewhere = tmp_path / "elsewhere"
    config = write_config(tmp_path / "c.json", corpus, output=str(elsewhere))
    with pytest.raises(SystemExit) as err:
        main(["build", "--config", str(config)])
    assert err.value.code == 2
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "project.xml").is_file()
    assert not elsewhere.exists()


@pytest.mark.parametrize("key,value", [
    (None, ["not", "an", "object"]),
    ("application", "app"), ("library", [5]), ("framework", None),
    ("sources", 5), ("external_gui", ["gui.xml"]), ("timestamp", 5),
    ("entry_points", 5), ("entry_points", "main"), ("entry_points", [None]),
])
def test_build_rejects_config_values_of_the_wrong_type(corpus, tmp_path, capsys, key, value):
    config = tmp_path / "c.json"
    if key is None:
        config.write_text(json.dumps(value), encoding="utf-8")
    else:
        write_config(config, corpus, **{key: value})
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert (f"key {key!r}" if key else "must be a JSON object") in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


def test_build_rejects_container_listed_in_two_components(corpus, tmp_path, capsys):
    both = str(corpus.paths["application"])
    config = write_config(tmp_path / "c.json", corpus, library=[both], application=[both])
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert "listed in both library and application" in capsys.readouterr().err
    assert not out.exists()


def test_build_unreadable_config(tmp_path):
    assert main(["build", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "p")]) == 2


@pytest.mark.parametrize("key,value", [("name", "odd\ud800"), ("version", "1\ud800"),
                                       ("version", 1.5), ("name", ""),
                                       ("name", "odd\u0001name"), ("version", "1\ufffe")])
def test_build_rejects_config_text_utf8_cannot_encode(corpus, tmp_path, capsys, key, value):
    config = write_config(tmp_path / "c.json", corpus, **{key: value})
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


@pytest.mark.parametrize("label", ["1\n2 | 3", "1\r", "\u20281"])
def test_build_rejects_a_version_label_with_a_line_break(corpus, tmp_path, capsys, label):
    config = write_config(tmp_path / "c.json", corpus, version=label)
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert f"key 'version' must be one line, got {label!r}" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "proj.building").exists()


@pytest.mark.parametrize("label", ["1&#10;2 | 3", "1&#13;", "\u20281"])
def test_report_skips_a_bundle_whose_version_label_breaks_its_line(corpus, hierarchy,
                                                                   tmp_path, capsys, label):
    """A hand-edited label with a line break would split its table row."""
    from datetime import date
    repo = tmp_path / "repo"
    build_bundle(corpus, hierarchy, repo / "good", version="1.0", timestamp=date(2001, 1, 1))
    edited = build_bundle(corpus, hierarchy, repo / "edited", version="2.0",
                          timestamp=date(2002, 2, 2))
    edited.write_text(edited.read_text(encoding="utf-8").replace('version="2.0"',
                                                                 f'version="{label}"'),
                      encoding="utf-8")
    assert main(["report", str(repo)]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3  # header, separator, one row
    skipped = [line for line in err.splitlines() if line.startswith("WARNING skipping edited")]
    assert len(skipped) == 1 and "version label must be one line" in skipped[0]
    assert main(["validate", str(edited)]) == 2


def test_build_bad_external_gui_fails_atomically(corpus, tmp_path):
    bad_gui = tmp_path / "bad.xml"
    bad_gui.write_text("<GUIStructure><GUI></GUI></GUIStructure>")
    config = write_config(tmp_path / "c.json", corpus, gui_path=bad_gui)
    out = tmp_path / "proj"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert not any(tmp_path.glob("*.building"))


# --- validate -----------------------------------------------------------------

def test_validate_ok_bundle(corpus, hierarchy, tmp_path, capsys):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    assert main(["validate", str(bundle)]) == 0
    out_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    summary = out_lines[-1]
    assert summary["violations"] == 0
    assert summary["handlers"] == "1 resolved / 0 unresolved"


def test_validate_duplicate_ids(corpus, hierarchy, tmp_path, capsys):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    gui = read_project_file(bundle).gui_model_path
    gui.write_bytes(gui.read_bytes().replace(b'id="lbl"', b'id="ok"'))
    assert main(["validate", str(bundle)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    dup = [l for l in lines if l.get("code") == "DuplicateId"]
    assert len(dup) == 1


@pytest.mark.parametrize("where", ["binaries_dir", "libraries_dir"])
def test_validate_reports_corrupt_jar(corpus, hierarchy, tmp_path, capsys, where):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    (getattr(read_project_file(bundle), where) / "broken.jar").write_bytes(b"not a zip")
    assert main(["validate", str(bundle)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [(l["level"], l["code"]) for l in lines[:-1]] == [("violation", "CodeModel")]
    assert "broken.jar" in lines[0]["detail"]
    assert lines[-1]["level"] == "summary"
    assert lines[-1]["violations"] == 1


def test_validate_missing_project_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.xml")]) == 2


def test_validate_garbage_project_file(tmp_path):
    bad = tmp_path / "project.xml"
    bad.write_text("this is not xml <<<")
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize("encoding", ["UTF-x", "cp932", "undefined"])
def test_validate_project_file_with_unusable_encoding(corpus, hierarchy, tmp_path, encoding):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    text = bundle.read_text(encoding="utf-8").replace('encoding="UTF-8"',
                                                      f'encoding="{encoding}"')
    bundle.write_text(text, encoding="utf-8")
    assert main(["validate", str(bundle)]) == 2


# --- report -----------------------------------------------------------------

def test_report_three_projects_sorted(corpus, hierarchy, tmp_path, capsys):
    from datetime import date
    repo = tmp_path / "repo"
    build_bundle(corpus, hierarchy, repo / "v2", name="app", version="2.0",
                 timestamp=date(2002, 2, 2))
    build_bundle(corpus, hierarchy, repo / "v1", name="app", version="1.0",
                 timestamp=date(2001, 1, 1))
    build_bundle(corpus, hierarchy, repo / "v3", name="app", version="3.0",
                 timestamp=date(2003, 3, 3))
    assert main(["report", str(repo)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split(" | ")[0].strip() == "Version"
    data = [l.split(" | ")[0].strip() for l in lines[2:]]
    assert data == ["1.0", "2.0", "3.0"]


def test_report_csv(corpus, hierarchy, tmp_path, capsys):
    from datetime import date
    repo = tmp_path / "repo"
    build_bundle(corpus, hierarchy, repo / "v1", version="1.0",
                 timestamp=date(2001, 1, 1))
    assert main(["report", str(repo), "--csv"]) == 0
    out = capsys.readouterr().out
    rows = parse_version_csv(out)
    assert rows[0].version_label == "1.0"
    assert rows[0].classes == 14
    assert rows[0].loc == SOURCES_LOC


def test_report_empty_root(tmp_path, capsys):
    (tmp_path / "repo").mkdir()
    assert main(["report", str(tmp_path / "repo")]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("Version")
    assert len(out.splitlines()) == 2


def test_report_skips_corrupt_project(corpus, hierarchy, tmp_path, capsys):
    from datetime import date
    repo = tmp_path / "repo"
    build_bundle(corpus, hierarchy, repo / "good", version="1.0",
                 timestamp=date(2001, 1, 1))
    corrupt = repo / "corrupt"
    corrupt.mkdir(parents=True)
    (corrupt / "project.xml").write_text("<project broken")
    assert main(["report", str(repo)]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3  # header + separator + one row
    assert any(line.startswith("WARNING skipping") for line in err.splitlines())


def test_report_missing_root(tmp_path):
    assert main(["report", str(tmp_path / "ghost")]) == 2
    assert main(["report", str(tmp_path / ("x" * 300))]) == 2  # over-long: absent too


def test_an_in_process_run_leaves_the_root_logger_as_it_found_it(tmp_path, capsys,
                                                                 monkeypatch):
    import logging
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])  # as in a caller that configured none
    level = root.level
    try:
        assert main(["validate", str(tmp_path / "nope.xml")]) == 2
        after = (list(root.handlers), root.level)
    finally:
        root.setLevel(level)
    assert after == ([], level)
    assert capsys.readouterr().err.startswith("ERROR unreadable project file: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# --- the console entry -------------------------------------------------------

SRC = Path(apprepo.cli.__file__).resolve().parents[1]
# stdout buffered, as it is by default when it is not a terminal, so that the
# output reaches the reader only through the flush before the exit
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": str(SRC)}


def run_apprepo(*args: str, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m apprepo`` in a fresh interpreter, as the console script runs it."""
    return subprocess.run([sys.executable, "-m", "apprepo", *args], stdout=stdout,
                          stderr=stderr, text=True, timeout=120, env=CHILD_ENV)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command pays for its imports; inspect alone brings ast and dis
    code = ("import sys, apprepo.cli; print(sorted("
            "{'dataclasses', 'inspect', 'logging', 'traceback'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_console_entry_exits_with_the_code_of_main_and_complete_output(corpus, hierarchy,
                                                                       tmp_path):
    good = build_bundle(corpus, hierarchy, tmp_path / "good")
    bad = build_bundle(corpus, hierarchy, tmp_path / "bad")
    gui = read_project_file(bad).gui_model_path
    gui.write_bytes(gui.read_bytes().replace(b'id="lbl"', b'id="ok"'))
    for bundle, code, violations in ((good, 0, 0), (bad, 1, 1)):
        done = run_apprepo("validate", str(bundle))
        assert done.returncode == code, done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        assert done.stdout.endswith("\n") and len(records) == violations + 1
        assert records[-1]["level"] == "summary"
        assert records[-1]["violations"] == violations
        assert done.stderr.endswith(" unresolved\n")
        assert done.stderr.splitlines()[-1].startswith(f"INFO demo: {violations} violation(s)")
    done = run_apprepo("validate", str(tmp_path / "nope.xml"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("ERROR unreadable project file: ")
    assert done.stderr.endswith("\n") and done.stderr.count("\n") == 1
    done = run_apprepo("report", str(tmp_path), "--csv")
    assert done.returncode == 0, done.stderr
    assert [row.version_label for row in parse_version_csv(done.stdout)] == ["1.0"]
    assert "skipping bad" in done.stderr
    done = run_apprepo("frobnicate")
    assert done.returncode == 2 and "invalid choice" in done.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_console_entry_exits_non_zero_when_stdout_cannot_be_flushed(corpus, hierarchy,
                                                                    tmp_path):
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    with open("/dev/full", "w") as full:
        done = run_apprepo("validate", str(bundle), stdout=full)
    assert done.returncode == 120


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_console_entry_writes_all_records_when_stderr_cannot_be_written(corpus, hierarchy,
                                                                         tmp_path):
    # a diagnostic line follows each record: one that raised would cut the records short
    bundle = build_bundle(corpus, hierarchy, tmp_path / "p")
    gui = read_project_file(bundle).gui_model_path
    gui.write_bytes(gui.read_bytes().replace(b'id="lbl"', b'id="ok"'))
    with open("/dev/full", "w") as full:
        done = run_apprepo("validate", str(bundle), stderr=full)
    assert done.returncode == 120
    levels = [json.loads(line)["level"] for line in done.stdout.splitlines()]
    assert levels == ["violation", "summary"]
