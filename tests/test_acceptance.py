"""Acceptance suite: one test per acceptance criterion.

Each criterion prints one ``ACCEPTANCE n ...: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output). Criteria with a runtime
budget enforce it with a wall-clock assertion.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from apprepo.callgraph import build_callgraph, parse_callgraph, resolve_targets, serialize_callgraph
from apprepo.classfile import MethodRef, parse_class, parse_descriptor
from apprepo.cli import main
from apprepo.errors import SchemaViolation
from apprepo.guimodel import load_gui, persist_gui
from apprepo.metrics import count_loc_text, version_table

from classasm import assemble_class
from generators import random_callgraph, random_gui_model, random_hierarchy, random_site_args
from interp import TraceInterpreter
from oracle_cha import oracle_resolve
from test_metrics import FREEMIND_ROW, JEDIT_ROW, LOC_CORPUS
from bundles import ripper_document, write_sources
from test_cli import write_config

MAIN_DESC = "([Ljava/lang/String;)V"


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({title}): PASS in {elapsed:.2f}s", flush=True)


def test_criterion_1_classfile_parsing_fidelity(corpus):
    with criterion(1, "class-file parsing fidelity"):
        specs = corpus.all_specs()
        assert len(specs) >= 10
        # coverage: interfaces, inheritance, inner classes, five invoke kinds
        assert any(s.flags & 0x0200 for s in specs)
        assert any(s.super_name not in (None, "java/lang/Object") for s in specs)
        assert any("$" in s.name for s in specs)
        all_ops = {m for s in specs for meth in s.methods for m in meth.mnemonics()}
        assert {"invokestatic", "invokespecial", "invokevirtual",
                "invokeinterface", "invokedynamic"} <= all_ops

        start = time.perf_counter()
        for spec in specs:
            cf = parse_class(assemble_class(spec))
            assert len(cf.methods) == len(spec.methods), spec.name
            for parsed, want in zip(cf.methods.values(), spec.methods):
                assert (parsed.name, parsed.descriptor) == (want.name, want.desc)
                parse_descriptor(parsed.descriptor)
                assert [i.mnemonic for i in parsed.instructions] == want.mnemonics()
                assert parsed.line_numbers == tuple(want.lines)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_cha_oracle_equivalence():
    with criterion(2, "CHA oracle equivalence"):
        hierarchies = 0
        resolutions = 0
        for seed in range(150):
            rng = random.Random(seed)
            h = random_hierarchy(rng, max_classes=50)
            hierarchies += 1
            for _ in range(10):
                kind, declared = random_site_args(rng, h)
                got = resolve_targets(kind, declared, h)
                want = oracle_resolve(kind, declared, h.classes)
                assert got == want, f"seed={seed} {kind} {declared.text}"
                resolutions += 1
        assert hierarchies >= 100
        assert resolutions >= 1000


def test_criterion_3_over_approximation(hierarchy):
    with criterion(3, "over-approximation of dynamic traces"):
        start = time.perf_counter()
        checked = 0
        for main_class in ("fix/Main1", "fix/Main2", "fix/Main3"):
            graph = build_callgraph(hierarchy,
                                    {MethodRef(main_class, "main", MAIN_DESC)})
            static_edges = {(c.text, t.text) for c, t in graph.edges}
            trace = TraceInterpreter(hierarchy).run_main(main_class)
            invoke_edges = [(c, t) for c, t, kind in trace
                            if kind not in ("dynamic", "clinit")]
            assert invoke_edges
            for edge in invoke_edges:
                assert edge in static_edges, f"{main_class}: missing {edge}"
                checked += 1
        assert checked >= 20
        assert time.perf_counter() - start < 5.0


def test_criterion_4_round_trip_determinism():
    with criterion(4, "round-trip determinism"):
        graph_instances = 0
        for seed in range(55):
            graph = random_callgraph(random.Random(1000 + seed))
            doc = serialize_callgraph(graph)
            assert parse_callgraph(doc) == graph
            assert serialize_callgraph(graph) == doc
            assert serialize_callgraph(parse_callgraph(doc)) == doc
            graph_instances += 1
        gui_instances = 0
        for seed in range(55):
            model = random_gui_model(random.Random(2000 + seed))
            doc = persist_gui(model)
            assert load_gui(doc) == model
            assert persist_gui(model) == doc
            assert persist_gui(load_gui(doc)) == doc
            gui_instances += 1
        assert graph_instances >= 50 and gui_instances >= 50


def test_criterion_5_duplicate_id_safeguard():
    with criterion(5, "duplicate-id safeguard"):
        rejected = 0
        attempts = 0
        for seed in range(200):
            rng = random.Random(3000 + seed)
            model = random_gui_model(rng)
            ids = [e.id for e, _, _ in model.walk()]
            if len(ids) < 2:
                continue
            victim, donor = rng.sample(ids, 2)
            doc = persist_gui(model)
            mutated = doc.replace(f'id="{victim}"'.encode(), f'id="{donor}"'.encode(), 1)
            assert mutated != doc
            attempts += 1
            with pytest.raises(SchemaViolation) as err:
                load_gui(mutated)
            assert any(v.code == "DuplicateId" for v in err.value.violations), seed
            rejected += 1
        assert attempts >= 50
        assert rejected == attempts  # 100% rejection


def test_criterion_6_loc_rule(tmp_path):
    with criterion(6, "LOC counting rule"):
        assert len(LOC_CORPUS) == 12
        for name, content, expected in LOC_CORPUS:
            assert count_loc_text(content) == expected, name
        from apprepo.metrics import count_loc
        for name, content, _ in LOC_CORPUS:
            (tmp_path / name).write_text(content, encoding="utf-8")
        assert count_loc(tmp_path) == sum(c[2] for c in LOC_CORPUS)


def test_criterion_7_table_emission():
    with criterion(7, "version table emission"):
        for row, loc_width in ((FREEMIND_ROW, 4), (JEDIT_ROW, 5)):
            table = version_table([row])
            assert version_table([row]) == table  # byte-deterministic
            lines = table.splitlines()
            header = [c.strip() for c in lines[0].split("|")]
            assert header == ["Version", "CVS Timestamp", "Classes", "LOC",
                              "Widgets", "Windows"]
            cells = [c.strip() for c in lines[2].split("|")]
            assert cells == [row.version_label,
                             row.timestamp.strftime("%d.%m.%Y"),
                             str(row.classes), str(row.loc),
                             str(row.widgets), str(row.windows)]
        combined = version_table([JEDIT_ROW, FREEMIND_ROW])
        assert combined == version_table([JEDIT_ROW, FREEMIND_ROW])
        assert combined.splitlines()[2].split("|")[0].strip() == "2.3pre2"


def test_criterion_8_end_to_end(corpus, tmp_path, capsys):
    with criterion(8, "end-to-end pipeline"):
        start = time.perf_counter()
        sources = tmp_path / "sources"
        write_sources(sources)
        gui = tmp_path / "ripped.xml"
        gui.write_text(ripper_document(), encoding="utf-8")
        config = write_config(tmp_path / "config.json", corpus, sources, gui)

        out1, out2 = tmp_path / "proj1", tmp_path / "proj2"
        assert main(["build", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["validate", str(out1 / "project.xml")]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["violations"] == 0

        assert main(["build", "--config", str(config), "--out", str(out2)]) == 0
        files1 = {str(p.relative_to(out1)): p.read_bytes()
                  for p in sorted(out1.rglob("*")) if p.is_file()}
        files2 = {str(p.relative_to(out2)): p.read_bytes()
                  for p in sorted(out2.rglob("*")) if p.is_file()}
        assert files1 == files2 and files1
        assert time.perf_counter() - start < 10.0
