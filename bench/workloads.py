"""The three benchmark workloads: seeded inputs laid out as apprepo expects.

Each ``prepare_*`` function generates a corpus from the seed, compiles it
with one ``javac --release 8`` run, packs the framework and library as
jars and writes one pipeline config per application version. It returns
a :class:`Prepared` describing the inputs, the commands the measured loop
runs and the generator's reference values the checks compare against.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from corpus import (
    Corpus,
    FrameworkShape,
    Version,
    compile_corpus,
    copy_classes,
    copy_sources,
    evolving_app,
    framework,
    library_class,
    ripper_document,
    swing_app,
    write_jar,
    WORDS,
)


@dataclass
class Snapshot:
    """One version's inputs and the reference values of its bundle."""

    version: Version
    config: Path
    out: Path
    classes: int
    loc: int
    edges: set[tuple[str, str]]

    @property
    def windows(self) -> int:
        return len(self.version.windows)

    @property
    def metrics_row(self) -> dict[str, str]:
        v = self.version
        return {"version": v.label, "timestamp": v.timestamp, "classes": str(self.classes),
                "loc": str(self.loc), "widgets": str(v.widgets), "windows": str(self.windows)}


@dataclass
class Prepared:
    work: Path
    snapshots: list[Snapshot]
    shape: dict = field(default_factory=dict)

    @property
    def repo(self) -> Path:
        return self.work / "repo"


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def _layout(corpus: Corpus, work: Path, name: str) -> Prepared:
    """Compile, pack jars and write one config per version."""
    src, classes = compile_corpus(corpus, work)
    inputs = work / "inputs"
    framework_jars = []
    for jar, names in corpus.framework.items():
        write_jar(inputs / "framework" / jar, classes, names)
        framework_jars.append(f"framework/{jar}")
    library_jars = []
    for jar, names in corpus.library.items():
        write_jar(inputs / "lib" / jar, classes, names)
        library_jars.append(f"lib/{jar}")
    snapshots = []
    for v in corpus.versions:
        vdir = inputs / f"v{v.label}"
        copy_classes(vdir / "classes", classes, v.app_classes)
        loc = copy_sources(vdir / "src", src, corpus, v.app_classes)
        (vdir / "ripper.xml").write_text(ripper_document(v.windows), encoding="ascii")
        config = inputs / f"v{v.label}.json"
        config.write_text(json.dumps({
            "name": name, "version": v.label, "timestamp": v.timestamp,
            "framework": framework_jars, "library": library_jars,
            "application": [f"v{v.label}/classes"], "sources": f"v{v.label}/src",
            "external_gui": f"v{v.label}/ripper.xml", "entry_points": v.entry_points,
        }, indent=2), encoding="ascii")
        snapshots.append(Snapshot(v, config, work / "repo" / f"v{v.label}",
                                  corpus.class_file_count(v.app_classes), loc,
                                  corpus.version_edges(v)))
    shutil.rmtree(src)
    shutil.rmtree(classes)
    jar_classes = {jar: len(names) for jar, names in
                   {**corpus.framework, **corpus.library}.items()}
    class_bytes = sum(p.stat().st_size for p in inputs.rglob("*.class"))
    class_bytes += sum(p.stat().st_size for p in inputs.rglob("*.jar"))
    newest = snapshots[-1]
    shape = {
        "classes_per_partition": {
            "framework": sum(len(n) for n in corpus.framework.values()),
            "library": sum(len(n) for n in corpus.library.values()),
            "application": newest.classes,
        },
        "classes_per_jar": jar_classes,
        "class_and_jar_bytes": class_bytes,
        "versions": len(snapshots),
        "ripper_widgets": newest.version.widgets,
        "ripper_windows": newest.windows,
        "generator_edges": len(newest.edges),
    }
    return Prepared(work, snapshots, shape)


def prepare_swing_build(work: Path, seed: int, scale: float) -> Prepared:
    """A deep, fat, megamorphic Swing-like framework jar plus a GUI app."""
    rng = random.Random(seed)
    corpus = Corpus()
    shape = FrameworkShape(classes=_scaled(240, scale, 8), levels=10, overrides=4,
                           helpers=3, helper_lines=1, listener_share=0.1)
    components = framework(corpus, shape, rng)
    app = swing_app(corpus, components, rng, handlers=_scaled(12, scale, 2),
                    panels=_scaled(10, scale, 1), windows=_scaled(4, scale, 1),
                    widgets_per_window=20)
    corpus.framework["swing.jar"] = [n for n in corpus.classes if n.startswith("sw/")]
    corpus.versions.append(app)
    return _layout(corpus, work, "swing-app")


def prepare_library_build(work: Path, seed: int, scale: float) -> Prepared:
    """A small app over wide library jars with repeated class names."""
    rng = random.Random(seed)
    corpus = Corpus()
    components = framework(corpus, FrameworkShape(classes=4, levels=2, overrides=2,
                                                  helpers=1, helper_lines=1,
                                                  listener_share=0.0), rng)
    groups = ("util", "codec", "table")
    per_group = _scaled(35, scale, 4)
    by_group: dict[str, list[str]] = {}
    for group in groups:
        by_group[group] = [library_class(corpus, f"org/{group}/{rng.choice(WORDS)}{i}",
                                         rng, methods=12, cases=8).name
                           for i in range(per_group)]
    entries = [rng.choice(by_group[g]) for g in groups]
    calls = tuple(
        (f"new {n.replace('/', '.')}().op0(args.length);", n, m, d)
        for n in entries for m, d in (("<init>", "()V"), ("op0", "(I)I")))
    app = swing_app(corpus, components, rng, handlers=3, panels=2, windows=1,
                    widgets_per_window=8, main_calls=calls)
    sw = [n for n in corpus.classes if n.startswith("sw/")]
    # shaded copies: some library classes repeat in a second library jar
    # and in the framework jar, so the hierarchy shadows them
    repeated = rng.sample(by_group["codec"], max(1, per_group // 10))
    corpus.framework["runtime.jar"] = sw + rng.sample(by_group["util"], max(1, per_group // 20))
    for group in groups:
        extra = repeated if group == "table" else []
        corpus.library[f"{group}.jar"] = by_group[group] + extra
    corpus.versions.append(app)
    return _layout(corpus, work, "library-app")


def prepare_repo_report(work: Path, seed: int, scale: float) -> Prepared:
    """Eight versions of an evolving GUI app over one framework and library."""
    rng = random.Random(seed)
    corpus = Corpus()
    components = framework(corpus, FrameworkShape(classes=_scaled(16, scale, 6), levels=4,
                                                  overrides=2, helpers=2, helper_lines=2,
                                                  listener_share=0.1), rng)
    library = [library_class(corpus, f"org/util/{rng.choice(WORDS)}{i}", rng,
                             methods=8, cases=6).name
               for i in range(_scaled(8, scale, 2))]
    corpus.versions = evolving_app(corpus, components, rng, modules=_scaled(16, scale, 8),
                                   versions=8, handlers_per_module=2, widgets_per_window=12)
    corpus.framework["swing.jar"] = [n for n in corpus.classes if n.startswith("sw/")]
    corpus.library["util.jar"] = library
    return _layout(corpus, work, "evolving-app")


WORKLOADS = {
    "swing-build": prepare_swing_build,
    "library-build": prepare_library_build,
    "repo-report": prepare_repo_report,
}
