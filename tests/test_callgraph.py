"""Hierarchy construction, CHA resolution and graph building."""

import random
from collections import Counter

import pytest

import apprepo.callgraph
from apprepo.callgraph import (
    ClassHierarchy,
    ClasspathPartition,
    build_callgraph,
    build_hierarchy,
    find_main_entries,
    hierarchy_from_classes,
    resolve_targets,
    serialize_callgraph,
)
from apprepo.classfile import MethodRef, parse_class
from apprepo.errors import (
    ContainerUnreadable,
    EntryPointMissing,
    MalformedClassFile,
    SchemaViolation,
    TargetClassMissing,
)

from classasm import ACC_PUBLIC, ACC_STATIC, AsmClass, AsmMethod, assemble_class
from generators import APP, callgraph_of, random_hierarchy, random_site_args
from oracle_cha import invoke_sites, oracle_resolve

MAIN_DESC = "([Ljava/lang/String;)V"


def site(kind: str, cls: str, name: str, desc: str) -> tuple[str, MethodRef]:
    return kind, MethodRef(cls, name, desc)


# --- hierarchy -------------------------------------------------------------

def test_hierarchy_contains_all_classes(corpus, hierarchy):
    expected = {spec.name for spec in corpus.all_specs()}
    assert set(hierarchy.classes) == expected


def test_subtypes_exact_inverse_of_declarations(hierarchy):
    # forward: every declaration appears in the map
    for name, cf in hierarchy.classes.items():
        parents = ([cf.super_name] if cf.super_name else []) + list(cf.interfaces)
        for parent in parents:
            assert name in hierarchy.subtypes[parent]
    # backward: every map entry is justified by a declaration
    for parent, subs in hierarchy.subtypes.items():
        for sub in subs:
            cf = hierarchy.classes[sub]
            assert cf.super_name == parent or parent in cf.interfaces


def test_single_class_hierarchy():
    data = assemble_class(AsmClass("solo/A", methods=[]))
    h = hierarchy_from_classes([parse_class(data)])
    assert set(h.classes) == {"solo/A"}
    assert h.subtypes.get("solo/A", set()) == set()
    assert "java/lang/Object" in h.externals


def test_subtype_map_from_declarations(hierarchy):
    assert hierarchy.subtypes["fix/Shape"] == {"fix/Circle", "fix/Square"}
    assert hierarchy.subtypes["fix/Base"] == {"fix/Mid"}
    assert hierarchy.subtypes["fix/Mid"] == {"fix/Leaf"}
    below_base = hierarchy.transitive_subtypes("fix/Base")
    assert below_base == {"fix/Mid", "fix/Leaf"} and isinstance(below_base, frozenset)
    assert hierarchy.transitive_subtypes("fix/Leaf") == frozenset()


def test_method_ref_is_a_plain_tuple():
    ref = MethodRef("p/A", "m", "(I)V")
    assert ref == ("p/A", "m", "(I)V")
    assert hash(ref) == hash(("p/A", "m", "(I)V"))
    assert str(ref) == ref.text == "p/A.m(I)V"
    assert MethodRef.from_text(ref.text) == ref
    with pytest.raises(ValueError, match="not a method reference"):
        MethodRef.from_text("p/A")


def test_duplicates_recorded_application_first(corpus, hierarchy):
    assert "fix/Dup" in hierarchy.duplicates
    providers = hierarchy.duplicates["fix/Dup"]
    assert providers == [str(corpus.paths["application"]), str(corpus.paths["library"])]
    # application version shadows the library one for parsing
    dup = hierarchy.classes["fix/Dup"]
    tag = dup.find_method("tag", "()I")
    assert [i.mnemonic for i in tag.instructions] == ["iconst_2", "ireturn"]


def test_unreadable_container():
    with pytest.raises(ContainerUnreadable):
        build_hierarchy(ClasspathPartition.of(application=["/nonexistent/nowhere"]))


def test_partition_lists_must_be_disjoint(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    with pytest.raises(ValueError, match="listed in both"):
        ClasspathPartition.of(library=[shared], application=[shared])


def test_malformed_class_annotated_with_container_and_entry(tmp_path):
    bad_dir = tmp_path / "app"
    bad_dir.mkdir()
    (bad_dir / "Broken.class").write_bytes(b"\xca\xfe\xba\xbe\x00\x00")
    with pytest.raises(MalformedClassFile) as err:
        build_hierarchy(ClasspathPartition.of(application=[bad_dir]))
    assert "Broken.class" in str(err.value)
    assert str(bad_dir) in str(err.value)


@pytest.mark.parametrize("supers,cycle", [
    ({"p/A": "p/A"}, "p/A -> p/A"),
    # p/C is walked first and leads into the cycle without being on it
    ({"p/C": "p/A", "p/A": "p/B", "p/B": "p/A"}, "p/A -> p/B -> p/A"),
], ids=["self", "through-another"])
def test_superclass_cycle_is_malformed(supers, cycle):
    # JVMS §5.3.5: a class that is its own superclass is a ClassCircularityError
    classes = [parse_class(assemble_class(AsmClass(name, super_name=parent)),
                           source=f"{name}.class") for name, parent in supers.items()]
    with pytest.raises(MalformedClassFile) as err:
        hierarchy_from_classes(classes)
    assert err.value.reason == f"class p/A is its own superclass: {cycle}"
    assert err.value.source == "p/A.class"


# --- origin classification ---------------------------------------------------

def test_classify_framework_only(hierarchy):
    assert hierarchy.origins["java/lang/Object"] == (True, False, False)


def test_classify_duplicate_library_and_application(hierarchy):
    assert hierarchy.origins["fix/Dup"] == (False, True, True)


def test_classify_absent(hierarchy):
    assert "no/Such" not in hierarchy.origins  # all flags false: external


def test_classify_application_only(hierarchy):
    assert hierarchy.origins["fix/Util"] == (False, False, True)


def test_origin_follows_declared_name_not_entry_path(tmp_path):
    app = tmp_path / "app"
    (app / "wrong").mkdir(parents=True)
    spec = AsmClass("app/Main", methods=[
        AsmMethod("main", MAIN_DESC, ACC_PUBLIC | ACC_STATIC, [("return",)])])
    (app / "wrong" / "Place.class").write_bytes(assemble_class(spec))
    h = build_hierarchy(ClasspathPartition.of(application=[app]))
    assert h.origins == {"app/Main": (False, False, True)}
    assert find_main_entries(h) == {MethodRef("app/Main", "main", MAIN_DESC)}


# --- resolution ---------------------------------------------------------------

def test_static_exact(hierarchy):
    targets = resolve_targets(*site("static", "fix/Util", "max", "(II)I"), hierarchy)
    assert targets == {MethodRef("fix/Util", "max", "(II)I")}


def test_static_inherited_walks_up(hierarchy):
    targets = resolve_targets(*site("special", "fix/Leaf", "midOnly", "()V"), hierarchy)
    assert targets == {MethodRef("fix/Mid", "midOnly", "()V")}


def test_virtual_fans_out_to_overrides(hierarchy):
    targets = resolve_targets(
        *site("virtual", "fix/Base", "speak", "()Ljava/lang/String;"), hierarchy)
    assert targets == {MethodRef("fix/Base", "speak", "()Ljava/lang/String;"),
                       MethodRef("fix/Leaf", "speak", "()Ljava/lang/String;")}


def test_virtual_on_intermediate_class(hierarchy):
    targets = resolve_targets(
        *site("virtual", "fix/Mid", "speak", "()Ljava/lang/String;"), hierarchy)
    assert targets == {MethodRef("fix/Base", "speak", "()Ljava/lang/String;"),
                       MethodRef("fix/Leaf", "speak", "()Ljava/lang/String;")}


def test_interface_call_resolves_implementers(hierarchy):
    targets = resolve_targets(*site("interface", "fix/Shape", "area", "()I"), hierarchy)
    assert targets == {MethodRef("fix/Shape", "area", "()I"),
                       MethodRef("fix/Circle", "area", "()I"),
                       MethodRef("fix/Square", "area", "()I")}


def test_virtual_no_subtypes_singleton(hierarchy):
    targets = resolve_targets(
        *site("virtual", "fix/Leaf", "speak", "()Ljava/lang/String;"), hierarchy)
    assert targets == {MethodRef("fix/Leaf", "speak", "()Ljava/lang/String;")}


def test_dynamic_resolves_to_nothing(hierarchy):
    assert resolve_targets(*site("dynamic", "fix/App", "bsm", "()V"), hierarchy) == set()


def test_missing_target_class(hierarchy):
    with pytest.raises(TargetClassMissing):
        resolve_targets(*site("virtual", "ghost/Nope", "m", "()V"), hierarchy)


def test_external_declared_class_kept_as_target(corpus):
    # drop the framework: java/lang/Object becomes a known external
    parsed = [parse_class(assemble_class(s)) for s in corpus.groups["application"]]
    h = hierarchy_from_classes(parsed)
    assert "java/lang/Object" in h.externals
    targets = resolve_targets(
        *site("virtual", "java/lang/Object", "toString", "()Ljava/lang/String;"), h)
    assert MethodRef("java/lang/Object", "toString", "()Ljava/lang/String;") in targets


def test_cha_matches_bruteforce_oracle_on_corpus(corpus, hierarchy):
    for spec in corpus.all_specs():
        cf = hierarchy.classes[spec.name]
        for s in invoke_sites(cf):
            got = resolve_targets(s.kind, s.declared_target, hierarchy)
            want = oracle_resolve(s.kind, s.declared_target, hierarchy.classes)
            assert got == want, f"{s.caller.text} @{s.offset}"


def test_cha_matches_bruteforce_oracle_randomized():
    cases = 0
    for seed in range(120):
        rng = random.Random(seed)
        h = random_hierarchy(rng)
        for _ in range(10):
            kind, declared = random_site_args(rng, h)
            got = resolve_targets(kind, declared, h)
            want = oracle_resolve(kind, declared, h.classes)
            assert got == want, f"seed={seed} {kind} {declared.text}"
            cases += 1
    assert cases >= 1000


def test_monotonicity_adding_override_never_removes_edges(corpus, hierarchy):
    entries = {MethodRef("fix/Main2", "main", MAIN_DESC)}
    before = build_callgraph(hierarchy, entries)
    extra = AsmClass("fix/ExtraLeaf", super_name="fix/Base", methods=[
        AsmMethod("<init>", "()V", ACC_PUBLIC, [
            ("aload_0",), ("invokespecial", "fix/Base", "<init>", "()V"), ("return",)]),
        AsmMethod("speak", "()Ljava/lang/String;", ACC_PUBLIC,
                  [("ldc_str", "extra"), ("areturn",)]),
    ])
    grown = hierarchy_from_classes(
        list(hierarchy.classes.values()) + [parse_class(assemble_class(extra))],
        origins={**hierarchy.origins, "fix/ExtraLeaf": (False, False, True)})
    after = build_callgraph(grown, entries)
    assert before.edges <= after.edges
    assert (MethodRef("fix/Main2", "main", MAIN_DESC),
            MethodRef("fix/ExtraLeaf", "speak", "()Ljava/lang/String;")) in after.edges


# --- graph building -------------------------------------------------------------

def test_empty_entries_empty_graph(hierarchy):
    graph = build_callgraph(hierarchy, set())
    assert graph.nodes == {}
    assert graph.edges == frozenset()


def test_static_chain_exact_edges(hierarchy):
    main = MethodRef("fix/Main1", "main", MAIN_DESC)
    graph = build_callgraph(hierarchy, {main})
    a = MethodRef("fix/Util", "a", "()V")
    b = MethodRef("fix/Util", "b", "()V")
    assert graph.edges == {(main, a), (a, b)}
    assert set(graph.nodes) == {main, a, b}
    assert graph.entry_points == {main}


def test_dispatch_includes_both_overrides(hierarchy):
    main = MethodRef("fix/Main2", "main", MAIN_DESC)
    graph = build_callgraph(hierarchy, {main})
    assert (main, MethodRef("fix/Circle", "area", "()I")) in graph.edges
    assert (main, MethodRef("fix/Square", "area", "()I")) in graph.edges
    greet = MethodRef("fix/Base", "greet", "()Ljava/lang/String;")
    assert (greet, MethodRef("fix/Base", "speak", "()Ljava/lang/String;")) in graph.edges
    assert (greet, MethodRef("fix/Leaf", "speak", "()Ljava/lang/String;")) in graph.edges


def test_closure_matches_bruteforce_closure(hierarchy):
    # independent worklist over oracle_resolve, ignoring class initializers
    main = MethodRef("fix/Main2", "main", MAIN_DESC)
    want_edges = set()
    seen = set()
    queue = [main]
    while queue:
        ref = queue.pop()
        if ref in seen:
            continue
        seen.add(ref)
        cf = hierarchy.classes.get(ref.in_class)
        if cf is None:
            continue
        for s in invoke_sites(cf):
            if s.caller != ref:
                continue
            for target in oracle_resolve(s.kind, s.declared_target, hierarchy.classes):
                want_edges.add((ref, target))
                queue.append(target)
    graph = build_callgraph(hierarchy, {main})
    assert graph.edges == want_edges


def test_closure_resolves_each_distinct_site_once(hierarchy, monkeypatch):
    resolved: Counter = Counter()

    def counted_resolve(kind, declared, *rest, _original=apprepo.callgraph._resolve_targets):
        resolved[kind, declared] += 1
        return _original(kind, declared, *rest)

    monkeypatch.setattr(apprepo.callgraph, "_resolve_targets", counted_resolve)
    graph = build_callgraph(hierarchy, find_main_entries(hierarchy))
    monkeypatch.undo()
    visited_sites = [s for ref in graph.nodes if ref.in_class in hierarchy.classes
                     for s in invoke_sites(hierarchy.classes[ref.in_class])
                     if s.caller == ref]
    distinct = {(s.kind, s.declared_target) for s in visited_sites}
    assert len(visited_sites) > len(distinct)  # some target is called from two sites
    assert set(resolved) == distinct
    assert set(resolved.values()) == {1}


def test_closure_walks_each_lookup_and_subtype_set_once(hierarchy, monkeypatch):
    lookups: Counter = Counter()
    walked_below: Counter = Counter()
    lookup, transitive_subtypes = ClassHierarchy.lookup, ClassHierarchy.transitive_subtypes

    def counted_lookup(h, *key):
        lookups[key] += 1
        return lookup(h, *key)

    def counted_subtypes(h, class_name):
        walked_below[class_name] += 1
        return transitive_subtypes(h, class_name)

    monkeypatch.setattr(ClassHierarchy, "lookup", counted_lookup)
    monkeypatch.setattr(ClassHierarchy, "transitive_subtypes", counted_subtypes)
    entries = find_main_entries(hierarchy)
    graph = build_callgraph(hierarchy, entries)
    assert lookups and walked_below
    assert set(lookups.values()) == {1} and set(walked_below.values()) == {1}
    # the answers die with the closure: a second one walks each again
    assert build_callgraph(hierarchy, entries) == graph
    assert set(lookups.values()) == {2} and set(walked_below.values()) == {2}
    # without them, resolving each distinct site asks some lookup twice
    lookups.clear()
    for kind, declared in {(s.kind, s.declared_target) for ref in graph.nodes
                           if ref.in_class in hierarchy.classes
                           for s in invoke_sites(hierarchy.classes[ref.in_class])
                           if s.caller == ref}:
        resolve_targets(kind, declared, hierarchy)
    assert max(lookups.values()) > 1


def test_clinit_becomes_entry_point(hierarchy):
    main = MethodRef("fix/Main3", "main", MAIN_DESC)
    graph = build_callgraph(hierarchy, {main})
    clinit = MethodRef("fix/Counter", "<clinit>", "()V")
    assert clinit in graph.entry_points
    assert (clinit, MethodRef("fix/Counter", "seed", "()I")) in graph.edges


def test_dynamic_sites_contribute_no_edges(hierarchy):
    main = MethodRef("fix/Main3", "main", MAIN_DESC)
    graph = build_callgraph(hierarchy, {main})
    for _, callee in graph.edges:
        assert callee.name != "bsm"
        assert callee.name != "run"


def test_entry_point_missing(hierarchy):
    with pytest.raises(EntryPointMissing):
        build_callgraph(hierarchy, {MethodRef("ghost/Main", "main", MAIN_DESC)})
    with pytest.raises(EntryPointMissing):
        build_callgraph(hierarchy, {MethodRef("fix/Util", "ghost", "()V")})


def test_origin_completeness(hierarchy):
    main = MethodRef("fix/Main3", "main", MAIN_DESC)
    graph = build_callgraph(hierarchy, {main})
    for ref, (framework, library, application, reachable) in graph.nodes.items():
        if ref.in_class in hierarchy.classes:
            assert framework or library or application, ref.text
        assert reachable


def test_library_origin_flags(hierarchy):
    main = MethodRef("fix/Main3", "main", MAIN_DESC)
    graph = build_callgraph(hierarchy, {main})
    twice = graph.nodes.get(MethodRef("fix/LibThing", "twice", "(I)I"))
    assert twice is not None
    assert twice[:3] == (False, True, False)
    dup = graph.nodes.get(MethodRef("fix/Dup", "tag", "()I"))
    assert dup[:3] == (False, True, True)


def test_find_main_entries(hierarchy):
    mains = find_main_entries(hierarchy)
    assert {ref.in_class for ref in mains} == {"fix/App", "fix/Main1", "fix/Main2",
                                               "fix/Main3"}


def test_graph_invariants_enforced():
    # the writer refuses a graph whose document would not read back
    ref_a = MethodRef("A", "m", "()V")
    ref_b = MethodRef("B", "m", "()V")
    for what, graph in (("call target", callgraph_of({ref_a: APP}, edges={(ref_a, ref_b)})),
                        ("caller", callgraph_of({ref_a: APP}, edges={(ref_b, ref_a)})),
                        ("entry point", callgraph_of({ref_a: APP}, entry_points={ref_b}))):
        with pytest.raises(SchemaViolation) as err:
            serialize_callgraph(graph)
        assert str(err.value) == f"{what} 'B.m()V' is not among the graph's methods"
