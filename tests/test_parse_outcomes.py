"""Pinned outcomes of parsing damaged fixture classes.

Each of the four kinds of damage in ``damage.py`` is applied to the
assembled fixture corpus ``COUNT`` times, and every outcome (the digest of
an accepted class, or the reason and offset of a rejection) must equal
the one in ``parse_outcomes.json``. A change to the parser that moves any
reason or offset, or accepts or rejects a different class, fails here.

``jdk_outcomes.json`` pins, in the same form, the outcomes of real JDK 17
bytes: a seeded sample of ``JDK_COUNT`` classes of each of the
``java.base`` and ``java.desktop`` jmods, with the module-info class of
each (kind ``intact``), and ``COUNT`` of each kind of damage drawn from
them. Those tests are skipped when the local JDK has no such jmods, or
when their sampled bytes are not the ones the golden file was written
from (another JDK build).

Both golden files are written by running this module as a script, with
the parser whose outcomes they should hold::

    PYTHONPATH=src python tests/test_parse_outcomes.py

Rewrite them only for a change meant to alter outcomes, and say which ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import zipfile
from collections import Counter
from pathlib import Path

import pytest

from apprepo.classfile.parser import parse_class

from damage import JDK_MODULES, KINDS, damaged, fixture_classes, jdk_jmods, outcome
from test_classfile import decoded_operands

GOLDEN = Path(__file__).with_name("parse_outcomes.json")
JDK_GOLDEN = Path(__file__).with_name("jdk_outcomes.json")
SEED = 1
COUNT = 100
JDK_COUNT = 150  # sampled classes per jmod, besides its module-info


def outcomes(kind: str, classes: list[bytes] | None = None) -> list[str]:
    classes = fixture_classes() if classes is None else classes
    if kind == "intact":
        return [outcome(parse_class, data) for data in classes]
    return [outcome(parse_class, data) for data in damaged(classes, kind, SEED, COUNT)]


def jdk_sample() -> list[bytes] | None:
    """The sampled class files of the local JDK's jmods, module by module;
    None if a jmod is missing."""
    jmods = jdk_jmods()
    if jmods is None:
        return None
    sample = []
    for module, path in zip(JDK_MODULES, jmods):
        with zipfile.ZipFile(path) as jmod:
            names = sorted(n for n in jmod.namelist()
                           if n.endswith(".class") and n != "classes/module-info.class")
            chosen = random.Random(f"{SEED}/{module}").sample(names, JDK_COUNT)
            sample += [jmod.read(name) for name in ["classes/module-info.class", *chosen]]
    return sample


def jdk_outcomes(sample: list[bytes]) -> dict:
    return {"seed": SEED, "count": COUNT, "sample": JDK_COUNT,
            "inputs": hashlib.sha256(b"".join(sample)).hexdigest(),
            "outcomes": {kind: outcomes(kind, sample) for kind in ("intact", *KINDS)}}


@pytest.fixture(scope="module")
def jdk_golden() -> tuple[list[bytes], dict]:
    sample = jdk_sample()
    if sample is None:
        pytest.skip("no java.base and java.desktop jmods beside javac")
    golden = json.loads(JDK_GOLDEN.read_text(encoding="ascii"))
    if golden["inputs"] != hashlib.sha256(b"".join(sample)).hexdigest():
        pytest.skip("the local jmods are not the JDK build the golden file was written from")
    return sample, golden


@pytest.mark.parametrize("kind", ("intact", *KINDS))
def test_jdk_class_outcomes_match_golden(jdk_golden, kind):
    sample, golden = jdk_golden
    assert (golden["seed"], golden["count"], golden["sample"]) == (SEED, COUNT, JDK_COUNT)
    got = outcomes(kind, sample)
    assert not [line for line in got if line.startswith("raised ")]
    assert got == golden["outcomes"][kind]


def test_jdk_classes_all_parse(jdk_golden):
    """Every sampled JDK class, the module-info classes among them, is accepted."""
    _, golden = jdk_golden
    intact = golden["outcomes"]["intact"]
    assert len(intact) == len(JDK_MODULES) * (JDK_COUNT + 1)
    assert all(line.startswith("ok ") for line in intact)


def test_jdk_math_parses_to_equal_classes():
    """``java/lang/Math`` loads NaNs of both widths (in ``fma`` and
    ``scalb``), and two parses of it give equal classes."""
    jmods = jdk_jmods()
    if jmods is None:
        pytest.skip("no java.base and java.desktop jmods beside javac")
    with zipfile.ZipFile(jmods[0]) as jmod:
        data = jmod.read("classes/java/lang/Math.class")
    assert parse_class(data) == parse_class(data)


def assert_operands_are_decoded(classes: list[bytes]) -> None:
    """Each body's ``operands``, found by the parse-time check, are the
    ``(mnemonic, target, member, type_name)`` of each distinct pool-indexed
    instruction that the reference decoder decodes in it."""
    for data in classes:
        for method in parse_class(data).methods:
            if method.body is not None:
                assert Counter(method.body.operands) == decoded_operands(
                    method.body.code, method.instructions), method.name


def test_jdk_body_keys_are_the_decoded_pool_instructions(jdk_golden):
    assert_operands_are_decoded(jdk_golden[0])


def test_fixture_body_keys_are_the_decoded_pool_instructions():
    assert_operands_are_decoded(fixture_classes())


@pytest.mark.parametrize("kind", KINDS)
def test_damaged_fixture_outcomes_match_golden(kind):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    assert (golden["seed"], golden["count"]) == (SEED, COUNT)
    got = outcomes(kind)
    assert not [line for line in got if line.startswith("raised ")]
    assert got == golden["outcomes"][kind]


def test_golden_outcomes_are_varied():
    """The damage reaches past the header: overwritten classes are sometimes
    still accepted, and each kind meets many distinct failures."""
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))["outcomes"]
    for kind in ("overwrite", "overwrite_tail"):
        assert any(line.startswith("ok ") for line in golden[kind])
    for kind in KINDS:
        assert len(set(golden[kind])) > COUNT // 2, kind


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"seed": SEED, "count": COUNT,
                                  "outcomes": {kind: outcomes(kind) for kind in KINDS}},
                                 indent=1) + "\n", encoding="ascii")
    jdk = jdk_sample()
    if jdk is not None:
        JDK_GOLDEN.write_text(json.dumps(jdk_outcomes(jdk), indent=1) + "\n", encoding="ascii")
