"""Pinned outcomes of parsing damaged fixture classes.

Each of the four kinds of damage in ``damage.py`` is applied to the
assembled fixture corpus ``COUNT`` times, and every outcome (the digest of
an accepted class, or the reason and offset of a rejection) must equal
the one in ``parse_outcomes.json``. A change to the parser that moves any
reason or offset, or accepts or rejects a different class, fails here.

The golden file is written by running this module as a script, with the
parser whose outcomes it should hold::

    PYTHONPATH=src python tests/test_parse_outcomes.py

Rewrite it only for a change meant to alter outcomes, and say which ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from apprepo.classfile.parser import parse_class

from damage import KINDS, damaged, fixture_classes, outcome

GOLDEN = Path(__file__).with_name("parse_outcomes.json")
SEED = 1
COUNT = 100


def outcomes(kind: str) -> list[str]:
    return [outcome(parse_class, data) for data in damaged(fixture_classes(), kind, SEED, COUNT)]


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
