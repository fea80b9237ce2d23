"""Metrics: comment-aware LOC, class counting, GUI counts, history tables.

The LOC counts of seeded random texts are pinned in ``loc_outcomes.json``.
That file is written by running this module as a script, with the counter
whose counts it should hold::

    PYTHONPATH=src python tests/test_metrics.py
"""

import json
import random
from datetime import date
from pathlib import Path

import pytest

from apprepo.callgraph import ClasspathPartition, build_hierarchy
from apprepo.errors import IoFailure, MalformedClassFile, UnsortedInput
from apprepo.metrics import (
    VersionMetrics,
    count_classes,
    count_loc,
    count_loc_text,
    parse_version_csv,
    version_csv,
    version_table,
)

from classasm import ACC_PUBLIC, AsmClass, AsmMethod, assemble_class


# Each entry: (file name, content, hand-counted LOC).
# Counting rule: a line counts iff it has any code outside comments;
# blank and comment-only lines do not count; comment markers inside
# string/char literals do not open comments.
LOC_CORPUS = [
    ("Basics.java",
     "int a = 1;\n"
     "\n"
     "int b = 2;\n"
     "// comment only\n"
     "\n"
     "int c = 3;\n",
     3),
    ("BlockMidLine.java",
     "int x = 1; /* opens here\n"
     "   inside only\n"
     " ends */ int y = 2;\n",
     2),
    ("StringMarkers.java",
     'String s = "/* not a comment */";\n'
     'String t = "// also not";\n',
     2),
    ("CharLiterals.java",
     "char q = '\"';\n"
     'String u = "he said \\"hi\\" // still string";\n'
     "char slash = '/';\n",
     3),
    ("TrailingComment.java",
     "// header comment\n"
     "/* block\n"
     "   over lines\n"
     "*/\n"
     "int v = 5; // trailing\n",
     1),
    ("Empty.java", "", 0),
    ("Whitespace.java",
     "   \n"
     "\t\n"
     "int w = 1;\n",
     1),
    ("TwoBlocks.java",
     "/* a */ /* b */\n"
     "/* a */ int z = 1; /* b */\n"
     "int /* inline */ k = 2;\n",
     2),
    ("EscapedBackslash.java",
     'String p = "ends with backslash \\\\";\n'
     "// done\n"
     'String q2 = "x";\n',
     2),
    ("Javadoc.java",
     "/** javadoc style\n"
     " * with stars\n"
     " */\n"
     "public int m() { return 1; }\n",
     1),
    ("CloseAndReopen.java",
     "int a2 = 1; /* c1 */ int b2 = 2; /* c2\n"
     "  continues */ int c2 = 3;\n",
     2),
    ("MarkersInComments.java",
     "// /* this never opens\n"
     "int real = 42;\n"
     "/* // line marker inside block\n"
     " still inside */\n",
     1),
]


@pytest.fixture()
def loc_dir(tmp_path):
    for name, content, _ in LOC_CORPUS:
        (tmp_path / name).write_text(content, encoding="utf-8")
    return tmp_path


def test_corpus_is_twelve_files():
    assert len(LOC_CORPUS) == 12


@pytest.mark.parametrize("name,content,expected",
                         LOC_CORPUS, ids=[c[0] for c in LOC_CORPUS])
def test_loc_per_file_hand_counts(name, content, expected):
    assert count_loc_text(content) == expected


def test_loc_directory_additivity(loc_dir):
    assert count_loc(loc_dir) == sum(c[2] for c in LOC_CORPUS)


def test_loc_ignores_other_extensions(loc_dir):
    (loc_dir / "notes.txt").write_text("not counted\n")
    assert count_loc(loc_dir) == sum(c[2] for c in LOC_CORPUS)


def test_loc_empty_directory(tmp_path):
    assert count_loc(tmp_path) == 0


def test_loc_missing_directory(tmp_path):
    with pytest.raises(IoFailure):
        count_loc(tmp_path / "nope")


def test_loc_directory_name_too_long(tmp_path):
    # the file system refuses the name (ENAMETOOLONG): absent, not an OSError
    with pytest.raises(IoFailure, match="not a readable directory"):
        count_loc(tmp_path / ("x" * 300))


def test_loc_bounds_random_text():
    alphabet = 'ab /*"\'\\\n'
    for seed in range(40):
        rng = random.Random(seed)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
        counted = count_loc_text(text)
        assert 0 <= counted <= len(text.splitlines())


LOC_GOLDEN = Path(__file__).with_name("loc_outcomes.json")
LOC_SEED = 1
LOC_COUNT = 400
# every line break of str.splitlines, the comment and literal markers, a
# space and a letter
LOC_ALPHABET = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029/*\"'\\ a"


def random_text_locs() -> list[int]:
    rng = random.Random(LOC_SEED)
    return [count_loc_text("".join(rng.choices(LOC_ALPHABET, k=rng.randint(0, 200))))
            for _ in range(LOC_COUNT)]


def test_loc_random_texts_match_golden():
    golden = json.loads(LOC_GOLDEN.read_text(encoding="ascii"))
    assert (golden["seed"], golden["count"]) == (LOC_SEED, LOC_COUNT)
    assert random_text_locs() == golden["loc"]


# --- class counting -----------------------------------------------------------

def _write_class(path, name):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(assemble_class(AsmClass(name, methods=[
        AsmMethod("m", "()V", ACC_PUBLIC, [("return",)])])))


def application_classes(*containers):
    return count_classes(build_hierarchy(ClasspathPartition.of(application=containers)))


def test_count_two_classes(tmp_path):
    _write_class(tmp_path / "A.class", "A")
    _write_class(tmp_path / "B.class", "B")
    assert application_classes(tmp_path) == 2


def test_count_nested_packages_and_inner_classes(tmp_path):
    _write_class(tmp_path / "p" / "A.class", "p/A")
    _write_class(tmp_path / "p" / "A$Inner.class", "p/A$Inner")
    _write_class(tmp_path / "p" / "q" / "B.class", "p/q/B")
    _write_class(tmp_path / "p" / "q" / "B$1.class", "p/q/B$1")
    _write_class(tmp_path / "C.class", "C")
    assert application_classes(tmp_path) == 5


def test_count_empty_dir(tmp_path):
    assert application_classes(tmp_path) == 0


def test_count_collects_malformed(tmp_path):
    _write_class(tmp_path / "A.class", "A")
    (tmp_path / "Bad.class").write_bytes(b"\xca\xfe\xba\xbe garbage")
    with pytest.raises(MalformedClassFile, match="Bad.class"):
        application_classes(tmp_path)


def test_count_classes_on_corpus(corpus):
    # 14 application classes assembled into the application container
    assert count_classes(build_hierarchy(corpus.partition)) == 14


# --- gui counts -----------------------------------------------------------------

def test_gui_counts_examples():
    from test_guimodel import model, widget, window
    assert model().counts() == (0, 0)
    hidden = model(window("w", widget("a"), widget("b", visible=False), widget("c")))
    assert hidden.counts() == (3, 1)
    two = model(window("w1", widget("x")), window("w2"))
    assert two.counts() == (1, 2)


def test_gui_counts_consistency():
    from generators import random_gui_model
    for seed in range(20):
        m = random_gui_model(random.Random(seed))
        widgets, windows = m.counts()
        total = sum(1 for _ in m.walk())
        assert widgets + windows == total


# --- tables -----------------------------------------------------------------------

FREEMIND_ROW = VersionMetrics("0.1.0", date(2000, 11, 1), 77, 3597, 101, 1)
JEDIT_ROW = VersionMetrics("2.3pre2", date(2000, 1, 29), 332, 23709, 482, 12)


def test_freemind_first_row_renders_as_paper_table():
    expected = (
        "Version | CVS Timestamp | Classes | LOC  | Widgets | Windows\n"
        "--------+---------------+---------+------+---------+--------\n"
        "0.1.0   | 01.11.2000    |      77 | 3597 |     101 |       1\n"
    )
    assert version_table([FREEMIND_ROW]) == expected


def test_jedit_first_row_renders_as_paper_table():
    expected = (
        "Version | CVS Timestamp | Classes | LOC   | Widgets | Windows\n"
        "--------+---------------+---------+-------+---------+--------\n"
        "2.3pre2 | 29.01.2000    |     332 | 23709 |     482 |      12\n"
    )
    assert version_table([JEDIT_ROW]) == expected


def test_table_deterministic():
    rows = [JEDIT_ROW, FREEMIND_ROW]
    assert version_table(rows) == version_table(rows)
    assert version_table(rows).encode() == version_table(rows).encode()


def test_empty_table_header_only():
    out = version_table([])
    lines = out.splitlines()
    assert lines[0].split(" | ") == ["Version", "CVS Timestamp", "Classes",
                                     "LOC", "Widgets", "Windows"]
    assert len(lines) == 2  # header + separator


def test_unsorted_rows_rejected():
    with pytest.raises(UnsortedInput):
        version_table([FREEMIND_ROW, JEDIT_ROW])  # jEdit row is older
    with pytest.raises(UnsortedInput):
        version_csv([FREEMIND_ROW, JEDIT_ROW])


def test_csv_output_and_round_trip():
    rows = [JEDIT_ROW, FREEMIND_ROW]
    text = version_csv(rows)
    lines = text.split("\r\n")
    assert lines[0] == "version,timestamp,classes,loc,widgets,windows"
    assert lines[1] == "2.3pre2,2000-01-29,332,23709,482,12"
    assert parse_version_csv(text) == rows


def test_year_before_1000_is_zero_padded():
    row = VersionMetrics("0.1", date(999, 1, 1), 1, 2, 3, 4)
    assert version_table([row]).splitlines()[2].split(" | ")[1].rstrip() == "01.01.0999"
    text = version_csv([row])
    assert text.split("\r\n")[1] == "0.1,0999-01-01,1,2,3,4"
    assert parse_version_csv(text) == [row]


def test_csv_quotes_commas():
    row = VersionMetrics("1,0", date(2001, 1, 1), 1, 2, 3, 4)
    text = version_csv([row])
    assert '"1,0"' in text
    assert parse_version_csv(text) == [row]


@pytest.mark.parametrize("field", ["classes", "loc", "widgets", "windows"])
def test_parse_version_csv_rejects_a_negative_count_and_names_it(field):
    counts = {"classes": 1, "loc": 2, "widgets": 3, "windows": 4, field: -1}
    text = ("version,timestamp,classes,loc,widgets,windows\r\n"
            f"v,2000-01-01,{','.join(map(str, counts.values()))}\r\n")
    with pytest.raises(IoFailure, match=f"malformed metrics CSV row .*: {field} must be"
                                        " non-negative"):
        parse_version_csv(text)


if __name__ == "__main__":
    LOC_GOLDEN.write_text(json.dumps({"seed": LOC_SEED, "count": LOC_COUNT,
                                      "loc": random_text_locs()}) + "\n", encoding="ascii")
