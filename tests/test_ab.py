"""The summary of ``ab.py``, on fixed samples; no child process starts."""

from __future__ import annotations

import pytest

from ab import compare, main, summarize

REFERENCE = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 11.75, 14.5, 17.25


def test_compare_gives_quartiles_and_the_ratio_to_the_reference_median():
    c = compare([10.0, 12, 11, 13, 9], [5.0, 6, 5.5, 6.5, 4.5])
    assert c.reference == (9.5, 11, 12.5)
    assert c.current == (4.75, 5.5, 6.25)
    assert c.ratio == 0.5  # this tree's median over the reference's, not 2.0
    assert (c.won, c.lost) == (5, 0)


def test_ties_count_for_neither_side():
    c = compare([1.0, 2, 3, 4], [1.0, 1, 3, 5])
    assert (c.won, c.lost) == (1, 1)


def test_claim_holds_at_nine_of_ten_pairs_with_a_wide_gap():
    c = compare(REFERENCE, [2.0, 3, 4, 5, 6, 7, 8, 9, 10, 20])
    assert (c.won, c.lost) == (9, 1)
    assert c.reference[1] - c.current[1] > c.reference[2] - c.reference[0]
    assert c.claim


def test_claim_fails_at_eight_of_ten_pairs():
    c = compare(REFERENCE, [2.0, 3, 4, 5, 6, 7, 8, 9, 19, 20])
    assert (c.won, c.lost) == (8, 2)
    assert c.reference[1] - c.current[1] > c.reference[2] - c.reference[0]
    assert not c.claim


def test_claim_fails_on_fewer_than_ten_pairs():
    c = compare(REFERENCE[:9], [x - 8 for x in REFERENCE[:9]])
    assert c.won == 9
    assert c.reference[1] - c.current[1] > c.reference[2] - c.reference[0]
    assert not c.claim


def test_claim_fails_when_the_gap_lies_inside_the_reference_spread():
    c = compare(REFERENCE, [x - 1 for x in REFERENCE])
    assert c.won == 10
    assert not c.claim


def test_summary_prints_each_figure_and_flags_a_differing_count(capsys):
    same = {"REV": [{"wall_s": 2.0, "nodes": 5}], "this tree": [{"wall_s": 1.0, "nodes": 5}]}
    assert not summarize("REV", same)
    out = capsys.readouterr().out
    assert "this tree / REV = 0.500" in out
    assert "nodes: 5" in out and "won 1, REV won 0; claim rule not met" in out
    differ = {"REV": [{"nodes": 5}], "this tree": [{"nodes": 6}]}
    assert summarize("REV", differ)
    assert "nodes DIFFERS" in capsys.readouterr().out


def test_an_unknown_measure_exits_2():
    with pytest.raises(SystemExit) as exit_:
        main(["HEAD", "memory"])
    assert exit_.value.code == 2
