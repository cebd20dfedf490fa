import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_outputs  # noqa: E402

OLD = """status = transversality-miss
action value = 10.0
duration = 2.5
status: FAIL
"""

NEW = """status = converged
action value = 10.000001
duration = 2.5
extra line = 7
status: FAIL
"""


def test_compare_texts_number_word_and_added_line():
    diff = same_outputs.compare_texts(OLD, NEW)
    assert diff.numbers_changed == 1
    assert diff.max_abs == pytest.approx(1e-6)
    assert diff.max_rel == pytest.approx(1e-6 / 10.000001)
    assert diff.max_rel_at == diff.max_abs_at == "line 2, field 3 (action value)"
    assert diff.by_label == {"action value": (diff.max_rel, "10.0", "10.000001")}
    assert diff.words == [("line 1, field 2 (status)", "transversality-miss", "converged")]
    assert diff.added == ["extra line = 7"]
    assert diff.removed == []


def test_compare_texts_same_line_count_pairs_by_line():
    old = "t,x\n0.0,1.0\n1.0,2.0\n"
    new = "t,x\n0.0,1.0\n1.0,2.5\n"
    diff = same_outputs.compare_texts(old, new)
    assert (diff.numbers_changed, diff.max_abs, diff.max_rel) == (1, 0.5, 0.2)
    assert diff.max_abs_at == "line 3, field 2"
    assert diff.words == diff.added == diff.removed == []
    assert diff.by_label == {}
    assert same_outputs.compare_texts(old, old) == same_outputs.TextDiff()


def test_compare_texts_scales_by_largest_number_in_file():
    # a drift column of roundoff-sized values beside a time column
    old = "t,drift\n1.0,0.0\n2.0,1e-15\n"
    new = "t,drift\n1.0,0.0\n2.0,2e-15\n"
    diff = same_outputs.compare_texts(old, new)
    assert diff.max_abs == pytest.approx(1e-15)
    assert diff.max_rel == pytest.approx(0.5e-15)
    assert diff.max_rel_at == "line 3, field 2"
