import io
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltgec.corpus import TextSample
from ltgec.edits import (
    Edit,
    ErrorCategory,
    ParallelPair,
    apply_edits,
    apply_plans,
    check_edits_sorted_disjoint,
    _intersects,
    drop_conflicting,
    pair_from_json,
    pair_to_json,
    read_pairs,
    write_pairs,
)
from ltgec.evaluator import CategoryScore, EvalReport

CAT = ErrorCategory.TYPOGRAPHICAL


class TestEdit:
    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            Edit(-1, 0, "a")
        with pytest.raises(ValueError):
            Edit(3, 2, "a")

    def test_apply_edits_replaces_right_to_left(self):
        text = "abcdef"
        edits = [Edit(0, 1, "X"), Edit(3, 5, "")]
        assert apply_edits(text, edits) == "Xbcf"

    def test_apply_edits_with_insertion(self):
        assert apply_edits("abc", [Edit(1, 1, "xx")]) == "axxbc"

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            apply_edits("abcdef", [Edit(0, 3, "x"), Edit(2, 4, "y")])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="extends past"):
            check_edits_sorted_disjoint([Edit(0, 9, "x")], 5)

    def test_touching_edits_allowed(self):
        assert apply_edits("abcd", [Edit(0, 2, "x"), Edit(2, 4, "y")]) == "xy"


class TestDropConflicting:
    def test_keeps_earlier_planned_on_overlap(self):
        plans = [Edit(0, 2, "xx", CAT), Edit(1, 3, "yy", CAT)]
        assert drop_conflicting(plans, []) == [plans[0]]

    def test_planning_order_beats_position(self):
        plans = [Edit(4, 6, "xx", CAT), Edit(3, 5, "yy", CAT)]
        assert drop_conflicting(plans, []) == [plans[0]]

    def test_blocked_spans_exclude(self):
        blocked = [Edit(2, 4, "orig")]
        plans = [Edit(3, 5, "x", CAT), Edit(6, 7, "y", CAT)]
        assert drop_conflicting(plans, blocked) == [plans[1]]

    def test_zero_width_at_boundary_survives(self):
        blocked = [Edit(2, 4, "orig")]
        plans = [Edit(2, 2, "x", CAT), Edit(4, 4, "y", CAT), Edit(3, 3, "z", CAT)]
        kept = drop_conflicting(plans, blocked)
        assert kept == [plans[0], plans[1]]  # strictly-inside insertion dropped

    def test_touching_plans_coexist(self):
        plans = [Edit(0, 2, "x", CAT), Edit(2, 4, "y", CAT)]
        assert drop_conflicting(plans, []) == plans


def _plans_on(text, raw):
    """Plans on ``text`` from (start, width, replacement) draws, clipped to it."""
    plans = []
    for start, width, repl in raw:
        start = min(start, len(text))
        plans.append(Edit(start, min(start + width, len(text)), repl, CAT))
    return plans


_RAW_PLANS = st.lists(st.tuples(st.integers(0, 14), st.integers(0, 3),
                                st.text(alphabet="xy", max_size=2)), max_size=8)


class TestDropConflictingReference:
    @settings(max_examples=300)
    @given(st.text(alphabet="ab", max_size=12), _RAW_PLANS, _RAW_PLANS)
    def test_matches_brute_force(self, text, earlier, later):
        # apply_plans' edits block the later plans; adjacent deletions among
        # the earlier plans make zero-width repeats there
        corrupted, blocked = apply_plans(text, [], _plans_on(text, earlier))
        plans = _plans_on(corrupted, later)
        expected = []
        for p in plans:
            if not any(_intersects(p.start, p.end, q.start, q.end)
                       for q in [*blocked, *expected]):
                expected.append(p)
        assert drop_conflicting(plans, blocked) == expected


class TestApplyPlans:
    def test_substitution_payload_present(self):
        text, edits = apply_plans("atgal", [], [Edit(1, 2, "d", CAT)])
        assert text == "adgal"
        assert edits == [Edit(1, 2, "t", CAT)]
        assert apply_edits(text, edits) == "atgal"

    def test_deletion(self):
        text, edits = apply_plans("iššūkis", [], [Edit(1, 2, "", CAT)])
        assert text == "išūkis"
        assert edits == [Edit(1, 1, "š", CAT)]

    def test_insertion(self):
        text, edits = apply_plans("kava", [], [Edit(2, 2, "x", CAT)])
        assert text == "kaxva"
        assert edits == [Edit(2, 3, "", CAT)]
        assert apply_edits(text, edits) == "kava"

    def test_multiple_plans_shift_correctly(self):
        plans = [Edit(0, 1, "XY", CAT), Edit(3, 4, "", CAT)]
        text, edits = apply_plans("abcd", [], plans)
        assert text == "XYbc"
        assert apply_edits(text, edits) == "abcd"

    def test_old_edits_shift_past_new_plans(self):
        # first pass corrupts position 4, second pass inserts before it
        text1, edits1 = apply_plans("abcdef", [], [Edit(4, 5, "X", CAT)])
        assert text1 == "abcdXf"
        text2, edits2 = apply_plans(text1, edits1, [Edit(1, 2, "YY", CAT)])
        assert text2 == "aYYcdXf"
        assert apply_edits(text2, edits2) == "abcdef"

    def test_zero_width_before_old_edit(self):
        text1, edits1 = apply_plans("ab", [], [Edit(1, 1, "X", CAT)])
        assert text1 == "aXb"
        text2, edits2 = apply_plans(text1, edits1, [Edit(1, 1, "Y", CAT)])
        assert text2 == "aYXb"
        assert apply_edits(text2, edits2) == "ab"

    @given(st.text(alphabet="abc ", min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3),
                              st.text(alphabet="xy", max_size=2)), max_size=4))
    def test_property_round_trip(self, text, raw_plans):
        plans = []
        for start, width, repl in raw_plans:
            if start > len(text):
                continue
            end = min(start + width, len(text))
            if repl == text[start:end]:
                continue
            plans.append(Edit(start, end, repl, CAT))
        kept = drop_conflicting(plans, [])
        corrupted, edits = apply_plans(text, [], kept)
        assert apply_edits(corrupted, edits) == text


class TestPairIO:
    def test_round_trip(self):
        pair = ParallelPair(
            "p1", "grazi", "graži",
            (Edit(3, 4, "ž", ErrorCategory.SIMILAR_SOUNDING),),
        )
        assert pair_from_json(pair_to_json(pair)) == pair

    def test_category_none_serialized(self):
        pair = ParallelPair("p", "a", "b", (Edit(0, 1, "b"),))
        assert pair_from_json(pair_to_json(pair)) == pair

    def test_stream_round_trip(self):
        pairs = [
            ParallelPair("1", "vienas", "vienas", ()),
            ParallelPair("2", "dų", "du", (Edit(1, 2, "u", ErrorCategory.SIMILAR_SOUNDING),)),
        ]
        buf = io.StringIO()
        assert write_pairs(pairs, buf) == 2
        buf.seek(0)
        assert list(read_pairs(buf)) == pairs

    @pytest.mark.parametrize("edits,message", [
        ([[0, 2, "x", None], [1, 3, "y", None]], "overlaps"),
        ([[3, 5, "x", None]], "extends past"),
        ([[2, 3, "a", None], [0, 1, "b", None]], "not sorted"),
        ([[0, 1, "z", None]], "do not turn the source into the target"),
    ])
    def test_rejects_gold_that_m2_rejects(self, edits, message):
        line = pair_to_json(ParallelPair("p", "abcd", "xcd", ()))
        line = line.replace('"edits": []', f'"edits": {json.dumps(edits)}')
        with pytest.raises(ValueError, match=message):
            pair_from_json(line)

    @pytest.mark.parametrize("bad_id", [None, {"k": 1}, True, 1.5])
    def test_id_neither_string_nor_integer_rejected(self, bad_id):
        record = {"id": bad_id, "source": "a", "target": "a", "edits": []}
        buf = io.StringIO(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="line 1: id must be a string or an integer"):
            list(read_pairs(buf))

    @pytest.mark.parametrize("span", [[0.0, 2], ["0", 2], [0, True]])
    def test_span_not_an_integer_rejected(self, span):
        record = {"id": "p", "source": "abcd", "target": "xcd", "edits": [[*span, "x", None]]}
        buf = io.StringIO(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="line 1: edit spans must be integers"):
            list(read_pairs(buf))

    def test_bad_record_reports_line(self):
        buf = io.StringIO('{"id": "1", "source": "a", "target": "a", "edits": []}\nnope\n')
        with pytest.raises(ValueError, match="line 2"):
            list(read_pairs(buf))


# The CLI pickles samples and pairs to pool workers, and a pass keeps many of
# these records alive, so each has slots and must still round-trip.
RECORDS = [
    Edit(1, 3, "ab", CAT),
    ParallelPair("p1", "abc", "abd", (Edit(2, 3, "d", CAT),)),
    TextSample("s1", "Labas rytas.", "news"),
    CategoryScore(tp=2, fp=1, fn=3, samples=4),
    EvalReport(beta=0.5, pairs=2, samples_affected=1, tp=2, fp=1, fn=0,
               per_category={"typographical": CategoryScore(tp=2, fp=1)}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_has_slots_and_pickles(record):
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)
