import io

import pytest

from ltgec.edits import Edit, ErrorCategory, ParallelPair
from ltgec.m2 import read_m2, write_m2

SS = ErrorCategory.SIMILAR_SOUNDING


def roundtrip(pairs):
    buf = io.StringIO()
    write_m2(pairs, buf)
    buf.seek(0)
    return list(read_m2(buf))


class TestWrite:
    def test_basic_shape(self):
        pair = ParallelPair("p", "grazi", "graži", (Edit(3, 4, "ž", SS),))
        buf = io.StringIO()
        assert write_m2([pair], buf) == 1
        lines = buf.getvalue().splitlines()
        assert lines[0] == "S grazi"
        assert lines[1] == "A 3 4|||similar-sounding|||ž|||0"
        assert lines[2] == ""

    def test_clean_pair_gets_noop(self):
        pair = ParallelPair("p", "tvarkinga", "tvarkinga", ())
        buf = io.StringIO()
        write_m2([pair], buf)
        assert "A -1 -1|||noop|||-NONE-|||0" in buf.getvalue()

    def test_uncategorized_edit_written_as_other(self):
        pair = ParallelPair("p", "ab", "axb", (Edit(1, 1, "x", None),))
        buf = io.StringIO()
        write_m2([pair], buf)
        assert "|||other|||" in buf.getvalue()

    def test_annotator_id(self):
        pair = ParallelPair("p", "ab", "ab", ())
        buf = io.StringIO()
        write_m2([pair], buf, annotator=3)
        assert buf.getvalue().splitlines()[1].endswith("|||3")

    def test_multiline_source_rejected(self):
        pair = ParallelPair("p", "a\nb", "a\nb", ())
        with pytest.raises(ValueError, match="single line"):
            write_m2([pair], io.StringIO())

    def test_carriage_return_rejected(self):
        with pytest.raises(ValueError, match="single line"):
            write_m2([ParallelPair("p", "a\rb", "a\rb", ())], io.StringIO())
        pair = ParallelPair("p", "ab", "a\rb", (Edit(1, 1, "\r", None),))
        with pytest.raises(ValueError, match="not representable"):
            write_m2([pair], io.StringIO())

    def test_separator_in_replacement_rejected(self):
        pair = ParallelPair("p", "ab", "a|||b", (Edit(1, 1, "|||", None),))
        with pytest.raises(ValueError, match="not representable"):
            write_m2([pair], io.StringIO())


class TestRoundTrip:
    def test_edits_and_target_preserved(self):
        pairs = [
            ParallelPair("x", "grazi ir adgal", "graži ir atgal",
                         (Edit(3, 4, "ž", SS),
                          Edit(10, 11, "t", ErrorCategory.ASSIMILATION_GEMINATION))),
            ParallelPair("y", "tvarkinga", "tvarkinga", ()),
            ParallelPair("z", "trūksta zodžio", "trūksta žodžio",
                         (Edit(8, 9, "ž", SS),)),
        ]
        back = roundtrip(pairs)
        assert [p.id for p in back] == ["0", "1", "2"]
        for orig, new in zip(pairs, back):
            assert new.source == orig.source
            assert new.target == orig.target
            assert new.edits == orig.edits

    def test_empty_replacement_survives(self):
        pair = ParallelPair("p", "kaava", "kava",
                            (Edit(2, 3, "", ErrorCategory.TYPOGRAPHICAL),))
        (back,) = roundtrip([pair])
        assert back.target == "kava"
        assert back.edits[0].replacement == ""

    def test_unicode_source(self):
        pair = ParallelPair("p", "ąčęėįšųūž „citata“", "ąčęėįšųūž „citata“", ())
        (back,) = roundtrip([pair])
        assert back.source == pair.source


class TestRead:
    def test_final_entry_without_trailing_blank(self):
        text = "S grazi\nA 3 4|||similar-sounding|||ž|||0"
        (pair,) = read_m2(io.StringIO(text))
        assert pair.target == "graži"

    def test_crlf_line_endings(self):
        text = ("S ab\r\nA -1 -1|||noop|||-NONE-|||0\r\n\r\n"
                "S grazi\r\nA 3 4|||similar-sounding|||ž|||0\r\n")
        clean, fixed = read_m2(io.StringIO(text))
        assert clean.source == clean.target == "ab"
        assert (fixed.source, fixed.target) == ("grazi", "graži")
        assert fixed.edits == (Edit(3, 4, "ž", SS),)

    def test_noop_yields_clean_pair(self):
        text = "S viskas gerai\nA -1 -1|||noop|||-NONE-|||0\n"
        (pair,) = read_m2(io.StringIO(text))
        assert pair.source == pair.target == "viskas gerai"
        assert pair.edits == ()

    def test_unseparated_entries(self):
        # a new S line closes the previous entry even without a blank line
        text = ("S vienas\nA -1 -1|||noop|||-NONE-|||0\n"
                "S du\nA -1 -1|||noop|||-NONE-|||0\n")
        pairs = list(read_m2(io.StringIO(text)))
        assert [p.source for p in pairs] == ["vienas", "du"]

    @pytest.mark.parametrize("text,lineno,message", [
        ("A 0 1|||other|||x|||0\n", 1, "before any source"),
        ("S ab\nA 0 1|||other|||x\n", 2, "4 "),
        ("S ab\nA zero 1|||other|||x|||0\n", 2, "bad span"),
        ("S ab\nA 1 0|||other|||x|||0\n", 2, "bad span"),
        ("S ab\nA 0 1|||banana|||x|||0\n", 2, "unknown category"),
        ("S ab\nA 0 1|||other|||x|||q\n", 2, "bad annotator"),
        ("S ab\nA -1 -1|||noop|||x|||0\n", 2, "malformed noop"),
        ("S ab\nwat\n", 2, "unexpected line"),
        ("S ab\n\n", 1, "without annotation"),
        ("S ab\nA 0 9|||other|||x|||0\n", 1, "exceeds source length"),
        # unsorted edits, refused as JSONL gold refuses them
        ("S abcd\nA 2 3|||other|||X|||0\nA 0 1|||other|||Y|||0\n", 1, "edits not sorted"),
    ])
    def test_malformed_lines_report_position(self, text, lineno, message):
        with pytest.raises(ValueError, match=message) as err:
            list(read_m2(io.StringIO(text)))
        assert f"line {lineno}" in str(err.value)

    def test_overlapping_edits_rejected(self):
        text = ("S abcd\n"
                "A 0 2|||other|||x|||0\n"
                "A 1 3|||other|||y|||0\n")
        with pytest.raises(ValueError, match="overlap"):
            list(read_m2(io.StringIO(text)))

    def test_empty_file_yields_nothing(self):
        assert list(read_m2(io.StringIO(""))) == []
