import io
from collections import Counter

import pytest

from ltgec.confusions import (
    ConfusionGroup,
    ConfusionTable,
    default_table,
    derive_confusion_stats,
    read_table,
    write_table,
)
from ltgec.edits import ErrorCategory


def group_for(pattern: str) -> ConfusionGroup:
    for g in default_table().groups:
        if g.pattern == pattern:
            return g
    raise AssertionError(f"no default group with pattern {pattern!r}")


class TestDefaultTable:
    def test_built_once(self):
        assert default_table() is default_table()

    def test_group_count(self):
        assert len(default_table().groups) == 16

    def test_spot_counts(self):
        nasal_i = dict(group_for("[iįy]").variants)
        assert nasal_i == {"į": 3490952, "y": 8347510, "i": 82431807}
        quotes = dict(group_for("‘‘|,,|[„“\"”]|''").variants)
        assert quotes['"'] == 436378
        assert quotes["''"] == 87

    def test_category_split(self):
        table = default_table()
        punct = table.by_category({ErrorCategory.PUNCTUATION})
        letters = table.by_category({ErrorCategory.SIMILAR_SOUNDING})
        assert len(punct) == 3
        assert len(letters) == 13
        assert len(punct) + len(letters) == len(table.groups)

    def test_every_variant_matches_its_pattern(self):
        for g in default_table().groups:
            for variant, count in g.variants:
                assert g.regex.fullmatch(variant), (g.pattern, variant)
                assert count > 0

    def test_replacement_distribution_for_nasal_i(self):
        options, probs = group_for("[iįy]").replacement_options("į")
        by_option = dict(zip(options, probs))
        assert by_option["i"] == pytest.approx(82431807 / (82431807 + 8347510))
        assert by_option["i"] == pytest.approx(0.908, abs=1e-3)
        assert sum(probs) == pytest.approx(1.0)

    def test_unlisted_surface_gets_all_variants(self):
        options, probs = group_for("[aą]").replacement_options("x")
        assert set(options) == {"a", "ą"}
        assert sum(probs) == pytest.approx(1.0)

    def test_single_variant_surface_has_no_options(self):
        g = ConfusionGroup("[aą]", (("a", 10),))
        assert g.replacement_options("a") == ([], [])


class TestDeriveStats:
    def test_overlapping_alternation(self):
        table = derive_confusion_stats(["o uo ou uou"], patterns=["u{0,1}ou{0,1}"])
        counts = dict(table.groups[0].variants)
        assert counts == {"o": 1, "uo": 1, "ou": 1, "uou": 1}

    def test_alternation_priority(self):
        table = derive_confusion_stats(["ia e e"], patterns=["ia|e"])
        assert dict(table.groups[0].variants) == {"ia": 1, "e": 2}

    def test_default_patterns_and_categories(self):
        table = derive_confusion_stats(["kad, su. žodis – čia"])
        assert len(table.groups) == 16
        for g in table.groups:
            assert g.category in (ErrorCategory.PUNCTUATION, ErrorCategory.SIMILAR_SOUNDING)

    def test_counts_sorted_descending(self):
        table = derive_confusion_stats(["aaa ą"], patterns=["[aą]"])
        counts = [c for _, c in table.groups[0].variants]
        assert counts == sorted(counts, reverse=True)

    def test_empty_matches_are_not_counted(self):
        table = derive_confusion_stats(["banana a"], patterns=["a*"])
        assert dict(table.groups[0].variants) == {"a": 4}

    def test_default_patterns_never_match_empty(self, paragraphs, corpus_factory):
        """Counting sites leaves the default table's counts as every match
        would give them, because no default pattern matches the empty string."""
        texts = list(paragraphs) + [s.text for s in corpus_factory(50, seed=2)]
        derived = derive_confusion_stats(texts)
        for group in derived.groups:
            every_match = Counter(m.group() for t in texts for m in group.regex.finditer(t))
            assert "" not in every_match, group.pattern
            assert dict(group.variants) == every_match, group.pattern


class TestTableIO:
    def test_round_trip(self):
        table = default_table()
        buf = io.StringIO()
        write_table(table, buf)
        buf.seek(0)
        assert read_table(buf) == table

    def test_malformed_line_reports_number(self):
        buf = io.StringIO("group\t\"[aą]\"\tsimilar-sounding\nnot a variant line\n")
        with pytest.raises(ValueError, match="line 2"):
            read_table(buf)

    def test_unknown_category_rejected(self):
        buf = io.StringIO('group\t"[aą]"\tnosines\n\t"a"\t5\n')
        with pytest.raises(ValueError, match="line 1"):
            read_table(buf)
