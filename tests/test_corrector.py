import io
import math

import pytest

from ltgec.corrector import (
    ChannelModel,
    UnigramModel,
    build_unigram,
    candidates,
    load_model,
    noisy_channel_correct,
    rule_correct,
    save_model,
)
from ltgec.tokenstats import EmptyCorpusError


class TestRuleCorrect:
    def test_applies_cleanup_rules(self):
        assert rule_correct("1918m. vasario") == "1918 m. vasario"
        assert rule_correct("A.Sabonis žaidė") == "A. Sabonis žaidė"
        assert rule_correct("taip , sakė") == "taip, sakė"

    def test_clean_text_unchanged(self):
        text = "Vakar mieste buvo gražu."
        assert rule_correct(text) == text


class TestUnigramModel:
    def test_counts_and_total(self):
        model = build_unigram(["labas labas rytas", "rytas"])
        assert model.counts == {"labas": 2, "rytas": 2}
        assert model.total == 4
        assert model.vocab_size == 2

    def test_log_prob_add_one(self):
        model = build_unigram(["a a b"])
        # P(a) = (2+1)/(3+2), P(unseen) = 1/(3+2)
        assert model.log_prob("a") == pytest.approx(math.log(3 / 5))
        assert model.log_prob("zzz") == pytest.approx(math.log(1 / 5))

    def test_seen_beats_unseen(self):
        model = build_unigram(["graži diena"])
        assert model.log_prob("graži") > model.log_prob("grazi")

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_unigram([])
        with pytest.raises(EmptyCorpusError):
            build_unigram(["...", "!!"])


class TestModelIO:
    def test_round_trip(self):
        model = build_unigram(["labas rytas labas", "šąla"])
        buf = io.StringIO()
        save_model(model, buf)
        buf.seek(0)
        back = load_model(buf)
        assert back.counts == model.counts
        assert back.total == model.total

    def test_header_and_sorted_entries(self):
        buf = io.StringIO()
        save_model(UnigramModel({"b": 1, "a": 2}, 3), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# unigram total=3 vocab=2"
        assert lines[1:] == ["a\t2", "b\t1"]

    @pytest.mark.parametrize("text,message", [
        ("a\t2\nb two\n", "line 2: expected"),
        ("a\t2\nb\ttwo\n", "line 2: bad count"),
        ("a\t0\n", "line 1: count must be positive"),
        ("a\t2\na\t3\n", "line 2: duplicate word"),
        ("# only a comment\n", "no entries"),
    ])
    def test_malformed_files(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_model(io.StringIO(text))

    def test_comments_and_blanks_skipped(self):
        model = load_model(io.StringIO("# x\n\na\t4\n"))
        assert model.counts == {"a": 4}


class TestCandidates:
    def test_identity_comes_first(self):
        cands = candidates("rimtai")
        assert cands[0] == "rimtai"

    def test_confusion_variants_present(self):
        assert "rimtai" in candidates("rymtai")
        assert "graži" in candidates("grazi")

    def test_keyboard_edits_present(self):
        cands = candidates("kava")
        assert "kasva" in cands  # deletion route restores a char
        assert "akva" in cands  # transposition route
        # insertion route strips a stray char next to its key neighbour
        assert "kaa" in candidates("kasa")

    def test_case_flip_present(self):
        assert "Vilnius" in candidates("vilnius")
        assert "vilnius" in candidates("Vilnius")

    def test_no_duplicates(self):
        cands = candidates("grazi")
        assert len(cands) == len(set(cands))


class TestChannelModel:
    @pytest.mark.parametrize("kwargs,message", [
        ({"typo_rate": 1.0}, r"typo_rate must be in \[0, 1\)"),
        ({"typo_rate": -0.5}, r"typo_rate must be in \[0, 1\)"),
        ({"confusion_rate": 1.5}, "confusion_rate"),
        ({"other_rate": float("nan")}, "other_rate"),
        ({"typo_mix": {"substitution": 1.0}}, "exactly the keys"),
        ({"typo_mix": {"substitution": 0.5, "deletion": 0.5,
                       "insertion": 0.5, "transposition": 0.0}}, "sum to 1"),
    ])
    def test_rejects_what_corruption_config_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ChannelModel(**kwargs)


class TestNoisyChannel:
    # at the default 2% confusion rate the channel penalty for one
    # substitution is about 49x, so flips need a strongly supportive prior
    def test_fixes_confusion_with_supportive_model(self):
        model = build_unigram(["graži"] * 100 + ["diena"] * 5)
        assert noisy_channel_correct("grazi", model) == "graži"

    def test_identity_wins_when_observed_word_is_known(self):
        model = build_unigram(["kava kava kava arbata"])
        assert noisy_channel_correct("kava", model) == "kava"

    def test_unknown_words_pass_through(self):
        model = build_unigram(["visiškai kitokie žodžiai"])
        out = noisy_channel_correct("xqzw", model)
        assert out == "xqzw"

    def test_separators_preserved(self):
        model = build_unigram(["graži"] * 100 + ["diena"] * 5)
        out = noisy_channel_correct("grazi, diena! (grazi)", model)
        assert out == "graži, diena! (graži)"

    def test_rule_pass_runs_first(self):
        model = build_unigram(["nieko bendro"])
        out = noisy_channel_correct("sakė , kad", model)
        assert out.startswith("sakė, kad")

    def test_channel_rates_matter(self):
        # with a zero confusion rate the confusion route disappears
        model = build_unigram(["graži graži graži grazi"])
        eager = noisy_channel_correct(
            "grazi", model, channel=ChannelModel(confusion_rate=0.4))
        frozen = noisy_channel_correct(
            "grazi", model, channel=ChannelModel(confusion_rate=0.0, typo_rate=0.0,
                                                 other_rate=0.0))
        assert eager == "graži"
        assert frozen == "grazi"

    def test_word_cache_consistency(self):
        model = build_unigram(["graži"] * 100)
        out = noisy_channel_correct("grazi grazi grazi", model)
        assert out == "graži graži graži"
