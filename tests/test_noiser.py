import random
from collections import Counter

import pytest

from ltgec.confusions import ConfusionGroup, ConfusionTable, default_table
from ltgec.corpus import TextSample, preprocess
from ltgec.corrector import rule_correct
from ltgec.edits import ErrorCategory, apply_edits
from ltgec.keyboard import KeyboardModel, default_keyboard, load_keyboard_weights
from ltgec.families import (
    ALL_GROUPS,
    assimilation_sites,
    casing_sites,
    gemination_sites,
    space_sites,
)
from ltgec.noiser import (
    CorruptionConfig,
    corrupt,
    corrupt_assimilation,
    corrupt_casing,
    corrupt_confusions,
    corrupt_gemination,
    corrupt_rule_errors,
    corrupt_spaces,
    corrupt_typos,
    sample_rng,
)
from ltgec.noiser import _cumulative, _pick

ALWAYS = 1.0


def rng(seed=0):
    return random.Random(seed)


class TestConfig:
    def test_defaults(self):
        cfg = CorruptionConfig()
        assert cfg.typo_rate == cfg.confusion_rate == cfg.other_rate == 0.02
        assert sum(cfg.typo_mix.values()) == pytest.approx(1.0)
        assert cfg.enabled_groups == ALL_GROUPS

    @pytest.mark.parametrize("kwargs", [
        {"typo_rate": -0.1},
        {"confusion_rate": 1.5},
        {"typo_mix": {"substitution": 1.0}},
        {"typo_mix": {"substitution": 0.5, "deletion": 0.5,
                      "insertion": 0.5, "transposition": 0.5}},
        {"enabled_groups": frozenset({ErrorCategory.OTHER})},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CorruptionConfig(**kwargs)


class TestSampleRng:
    def test_deterministic(self):
        a = sample_rng(7, "sample-1", 0)
        b = sample_rng(7, "sample-1", 0)
        assert isinstance(a, random.Random)
        assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]

    def test_streams_differ_by_family_and_id(self):
        def first(*key):
            stream = sample_rng(*key)
            return [stream.random() for _ in range(4)]

        base = first(7, "sample-1", 0)
        assert base != first(7, "sample-1", 1)
        assert base != first(7, "sample-2", 0)
        assert base != first(8, "sample-1", 0)
        # the separators keep the fields apart: run together, seed 1,
        # family 2, id "3" and seed 12, family 3, id "" would both read "123"
        assert first(1, "3", 2) != first(12, "", 3)


class TestDraws:
    @pytest.mark.parametrize("weights", [
        [1.0],
        [0.0, 3.0, 0.0, 1e-300],
        [1e6, 1e-3, 5.0, 0.0, 7.0],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        [0.1] * 10,
    ])
    def test_table_never_falls_and_ends_at_one(self, weights):
        cumulative = _cumulative(weights)
        assert len(cumulative) == len(weights)
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == 1.0

    def test_pick_frequencies_follow_weights(self):
        weights = [5, 0, 1, 3, 0, 1]
        cumulative, stream = _cumulative(weights), rng(11)
        n = 40_000
        seen = Counter(_pick(cumulative, stream) for _ in range(n))
        assert seen[1] == seen[4] == 0  # a zero weight is never taken
        for k, w in enumerate(weights):
            p = w / sum(weights)
            # within 5 standard deviations of the expected count
            assert abs(seen[k] - n * p) <= 5 * (n * p * (1 - p)) ** 0.5

    def test_pick_draws_one_uniform(self):
        picked, twin = rng(3), rng(3)
        cumulative = _cumulative([1, 2, 3])
        for _ in range(50):
            u = twin.random()
            assert _pick(cumulative, picked) == sum(c <= u for c in cumulative)

    @pytest.mark.parametrize("weights", [
        [0.5, -0.5, 1.0],
        [0.5, float("nan")],
        [1.0, float("inf")],
        [0.0, 0.0],
        [],
    ])
    def test_table_refuses_bad_weights(self, weights):
        with pytest.raises(ValueError, match="draw weights must be finite, non-negative"):
            _cumulative(weights)

    def test_corrupt_chains_the_single_family_ops(self, corpus_factory):
        cfg = CorruptionConfig(seed=5, typo_rate=0.05, confusion_rate=0.05, other_rate=0.05)
        for sample in corpus_factory(10, seed=2):
            def stream(index):
                return sample_rng(cfg.seed, sample.id, index)

            text, edits = corrupt_typos(sample.text, cfg, default_keyboard(), stream(0))
            text, edits = corrupt_confusions(text, default_table(), cfg.confusion_rate,
                                             stream(1), edits)
            for index, op in enumerate((corrupt_gemination, corrupt_assimilation,
                                        corrupt_casing, corrupt_spaces), start=2):
                text, edits = op(text, cfg.other_rate, stream(index), edits)
            assert apply_edits(text, edits) == sample.text
            assert corrupt(sample, cfg).source == text


class TestGemination:
    def test_sites(self):
        assert gemination_sites("iššūkis") == [1]
        assert gemination_sites("pusseserė") == [2]
        # ž+s is a sibilant pair even though the letters differ
        assert gemination_sites("užsimerkė") == [1]
        assert gemination_sites("vasara") == []

    def test_drops_first_letter_of_pair(self):
        text, edits = corrupt_gemination("iššūkis", ALWAYS, rng())
        assert text == "išūkis"
        assert apply_edits(text, edits) == "iššūkis"
        assert [e.category for e in edits] == [ErrorCategory.ASSIMILATION_GEMINATION]

    def test_sentence(self):
        text, edits = corrupt_gemination("pusseserė užsimerkė", ALWAYS, rng())
        assert text == "puseserė usimerkė"
        assert apply_edits(text, edits) == "pusseserė užsimerkė"

    def test_rate_zero_is_identity(self):
        text, edits = corrupt_gemination("iššūkis", 0.0, rng())
        assert text == "iššūkis" and edits == []


class TestAssimilation:
    def test_sites(self):
        assert assimilation_sites("dirbti") == [3]    # b before t
        assert assimilation_sites("atgal") == [1]     # t before g
        assert assimilation_sites("vasara") == []
        assert assimilation_sites("antis") == []      # nt is not a voicing pair

    def test_voicing_swap(self):
        text, edits = corrupt_assimilation("dirbti, lipdavo", ALWAYS, rng())
        assert text == "dirpti, libdavo"
        assert apply_edits(text, edits) == "dirbti, lipdavo"

    def test_atgal(self):
        text, _ = corrupt_assimilation("atgal", ALWAYS, rng())
        assert text == "adgal"

    def test_case_preserved(self):
        text, _ = corrupt_assimilation("Sdfilius", ALWAYS, rng())
        assert text.startswith("Z")


class TestCasing:
    def test_sentence_initial_words_excluded(self):
        sites = casing_sites("Vakar bare „Oscar“ buvo gera. Kitas sakinys čia.")
        texts = sorted("Vakar bare „Oscar“ buvo gera. Kitas sakinys čia."[i] for i in sites)
        # 'Vakar' and 'Kitas' start sentences; 'Oscar' follows an opening quote
        assert "V" not in texts and "K" not in texts
        assert "O" in texts

    def test_flip(self):
        text, edits = corrupt_casing("Vakar bare „Oscar“ buvo gera", ALWAYS, rng())
        assert text == "Vakar Bare „oscar“ Buvo Gera"
        assert apply_edits(text, edits) == "Vakar bare „Oscar“ buvo gera"
        assert {e.category for e in edits} == {ErrorCategory.CASING}

    def test_numbers_not_flipped(self):
        text, edits = corrupt_casing("Metai 1918 čia", ALWAYS, rng())
        assert "1918" in text


class TestSpaces:
    def test_sites(self):
        dels, ins = space_sites("ab cd")
        assert dels == [2]
        assert ins == [1, 4]

    def test_full_rate(self):
        text, edits = corrupt_spaces("ab cd", ALWAYS, rng())
        assert text == "a bcd" or text.replace(" ", "") == "abcd"
        assert apply_edits(text, edits) == "ab cd"
        assert {e.category for e in edits} == {ErrorCategory.SPACES}

    def test_rate_zero_identity(self):
        text, edits = corrupt_spaces("ab cd", 0.0, rng())
        assert (text, edits) == ("ab cd", [])


class TestTypos:
    def test_rate_zero_identity(self, paragraphs):
        cfg = CorruptionConfig(typo_rate=0.0)
        text, edits = corrupt_typos(paragraphs[0], cfg, default_keyboard(), rng())
        assert text == paragraphs[0] and edits == []

    def test_substitution_uses_weight_file(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("p b 1.0\n", encoding="utf-8")
        kbd = KeyboardModel(weights=load_keyboard_weights(path))
        cfg = CorruptionConfig(
            typo_rate=1.0,
            typo_mix={"substitution": 1.0, "deletion": 0.0,
                      "insertion": 0.0, "transposition": 0.0},
        )
        text, edits = corrupt_typos("p", cfg, kbd, rng())
        assert text == "b"
        assert apply_edits(text, edits) == "p"

    def test_deletion_only(self):
        cfg = CorruptionConfig(
            typo_rate=1.0,
            typo_mix={"substitution": 0.0, "deletion": 1.0,
                      "insertion": 0.0, "transposition": 0.0},
        )
        text, edits = corrupt_typos("abc", cfg, default_keyboard(), rng())
        assert text == ""
        assert apply_edits(text, edits) == "abc"

    def test_insertion_adds_neighbor_after_char(self):
        cfg = CorruptionConfig(
            typo_rate=1.0,
            typo_mix={"substitution": 0.0, "deletion": 0.0,
                      "insertion": 1.0, "transposition": 0.0},
        )
        kbd = default_keyboard()
        text, edits = corrupt_typos("k", cfg, kbd, rng())
        assert len(text) == 2 and text[0] == "k"
        assert text[1] in kbd.neighbors("k")
        assert apply_edits(text, edits) == "k"

    def test_transposition_swaps_adjacent(self):
        cfg = CorruptionConfig(
            typo_rate=1.0,
            typo_mix={"substitution": 0.0, "deletion": 0.0,
                      "insertion": 0.0, "transposition": 1.0},
        )
        text, edits = corrupt_typos("at", cfg, default_keyboard(), rng())
        assert text == "ta"
        assert apply_edits(text, edits) == "at"

    def test_linebreaks_never_touched(self):
        cfg = CorruptionConfig(typo_rate=1.0)
        text, _ = corrupt_typos("ab\ncd\n", cfg, default_keyboard(), rng())
        assert text.count("\n") == 2


class TestConfusions:
    def test_single_option_deterministic(self):
        table = ConfusionTable((ConfusionGroup("[zž]", (("z", 1), ("ž", 5))),))
        text, edits = corrupt_confusions("graži", table, ALWAYS, rng())
        assert text == "grazi"
        assert apply_edits(text, edits) == "graži"
        assert edits[0].category is ErrorCategory.SIMILAR_SOUNDING

    def test_punctuation_group_category(self):
        table = ConfusionTable(default_table().by_category({ErrorCategory.PUNCTUATION}))
        text, edits = corrupt_confusions("vienas, du – trys. ", table, ALWAYS, rng(3))
        assert edits
        assert {e.category for e in edits} == {ErrorCategory.PUNCTUATION}
        assert apply_edits(text, edits) == "vienas, du – trys. "

    def test_rate_zero_identity(self):
        text, edits = corrupt_confusions("graži", default_table(), 0.0, rng())
        assert (text, edits) == ("graži", [])


    def test_groups_with_one_pattern_keep_their_own_options(self):
        table = ConfusionTable((ConfusionGroup("[ab]", (("a", 1),)),
                                ConfusionGroup("[ab]", (("a", 1), ("c", 1)))))
        text, edits = corrupt_confusions("a a a", table, ALWAYS, rng())
        assert text == "c c c"
        assert apply_edits(text, edits) == "a a a"


class TestCorrupt:
    def test_round_trip_and_categories(self, corpus_factory):
        cfg = CorruptionConfig(seed=11)
        for sample in corpus_factory(40, seed=5):
            pair = corrupt(sample, cfg)
            assert pair.target == sample.text
            assert apply_edits(pair.source, pair.edits) == pair.target
            for e in pair.edits:
                assert e.category is not None

    def test_deterministic_per_sample(self, corpus_factory):
        cfg = CorruptionConfig(seed=3)
        sample = corpus_factory(1, seed=9)[0]
        assert corrupt(sample, cfg) == corrupt(sample, cfg)

    def test_zero_rates_produce_clean_pair(self, paragraphs):
        cfg = CorruptionConfig(typo_rate=0.0, confusion_rate=0.0, other_rate=0.0)
        pair = corrupt(TextSample("x", paragraphs[0]), cfg)
        assert pair.source == pair.target == paragraphs[0]
        assert pair.edits == ()

    def test_enabled_groups_bound_categories(self, corpus_factory):
        only_spaces = CorruptionConfig(
            other_rate=0.3, enabled_groups=frozenset({ErrorCategory.SPACES}), seed=2
        )
        seen = set()
        for sample in corpus_factory(20, seed=1):
            pair = corrupt(sample, only_spaces)
            seen.update(e.category for e in pair.edits)
        assert seen == {ErrorCategory.SPACES}

    def test_gold_edits_sorted_disjoint(self, corpus_factory):
        cfg = CorruptionConfig(seed=21, typo_rate=0.05, confusion_rate=0.05,
                               other_rate=0.05)
        for sample in corpus_factory(30, seed=4):
            pair = corrupt(sample, cfg)
            for prev, cur in zip(pair.edits, pair.edits[1:]):
                assert prev.end <= cur.start


class TestRuleErrors:
    def test_rule_corrector_undoes_everything(self, paragraphs):
        for k, text in enumerate(paragraphs):
            clean = preprocess(text)
            pair = corrupt_rule_errors(TextSample(f"p{k}", clean), rate=0.6, seed=13)
            assert pair.target == clean
            assert apply_edits(pair.source, pair.edits) == clean
            assert rule_correct(pair.source) == clean

    def test_produces_quote_and_space_errors(self, paragraphs):
        categories = set()
        for k, text in enumerate(paragraphs):
            pair = corrupt_rule_errors(TextSample(f"p{k}", preprocess(text)),
                                       rate=1.0, seed=1)
            categories.update(e.category for e in pair.edits)
        assert ErrorCategory.SPACES in categories
        assert ErrorCategory.PUNCTUATION in categories

    def test_rate_zero_identity(self, paragraphs):
        pair = corrupt_rule_errors(TextSample("x", paragraphs[0]), rate=0.0, seed=1)
        assert pair.source == pair.target
        assert pair.edits == ()

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="rate must be in"):
            corrupt_rule_errors(TextSample("x", "Labas „rytas“ ."), rate=rate, seed=1)
