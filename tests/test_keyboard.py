import pytest

from ltgec.keyboard import KeyboardModel, default_keyboard, load_keyboard_weights


@pytest.fixture(scope="module")
def kbd():
    return default_keyboard()


def test_default_keyboard_is_built_once():
    assert default_keyboard() is default_keyboard()


class TestAdjacency:
    def test_home_row_neighbors(self, kbd):
        ns = set(kbd.neighbors("s"))
        assert {"a", "d", "w", "e", "x", "z"} <= ns
        assert "s" not in ns

    def test_same_row_is_distance_one(self, kbd):
        assert "o" in kbd.neighbors("i")
        assert "u" in kbd.neighbors("i")
        assert "y" not in kbd.neighbors("i")

    def test_space_neighbors(self, kbd):
        assert set(kbd.neighbors(" ")) == set("cvbnm")
        assert " " in kbd.neighbors("b")

    def test_adjacency_symmetric(self, kbd):
        for key, ns in kbd.adjacency.items():
            for n in ns:
                assert key in kbd.adjacency[n], (key, n)

    def test_case_restored(self, kbd):
        lowers = kbd.neighbors("s")
        uppers = kbd.neighbors("S")
        assert uppers == [n.upper() if n.isalpha() else n for n in lowers]


class TestFolding:
    def test_diacritics_fold_to_base_key(self, kbd):
        assert kbd.neighbors("ą") == kbd.neighbors("a")
        assert kbd.neighbors("ž") == kbd.neighbors("z")
        assert kbd.neighbors("Ū") == kbd.neighbors("U")

    def test_quote_and_dash_aliases(self, kbd):
        assert kbd.neighbors("„") == kbd.neighbors("'")
        assert kbd.neighbors("–") == kbd.neighbors("-")

    def test_unknown_char_has_no_neighbors(self, kbd):
        assert kbd.neighbors("☃") == []
        assert kbd.substitution_options("☃") == ([], [])


class TestWeights:
    def test_uniform_by_default(self, kbd):
        chars, weights = kbd.substitution_options("p")
        assert len(chars) == len(weights)
        assert set(weights) == {1.0}
        assert "b" not in chars  # p and b are not physically adjacent

    def test_weight_file_overrides(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("# tuned pairs\np b 9.0\np o 1.0\n\\s c 4.0\n", encoding="utf-8")
        model = KeyboardModel(weights=load_keyboard_weights(path))
        chars, weights = model.substitution_options("p")
        assert list(zip(chars, weights)) == [("b", 9.0), ("o", 1.0)]
        space_chars, space_weights = model.substitution_options(" ")
        assert list(zip(space_chars, space_weights)) == [("c", 4.0)]

    def test_weighted_key_keeps_case(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("p b 1.0\n", encoding="utf-8")
        model = KeyboardModel(weights=load_keyboard_weights(path))
        assert model.substitution_options("P")[0] == ["B"]

    def test_unweighted_keys_fall_back_to_adjacency(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("p b 1.0\n", encoding="utf-8")
        model = KeyboardModel(weights=load_keyboard_weights(path))
        assert set(model.neighbors("s")) == set(default_keyboard().neighbors("s"))
        assert model.substitution_options("s")[0] == list(model.adjacency["s"])

    @pytest.mark.parametrize("line", [
        "p 1.0",               # missing target
        "pp b 1.0",            # multi-char key
        "p b zero",            # weight not a number
        "p b -2",              # weight not positive
        "p b nan",             # weight not a finite number
        "p b inf",
    ])
    def test_malformed_lines_report_number(self, tmp_path, line):
        path = tmp_path / "weights.tsv"
        path.write_text("p b 1.0\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: "):
            load_keyboard_weights(path)
