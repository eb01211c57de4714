import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ltgec
from ltgec import cli
from ltgec.cli import main
from ltgec.confusions import read_table
from ltgec.corpus import TextSample, read_samples, write_samples
from ltgec.corrector import load_model
from ltgec.edits import ErrorCategory, apply_edits, read_pairs


def write_corpus(path, samples):
    with open(path, "w", encoding="utf-8") as fp:
        write_samples(samples, fp)


def load_pairs(path):
    with open(path, encoding="utf-8") as fp:
        return list(read_pairs(fp))


def load_samples(path):
    with open(path, encoding="utf-8") as fp:
        return list(read_samples(fp))


@pytest.fixture
def corpus_file(tmp_path, corpus_factory):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus_factory(30, seed=5))
    return path


class TestPreprocess:
    def test_cleans_filters_and_reports(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        write_corpus(inp, [
            TextSample("keep", "Vakar mieste gatvės buvo sausos ir tylios."),
            TextSample("fix", "Jis sakė , kad viskas gerai, ir išėjo namo."),
            TextSample("short", "Per trumpa."),
            TextSample("dup", "Vakar mieste gatvės buvo sausos ir tylios."),
        ])
        assert main(["preprocess", str(inp), str(out)]) == 0
        report = capsys.readouterr().out
        assert "read 4 samples, wrote 2" in report
        assert "TooShort: 1" in report
        assert "Duplicate: 1" in report
        kept = load_samples(out)
        assert [s.id for s in kept] == ["keep", "fix"]
        assert kept[1].text == "Jis sakė, kad viskas gerai, ir išėjo namo."

    def test_splits_long_samples(self, tmp_path, long_word_text):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        base = ("Ilgas sakinys apie nepriklausomybę ir atsakomybę. " * 20).strip()
        write_corpus(inp, [TextSample("long", base)])
        assert main(["preprocess", str(inp), str(out), "--max-chars", "200"]) == 0
        pieces = load_samples(out)
        assert len(pieces) > 1
        assert pieces[0].id == "long.0"
        assert all(len(p.text) <= 200 for p in pieces)

    def test_split_piece_id_taken_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        long = ("Ilgas sakinys apie nepriklausomybę ir atsakomybę. " * 4).strip()
        write_corpus(inp, [TextSample("x", long),
                           TextSample("x.0", "Vakar mieste gatvės buvo sausos.")])
        assert main(["preprocess", str(inp), str(tmp_path / "o.jsonl"),
                     "--max-chars", "100"]) == 1
        assert capsys.readouterr().err == (
            f"error E_INPUT: {inp}: piece 0 of the split sample 'x' would take the id "
            f"'x.0' of another sample\n")

    def test_reads_plain_text_paragraphs(self, tmp_path, paragraphs):
        inp = tmp_path / "in.txt"
        out = tmp_path / "out.jsonl"
        inp.write_text("\n\n".join(paragraphs[:3]), encoding="utf-8")
        assert main(["preprocess", str(inp), str(out)]) == 0
        kept = load_samples(out)
        assert len(kept) == 3
        assert kept[0].source == "in.txt"

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = main(["preprocess", str(tmp_path / "nope.jsonl"), str(out)])
        assert code == 1
        assert "error E_IO" in capsys.readouterr().err


class TestCorrupt:
    def test_seed_is_required(self, corpus_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["corrupt", str(corpus_file), str(tmp_path / "out.jsonl")])

    def test_pairs_round_trip(self, corpus_file, tmp_path):
        out = tmp_path / "pairs.jsonl"
        assert main(["corrupt", str(corpus_file), str(out), "--seed", "7"]) == 0
        pairs = load_pairs(out)
        assert len(pairs) == 30
        assert any(p.edits for p in pairs)
        for p in pairs:
            assert apply_edits(p.source, p.edits) == p.target

    def test_m2_output(self, corpus_file, tmp_path):
        out = tmp_path / "pairs.m2"
        assert main(["corrupt", str(corpus_file), str(out), "--seed", "7"]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("S ")
        assert "\nA " in text

    def test_group_restriction(self, corpus_file, tmp_path):
        out = tmp_path / "pairs.jsonl"
        assert main(["corrupt", str(corpus_file), str(out),
                     "--seed", "7", "--groups", "spaces",
                     "--other-rate", "0.3"]) == 0
        cats = {e.category for p in load_pairs(out) for e in p.edits}
        assert cats == {ErrorCategory.SPACES}

    def test_unknown_group_rejected(self, corpus_file, tmp_path, capsys):
        code = main(["corrupt", str(corpus_file), str(tmp_path / "o.jsonl"),
                     "--seed", "7", "--groups", "banana"])
        assert code == 1
        assert "error E_INPUT" in capsys.readouterr().err

    def test_rule_errors_mode(self, corpus_file, tmp_path):
        out = tmp_path / "pairs.jsonl"
        assert main(["corrupt", str(corpus_file), str(out),
                     "--seed", "7", "--rule-errors", "--rate", "0.5"]) == 0
        pairs = load_pairs(out)
        assert any(p.edits for p in pairs)

    @pytest.mark.parametrize("rate", ["-1", "5"])
    def test_rule_error_rate_outside_unit_interval_rejected(self, rate, corpus_file,
                                                            tmp_path, capsys):
        code = main(["corrupt", str(corpus_file), str(tmp_path / "o.jsonl"),
                     "--seed", "7", "--rule-errors", "--rate", rate])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error E_INPUT: --rate must be in [0, 1]")
        assert err.count("\n") == 1

    @pytest.fixture
    def multiline_file(self, tmp_path):
        """Two samples, the second of which M2 cannot hold."""
        path = tmp_path / "in.jsonl"
        write_corpus(path, [TextSample("a", "Geras sakinys apie orą."),
                            TextSample("b", "Pirma eilutė.\nAntra eilutė.")])
        return path

    def test_failed_write_leaves_no_output(self, multiline_file, tmp_path, capsys):
        out = tmp_path / "out.m2"
        assert main(["corrupt", str(multiline_file), str(out), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error E_INPUT: pair b:") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_write_keeps_a_symlinked_output(self, multiline_file, tmp_path, capsys):
        target = tmp_path / "target.txt"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "out.m2"
        link.symlink_to(target)
        assert main(["corrupt", str(multiline_file), str(link), "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error E_INPUT: pair b:")
        assert link.is_symlink() and target.is_file()

    def test_jobs_do_not_change_output(self, corpus_file, tmp_path):
        one = tmp_path / "one.jsonl"
        four = tmp_path / "four.jsonl"
        assert main(["corrupt", str(corpus_file), str(one),
                     "--seed", "42", "--jobs", "1"]) == 0
        assert main(["corrupt", str(corpus_file), str(four),
                     "--seed", "42", "--jobs", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()


class TestEvaluate:
    @pytest.fixture
    def gold_file(self, corpus_file, tmp_path):
        out = tmp_path / "gold.jsonl"
        main(["corrupt", str(corpus_file), str(out), "--seed", "7"])
        return out

    def test_perfect_hypotheses_by_id(self, gold_file, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        write_corpus(hyp, [TextSample(p.id, p.target)
                           for p in load_pairs(gold_file)])
        report_path = tmp_path / "report.json"
        assert main(["evaluate", str(gold_file), str(hyp),
                     "--json", str(report_path)]) == 0
        table = capsys.readouterr().out
        assert "overall" in table
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["precision"] == 1.0
        assert data["recall"] == 1.0
        assert data["f_beta"] == 1.0

    def test_text_line_hypotheses(self, gold_file, tmp_path, capsys):
        pairs = load_pairs(gold_file)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(p.source + "\n" for p in pairs), encoding="utf-8")
        assert main(["evaluate", str(gold_file), str(hyp)]) == 0
        assert "overall" in capsys.readouterr().out

    def test_m2_gold(self, corpus_file, tmp_path, capsys):
        gold = tmp_path / "gold.m2"
        main(["corrupt", str(corpus_file), str(gold), "--seed", "7"])
        pairs_m2 = tmp_path / "hyp.txt"
        from ltgec.m2 import read_m2
        with open(gold, encoding="utf-8") as fp:
            targets = [p.target for p in read_m2(fp)]
        pairs_m2.write_text("".join(t + "\n" for t in targets), encoding="utf-8")
        assert main(["evaluate", str(gold), str(pairs_m2)]) == 0
        assert "1.0000" in capsys.readouterr().out

    def test_missing_id_is_input_error(self, gold_file, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        write_corpus(hyp, [TextSample("unrelated", "tekstas")])
        assert main(["evaluate", str(gold_file), str(hyp)]) == 1
        assert "error E_INPUT" in capsys.readouterr().err

    def test_inconsistent_jsonl_gold_is_input_error(self, gold_file, tmp_path, capsys):
        records = gold_file.read_text(encoding="utf-8").splitlines()
        bad = json.loads(records[1])
        bad["target"] += "!"
        records[1] = json.dumps(bad, ensure_ascii=False)
        gold_file.write_text("\n".join(records) + "\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("x\n" * len(records), encoding="utf-8")
        assert main(["evaluate", str(gold_file), str(hyp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error E_INPUT: bad pair record on line 2:")
        assert "do not turn the source into the target" in err

    def test_unsorted_m2_gold_is_input_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.m2"
        gold.write_text("S abcd\nA 2 3|||other|||X|||0\nA 0 1|||other|||Y|||0\n",
                        encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("YbXd\n", encoding="utf-8")
        assert main(["evaluate", str(gold), str(hyp)]) == 1
        assert capsys.readouterr().err == "error E_INPUT: m2 line 1: edits not sorted\n"

    def test_line_count_mismatch_is_input_error(self, gold_file, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("viena eilutė\n", encoding="utf-8")
        assert main(["evaluate", str(gold_file), str(hyp)]) == 1
        assert "error E_INPUT" in capsys.readouterr().err

    PAIR = {"id": "a", "source": "abc", "target": "abd", "edits": [[2, 3, "d", "typographical"]]}

    def test_repeated_gold_id_is_one_input_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        same_id = {"id": "a", "source": "xyz", "target": "xyz", "edits": []}
        gold.write_text(f"{json.dumps(self.PAIR)}\n{json.dumps(same_id)}\n", encoding="utf-8")
        hyp = tmp_path / "hyp.jsonl"
        write_corpus(hyp, [TextSample("a", "abd")])
        assert main(["evaluate", str(gold), str(hyp)]) == 1
        assert capsys.readouterr().err == (
            f"error E_INPUT: {gold}:2: sample id 'a' repeats line 1\n")

    @pytest.mark.parametrize("span", [[2.9, 3], ["2", 3], [2, 3.0]])
    def test_non_integer_span_is_one_input_error(self, span, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pair = {**self.PAIR, "edits": [[*span, "d", "typographical"]]}
        gold.write_text(json.dumps(pair) + "\n", encoding="utf-8")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("abd\n", encoding="utf-8")
        assert main(["evaluate", str(gold), str(hyp)]) == 1
        bad = span[0] if span[0] != 2 else span[1]
        assert capsys.readouterr().err == (
            f"error E_INPUT: bad pair record on line 1: edit spans must be integers, "
            f"got {bad!r}\n")


class TestJobs:
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(multiprocessing, "Pool", refuse)

    @pytest.mark.parametrize("command", ["preprocess", "corrupt", "correct"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_rejected(self, command, jobs, corpus_file, tmp_path, capsys):
        extra = ["--seed", "1"] if command == "corrupt" else []
        code = main([command, str(corpus_file), str(tmp_path / "o.jsonl"),
                     "--jobs", jobs, *extra])
        assert code == 1
        assert "error E_INPUT: --jobs must be a positive integer" in capsys.readouterr().err

    # 0 is a number, refused where the jobs are mapped; 1.5 is refused as
    # the config is read, as --jobs 1.5 is refused on the command line
    CONFIG_ERRORS = {
        "0": "--jobs must be a positive integer, got 0",
        "1.5": "{cfg}:1: jobs needs a whole number, got '1.5'",
    }

    @pytest.mark.parametrize("value", sorted(CONFIG_ERRORS))
    def test_bad_config_value_rejected(self, value, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text(f"jobs = {value}\n", encoding="utf-8")
        code = main(["corrupt", str(corpus_file), str(tmp_path / "o.jsonl"),
                     "--seed", "1", "--config", str(cfg)])
        assert code == 1
        message = self.CONFIG_ERRORS[value].format(cfg=cfg)
        assert capsys.readouterr().err == f"error E_INPUT: {message}\n"

    def test_non_number_in_config_is_input_error(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("jobs = two\n", encoding="utf-8")
        code = main(["corrupt", str(corpus_file), str(tmp_path / "o.jsonl"),
                     "--seed", "1", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error E_INPUT: {cfg}:1: jobs needs a number, got 'two'\n"

    def test_one_job_runs_in_process(self, corpus_file, tmp_path):
        assert main(["corrupt", str(corpus_file), str(tmp_path / "o.jsonl"),
                     "--seed", "1", "--jobs", "1"]) == 0


class TestMalformedSamples:
    COMMANDS = {
        "preprocess": ["OUT"],
        "corrupt": ["OUT", "--seed", "1"],
        "correct": ["OUT"],
        "stats": [],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("record", [
        {"id": "b", "text": 5},
        {"id": "b", "text": None},
        {"id": "b", "text": ["Labas rytas."]},
        {"id": "b", "text": "Labas rytas.", "source": 5},
        {"id": "b", "text": "Labas rytas.", "source": {"name": "x"}},
        {"id": None, "text": "Labas rytas."},
        {"id": {"k": 1}, "text": "Labas rytas."},
        {"id": True, "text": "Labas rytas."},
        {"id": 1.5, "text": "Labas rytas."},
    ])
    def test_bad_field_type_is_one_input_error(self, command, record, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        good = {"id": "a", "text": "Geras sakinys apie orą.", "source": "s"}
        inp.write_text(f"{json.dumps(good)}\n{json.dumps(record)}\n", encoding="utf-8")
        out = str(tmp_path / "o.jsonl")
        argv = [command, str(inp), *(out if a == "OUT" else a for a in self.COMMANDS[command])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error E_INPUT: bad sample record on line 2: ")
        assert err.count("\n") == 1

    def test_null_source_reads_as_absent(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"id": "a", "text": "Labas.", "source": null}\n', encoding="utf-8")
        assert load_samples(inp) == [TextSample("a", "Labas.")]


class TestDrawWeights:
    """Weights that cannot be drawn from are refused as their file is read,
    whether or not a site would have drawn on them."""

    COMMANDS = {
        "corrupt": ["--seed", "1", "--typo-rate", "1", "--confusion-rate", "1"],
        "correct": ["--lm-corpus", "IN"],
    }

    def run(self, command, option, path, tmp_path):
        inp = tmp_path / "in.jsonl"
        write_corpus(inp, [TextSample("a", "Labas rytas, kaip sekasi šiandien?")])
        extra = [str(inp) if a == "IN" else a for a in self.COMMANDS[command]]
        return main([command, str(inp), str(tmp_path / "o.jsonl"), *extra,
                     option, str(path)])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_keyboard_weight(self, command, weight, tmp_path, capsys):
        weights = tmp_path / "weights.tsv"
        weights.write_text(f"a s 1.0\na q {weight}\n", encoding="utf-8")
        assert self.run(command, "--keyboard-weights", weights, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"error E_INPUT: {weights}:2: weight must be positive and finite, "
            f"got {weight!r}\n")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_table_count(self, command, tmp_path, capsys):
        table = tmp_path / "table.tsv"
        table.write_text('group\t"[aeo]"\tsimilar-sounding\n\t"a"\t5\n\t"e"\t-1\n\t"o"\t2\n',
                         encoding="utf-8")
        assert self.run(command, "--table", table, tmp_path) == 1
        assert capsys.readouterr().err == (
            "error E_INPUT: confusion table line 3: negative count -1\n")


class TestMalformedInputs:
    """Each malformed line is one error line and no traceback, through every
    subcommand that reads that kind of file."""

    SAMPLE = {"id": "a", "text": "Geras sakinys apie orą.", "source": "s"}
    PAIR = {"id": "a", "source": "abc", "target": "abd", "edits": [[2, 3, "d", "typographical"]]}
    SAMPLE_LINES = {
        "bad-utf8": b"\xff\xfe not text",
        "json-array": b'["b", "Labas rytas."]',
        "no-id": b'{"text": "Labas rytas."}',
        "no-text": b'{"id": "b"}',
    }
    SAMPLE_READERS = {
        "preprocess": ["preprocess", "BAD", "OUT"],
        "corrupt": ["corrupt", "BAD", "OUT", "--seed", "1"],
        "correct": ["correct", "BAD", "OUT"],
        "correct --lm-corpus": ["correct", "GOOD", "OUT", "--lm-corpus", "BAD"],
        "stats": ["stats", "BAD"],
        "derive-stats": ["derive-stats", "BAD", "OUT"],
        "evaluate hypotheses": ["evaluate", "GOLD", "BAD"],
    }
    PAIR_LINES = {
        "bad-utf8": b"\xff\xfe not text",
        "json-array": b'["b", "abc", "abc", []]',
        "no-id": b'{"source": "abc", "target": "abc", "edits": []}',
        "no-source": b'{"id": "b", "target": "abc", "edits": []}',
        "bad-category": b'{"id": "b", "source": "abc", "target": "abd", '
                        b'"edits": [[2, 3, "d", "typo"]]}',
    }
    M2_BLOCKS = {
        "bad-utf8": b"S \xff\xfe\nA -1 -1|||noop|||-NONE-|||0\n",
        "span-past-end": b"S abc\nA 2 9|||other|||d|||0\n",
        "span-reversed": b"S abc\nA 2 1|||other|||d|||0\n",
    }
    # what the error line says, after "error E_INPUT: "; BAD is the bad file
    SAID = {
        "bad-utf8": "BAD:2: not UTF-8: byte 0xff at column 1",
        "no-id": "bad {} record on line 2: missing field 'id'",
        "no-text": "bad {} record on line 2: missing field 'text'",
        "no-source": "bad {} record on line 2: missing field 'source'",
        "bad-category": "bad {} record on line 2: unknown edit category 'typo'",
    }

    def run(self, argv, tmp_path, capsys, bad_name, bad_bytes):
        bad = tmp_path / bad_name
        bad.write_bytes(bad_bytes)
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps(self.SAMPLE) + "\n", encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(self.PAIR) + "\n", encoding="utf-8")
        paths = {"BAD": bad, "GOOD": good, "GOLD": gold, "OUT": tmp_path / "o.jsonl"}
        code = main([str(paths.get(a, a)) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error E_") and err.count("\n") == 1
        assert "Traceback" not in err
        return err.replace(str(bad), "BAD")

    @pytest.mark.parametrize("reader", sorted(SAMPLE_READERS))
    @pytest.mark.parametrize("line", sorted(SAMPLE_LINES))
    def test_bad_sample_line(self, reader, line, tmp_path, capsys):
        data = json.dumps(self.SAMPLE).encode() + b"\n" + self.SAMPLE_LINES[line] + b"\n"
        err = self.run(self.SAMPLE_READERS[reader], tmp_path, capsys, "bad.jsonl", data)
        if line in self.SAID:
            assert err == f"error E_INPUT: {self.SAID[line].format('sample')}\n"

    @pytest.mark.parametrize("line", sorted(PAIR_LINES))
    def test_bad_jsonl_gold_line(self, line, tmp_path, capsys):
        data = json.dumps(self.PAIR).encode() + b"\n" + self.PAIR_LINES[line] + b"\n"
        (tmp_path / "hyp.txt").write_text("abd\nabc\n", encoding="utf-8")
        err = self.run(["evaluate", "BAD", str(tmp_path / "hyp.txt")], tmp_path, capsys,
                       "bad.jsonl", data)
        if line in self.SAID:
            assert err == f"error E_INPUT: {self.SAID[line].format('pair')}\n"

    @pytest.mark.parametrize("block", sorted(M2_BLOCKS))
    def test_bad_m2_gold(self, block, tmp_path, capsys):
        data = b"S abc\nA 2 3|||other|||d|||0\n\n" + self.M2_BLOCKS[block]
        (tmp_path / "hyp.txt").write_text("abd\nabc\n", encoding="utf-8")
        err = self.run(["evaluate", "BAD", str(tmp_path / "hyp.txt")], tmp_path, capsys,
                       "bad.m2", data)
        if block == "bad-utf8":
            assert err == "error E_INPUT: BAD:4: not UTF-8: byte 0xff at column 3\n"

    def test_bad_utf8_in_keyboard_weights(self, tmp_path, capsys):
        err = self.run(["corrupt", "GOOD", "OUT", "--seed", "1", "--keyboard-weights", "BAD"],
                       tmp_path, capsys, "kb.tsv", b"a s 1.0\n\xff b 1\n")
        assert err == "error E_INPUT: BAD:2: not UTF-8: byte 0xff at column 1\n"

    def test_bad_utf8_in_plain_text_hypotheses(self, tmp_path, capsys):
        (tmp_path / "gold.jsonl").write_text(json.dumps(self.PAIR) + "\n", encoding="utf-8")
        err = self.run(["evaluate", "GOLD", "BAD"], tmp_path, capsys, "hyp.txt",
                       b"ab\xc3d\n")
        assert err == "error E_INPUT: BAD:1: not UTF-8: byte 0xc3 at column 3\n"


class TestSampleIds:
    GOOD = {"id": "a", "text": "Geras sakinys apie orą.", "source": "s"}

    def write(self, path, *records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["preprocess", "corrupt", "correct"])
    def test_repeated_id_is_one_input_error(self, command, tmp_path, capsys):
        # an integer id reads in decimal, so 1 and "1" are one id
        inp = self.write(tmp_path / "in.jsonl", {**self.GOOD, "id": 1},
                         {**self.GOOD, "id": "b"},
                         {**self.GOOD, "id": "1", "text": "Kitas sakinys apie orą."})
        extra = TestMalformedSamples.COMMANDS[command][1:]
        assert main([command, str(inp), str(tmp_path / "o.jsonl"), *extra]) == 1
        assert capsys.readouterr().err == (
            f"error E_INPUT: {inp}:3: sample id '1' repeats line 1\n")

    def test_repeated_hypothesis_id_is_one_input_error(self, tmp_path, capsys):
        inp = self.write(tmp_path / "in.jsonl", self.GOOD)
        gold = tmp_path / "gold.jsonl"
        assert main(["corrupt", str(inp), str(gold), "--seed", "1"]) == 0
        hyp = self.write(tmp_path / "hyp.jsonl", self.GOOD, self.GOOD)
        capsys.readouterr()
        assert main(["evaluate", str(gold), str(hyp)]) == 1
        assert capsys.readouterr().err == (
            f"error E_INPUT: {hyp}:2: sample id 'a' repeats line 1\n")

    def test_repeats_refused_only_where_ids_key_the_input(self, tmp_path):
        repeats = self.write(tmp_path / "rep.jsonl", self.GOOD, self.GOOD)
        unique = self.write(tmp_path / "in.jsonl", self.GOOD)
        out = str(tmp_path / "o.jsonl")
        assert main(["correct", str(repeats), out]) == 1
        assert main(["correct", str(unique), out, "--lm-corpus", str(repeats)]) == 0
        assert main(["stats", str(repeats)]) == 0
        assert main(["derive-stats", str(repeats), out]) == 0


class TestStats:
    def test_reports_all_tokenizers(self, corpus_file, capsys):
        assert main(["stats", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        for name in ("chars", "bytes", "words"):
            assert name in out
        assert "Lietuva" in out  # probe sentence rendered

    def test_single_tokenizer_with_json(self, corpus_file, tmp_path, capsys):
        report_path = tmp_path / "stats.json"
        assert main(["stats", str(corpus_file), "--tokenizer", "words",
                     "--json", str(report_path)]) == 0
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert len(data) == 1
        assert data[0]["tokenizer"] == "words"
        assert data[0]["probe_tokens"] == 3

    def test_split_max_changes_sample_count(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_corpus(inp, [TextSample("0", "žodis " * 100)])
        assert main(["stats", str(inp), "--tokenizer", "chars",
                     "--split-max", "60"]) == 0
        out = capsys.readouterr().out
        assert " 1 " not in out.splitlines()[2]  # more than one piece counted

    def test_empty_corpus(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_text("", encoding="utf-8")
        assert main(["stats", str(inp)]) == 1
        assert "error E_EMPTY" in capsys.readouterr().err


class TestCorrect:
    def test_rules_only(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        write_corpus(inp, [TextSample("0", "Jis sakė , kad 1918m. viskas prasidėjo.")])
        assert main(["correct", str(inp), str(out)]) == 0
        (fixed,) = load_samples(out)
        assert fixed.text == "Jis sakė, kad 1918 m. viskas prasidėjo."

    def test_lm_corpus_with_save_model(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        lm = tmp_path / "lm.jsonl"
        model_path = tmp_path / "model.tsv"
        write_corpus(inp, [TextSample("0", "grazi diena")])
        write_corpus(lm, [TextSample(str(i), "graži diena") for i in range(60)])
        assert main(["correct", str(inp), str(out),
                     "--lm-corpus", str(lm), "--save-model", str(model_path)]) == 0
        (fixed,) = load_samples(out)
        assert fixed.text == "graži diena"
        with open(model_path, encoding="utf-8") as fp:
            model = load_model(fp)
        assert model.counts["graži"] == 60

    def test_correct_with_saved_model(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        model_path = tmp_path / "model.tsv"
        model_path.write_text("graži\t80\ndiena\t20\n", encoding="utf-8")
        write_corpus(inp, [TextSample("0", "grazi diena")])
        assert main(["correct", str(inp), str(out), "--model", str(model_path)]) == 0
        (fixed,) = load_samples(out)
        assert fixed.text == "graži diena"

    def test_model_sources_are_exclusive(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_corpus(inp, [TextSample("0", "tekstas čia")])
        code = main(["correct", str(inp), str(tmp_path / "o.jsonl"),
                     "--model", "a", "--lm-corpus", "b"])
        assert code == 1
        assert "error E_CONFIG" in capsys.readouterr().err

    def test_save_model_needs_a_model(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_corpus(inp, [TextSample("0", "tekstas čia")])
        code = main(["correct", str(inp), str(tmp_path / "o.jsonl"),
                     "--save-model", str(tmp_path / "m.tsv")])
        assert code == 1
        assert "error E_CONFIG" in capsys.readouterr().err

    def test_workers_get_the_speller_once(self, tmp_path, corpus_factory, monkeypatch):
        inp, lm = tmp_path / "in.jsonl", tmp_path / "lm.jsonl"
        write_corpus(inp, [TextSample("0", "grazi diena"), TextSample("1", "grazi naktis")])
        write_corpus(lm, corpus_factory(30, seed=5) + [TextSample("g", "graži " * 60)])
        calls = []
        map_jobs = cli._map_jobs

        def capture(fn, items, jobs, *init):
            calls.append((fn, init))
            return map_jobs(fn, items, jobs, *init)

        monkeypatch.setattr(cli, "_map_jobs", capture)
        assert main(["correct", str(inp), str(tmp_path / "o.jsonl"),
                     "--lm-corpus", str(lm), "--jobs", "2"]) == 0
        assert [s.text for s in load_samples(tmp_path / "o.jsonl")] == [
            "graži diena", "graži naktis"]
        ((fn, (initializer, (speller,))),) = calls
        # the chunks carry the worker and the samples; the speller, with its
        # model, goes to each worker once, through the pool's initializer
        assert initializer is cli._use_speller
        assert len(pickle.dumps(fn)) < 1024
        assert len(pickle.dumps(speller.model)) > 1024
        assert speller.model.counts["graži"] == 60

    @pytest.mark.parametrize("option,content,said", [
        ("--table", 'group\t"[ae]"\tsimilar-sounding\n\t"a"\t-1\n',
         "confusion table line 2: negative count -1"),
        ("--keyboard-weights", "a s nan\n", "weight must be positive and finite"),
    ])
    def test_bad_speller_input_with_a_pool_is_one_error(self, option, content, said,
                                                         tmp_path):
        inp, bad = tmp_path / "in.jsonl", tmp_path / "bad.tsv"
        write_corpus(inp, [TextSample("0", "grazi diena")])
        bad.write_text(content, encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(ltgec.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # a subprocess with a timeout: a pool whose initializer raised would
        # restart its workers forever instead of exiting
        proc = subprocess.run(
            [sys.executable, "-m", "ltgec", "correct", str(inp), str(tmp_path / "o.jsonl"),
             "--lm-corpus", str(inp), "--jobs", "2", option, str(bad)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error E_INPUT: ") and proc.stderr.count("\n") == 1
        assert said in proc.stderr


class TestDeriveStats:
    def test_counts_patterns(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "table.txt"
        patterns = tmp_path / "patterns.txt"
        write_corpus(inp, [TextSample("0", "graži žalia giria"),
                           TextSample("1", "gryna zona")])
        patterns.write_text("[zž]\n[iįy]\n", encoding="utf-8")
        assert main(["derive-stats", str(inp), str(out),
                     "--patterns", str(patterns)]) == 0
        assert "derived 2 confusion groups" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fp:
            table = read_table(fp)
        (zgroup,) = [g for g in table.groups if g.pattern == "[zž]"]
        assert dict(zgroup.variants)["ž"] == 2
        assert dict(zgroup.variants)["z"] == 1

    def test_bad_pattern_is_one_input_error(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "table.txt"
        patterns = tmp_path / "patterns.txt"
        write_corpus(inp, [TextSample("0", "graži žalia giria")])
        patterns.write_text("[zž]\n# a comment\n[ab\n", encoding="utf-8")
        assert main(["derive-stats", str(inp), str(out), "--patterns", str(patterns)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error E_INPUT: {patterns}:3: bad pattern '[ab': ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_empty_matches_are_not_counted(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "table.txt"
        patterns = tmp_path / "patterns.txt"
        write_corpus(inp, [TextSample("0", "banana a")])
        patterns.write_text("a*\n", encoding="utf-8")
        assert main(["derive-stats", str(inp), str(out), "--patterns", str(patterns)]) == 0
        with open(out, encoding="utf-8") as fp:
            (group,) = read_table(fp).groups
        assert group.variants == (("a", 4),)

    def test_default_patterns(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        out = tmp_path / "table.txt"
        write_corpus(inp, [TextSample("0", "paprastas tekstas be niekur nieko")])
        assert main(["derive-stats", str(inp), str(out)]) == 0
        with open(out, encoding="utf-8") as fp:
            table = read_table(fp)
        assert len(table.groups) > 0


class TestConfig:
    def test_config_supplies_defaults(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("tokenizer = words\n", encoding="utf-8")
        assert main(["stats", str(corpus_file), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "words" in out and "chars" not in out

    def test_flag_beats_config(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("tokenizer = words\n", encoding="utf-8")
        assert main(["stats", str(corpus_file), "--config", str(cfg),
                     "--tokenizer", "chars"]) == 0
        out = capsys.readouterr().out
        assert "chars" in out

    def test_unknown_key_rejected(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("divisor = 3\n", encoding="utf-8")
        assert main(["stats", str(corpus_file), "--config", str(cfg)]) == 1
        assert "error E_CONFIG" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, corpus_file, tmp_path, capsys):
        code = main(["stats", str(corpus_file),
                     "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error E_IO" in capsys.readouterr().err

    def test_comments_and_dashes(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("# defaults\nsplit-max = 50\n", encoding="utf-8")
        assert main(["stats", str(corpus_file), "--config", str(cfg)]) == 0

    @pytest.fixture
    def std_fds_restored(self):
        """fd 0 reads nothing, and fds 0 and 1 are put back afterwards, so a
        value taken for a file descriptor can neither block the test nor
        close its output."""
        saved = [os.dup(0), os.dup(1)]
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        yield
        for fd, copy in enumerate(saved):
            os.dup2(copy, fd)
            os.close(copy)

    # Each value either acts as its flag does, given the flag arguments, or
    # is refused with the error line given. Path values are file names
    # relative to the working directory.
    VALUES = [
        ("extra_chars = 123", "preprocess", ["--extra-chars", "123"]),
        ("groups = 1", "corrupt", ["--groups", "1"]),
        ("min_chars = 20.5", "preprocess",
         "error E_INPUT: {cfg}:1: min_chars needs a whole number, got '20.5'"),
        ("format = xml", "corrupt",
         "error E_INPUT: {cfg}:1: format needs one of auto, jsonl, text, got 'xml'"),
        ("table = 0", "corrupt", ["--table", "0"]),
        ("json = yes", "evaluate", ["--json", "yes"]),
        ("keyboard_weights = on", "corrupt", ["--keyboard-weights", "on"]),
        ("rule_errors = off", "corrupt", []),
    ]

    @pytest.mark.parametrize("line,command,expected", VALUES)
    def test_value_reads_as_its_flag(self, line, command, expected, corpus_file, tmp_path,
                                     monkeypatch, capsys, std_fds_restored):
        monkeypatch.chdir(tmp_path)
        gold, hyp = tmp_path / "gold.jsonl", tmp_path / "hyp.jsonl"
        if command == "evaluate":
            assert main(["corrupt", str(corpus_file), str(gold), "--seed", "7"]) == 0
            write_corpus(hyp, [TextSample(p.id, p.target) for p in load_pairs(gold)])
        inputs = {
            "preprocess": [str(corpus_file), "o.jsonl"],
            "corrupt": [str(corpus_file), "o.jsonl", "--seed", "1"],
            "evaluate": [str(gold), str(hyp)],
        }[command]
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")

        def run(*extra):
            capsys.readouterr()
            code = main([command, *inputs, *extra])
            out, err = capsys.readouterr()
            written = {}
            for name in ("o.jsonl", "yes"):
                if (tmp_path / name).exists():
                    written[name] = (tmp_path / name).read_bytes()
                    (tmp_path / name).unlink()
            return code, out, err, written

        got = run("--config", str(cfg))
        if isinstance(expected, str):
            assert got == (1, "", expected.format(cfg=cfg) + "\n", {})
        else:
            assert got == run(*expected)
            code, _, err, _ = got
            assert code == 0 or (err.startswith("error E_") and err.count("\n") == 1)

    def test_keys_of_other_subcommands_are_checked_then_ignored(self, corpus_file, tmp_path,
                                                                 capsys):
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("table = missing.tsv\nbeta = 2\n", encoding="utf-8")
        assert main(["stats", str(corpus_file), "--config", str(cfg)]) == 0
        cfg.write_text("min_chars = 20.5\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", str(corpus_file), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error E_INPUT: {cfg}:1: min_chars needs a whole number, got '20.5'\n")

    def test_keys_read_alike_in_every_subcommand(self):
        # load_config reads a key with any one subcommand's option for it
        parser = cli.build_parser()
        keys = cli._config_actions(parser)
        readings: dict = {}
        for sp in cli._subparsers(parser):
            for action in sp._actions:
                if action.dest in keys:
                    readings.setdefault(action.dest, set()).add(
                        (action.type, action.choices, action.nargs))
        assert readings.keys() == keys.keys()
        assert {key: r for key, r in readings.items() if len(r) > 1} == {}

    def test_parser_built_once(self, corpus_file, tmp_path, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "build_parser", counted)
        cfg = tmp_path / "ltgec.cfg"
        cfg.write_text("tokenizer = words\n", encoding="utf-8")
        assert main(["stats", str(corpus_file), "--config", str(cfg)]) == 0
        assert len(calls) == 1
