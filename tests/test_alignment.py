import functools
import tracemalloc

import numpy as np
import pytest
from conftest import PARAGRAPHS
from hypothesis import given
from hypothesis import strategies as st

from ltgec._kernels import dl_matrix
from ltgec.alignment import (
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    TRANSPOSE,
    AlignmentScript,
    AlignOp,
    _encode,
    align,
    extract_edits,
    replay,
)
from ltgec.corpus import TextSample
from ltgec.edits import Edit, apply_edits
from ltgec.noiser import CorruptionConfig, corrupt


def oracle_distance(a: str, b: str) -> int:
    """Plain recursive restricted Damerau-Levenshtein, memoized."""

    @functools.lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, d(i - 2, j - 2) + 1)
        return best

    return d(len(a), len(b))


WORDS = st.text(alphabet="abą ", max_size=10)


class TestDistance:
    @pytest.mark.parametrize("a,b,cost", [
        ("", "", 0),
        ("a", "", 1),
        ("", "ab", 2),
        ("dirbti", "dirbti", 0),
        ("dirpti", "dirbti", 1),
        ("ab", "ba", 1),
        ("grazi", "graži", 1),
        ("atle isime", "atleisime", 1),
        ("kava", "kavos", 2),
    ])
    def test_known_costs(self, a, b, cost):
        assert align(a, b).cost == cost

    @given(WORDS, WORDS)
    def test_matches_oracle(self, a, b):
        assert align(a, b).cost == oracle_distance(a, b)

    @given(WORDS, WORDS)
    def test_symmetry(self, a, b):
        assert align(a, b).cost == align(b, a).cost

    @given(WORDS)
    def test_identity(self, a):
        script = align(a, a)
        assert script.cost == 0
        assert all(op.kind == MATCH for op in script.ops)

    @given(WORDS, WORDS)
    def test_length_difference_lower_bound(self, a, b):
        assert align(a, b).cost >= abs(len(a) - len(b))


def codes(text: str) -> np.ndarray:
    """Reference encoding, one int per code point, kept apart from the
    ``_encode`` under test."""
    return np.array([ord(ch) for ch in text], dtype=np.int64)


def _dl_matrix_loops(a, b):
    """Reference full-matrix DP: the kernel the bit-parallel one replaced."""
    n = a.shape[0]
    m = b.shape[0]
    d = np.empty((n + 1, m + 1), np.int32)
    for j in range(m + 1):
        d[0, j] = j
    for i in range(1, n + 1):
        d[i, 0] = i
        ai = a[i - 1]
        for j in range(1, m + 1):
            cost = d[i - 1, j - 1] + (ai != b[j - 1])
            up = d[i - 1, j] + 1
            if up < cost:
                cost = up
            left = d[i, j - 1] + 1
            if left < cost:
                cost = left
            if i > 1 and j > 1 and ai == b[j - 2] and a[i - 2] == b[j - 1]:
                tr = d[i - 2, j - 2] + 1
                if tr < cost:
                    cost = tr
            d[i, j] = cost
    return d


def reference_align(a: str, b: str) -> AlignmentScript:
    """Reference backtrace: integer lookups in the full reference matrix."""
    d = _dl_matrix_loops(codes(a), codes(b))
    ops: list[AlignOp] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        here = d[i, j]
        if i > 0 and j > 0 and a[i - 1] == b[j - 1] and d[i - 1, j - 1] == here:
            ops.append(AlignOp(MATCH, i - 1, j - 1, a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and a[i - 1] != b[j - 1] and d[i - 1, j - 1] + 1 == here:
            ops.append(AlignOp(SUBSTITUTE, i - 1, j - 1, a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif (
            i > 1 and j > 1
            and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]
            and d[i - 2, j - 2] + 1 == here
        ):
            ops.append(AlignOp(TRANSPOSE, i - 2, j - 2, a[i - 2:i], b[j - 2:j]))
            i -= 2
            j -= 2
        elif i > 0 and d[i - 1, j] + 1 == here:
            ops.append(AlignOp(DELETE, i - 1, j, a[i - 1], ""))
            i -= 1
        else:
            ops.append(AlignOp(INSERT, i, j - 1, "", b[j - 1]))
            j -= 1
    ops.reverse()
    return AlignmentScript(tuple(ops), int(d[len(a), len(b)]))


# Few letters make adjacent swaps and ties common; up to 100 characters spans
# several 30-bit digits of the kernel's column ints.
SWAPPY = "abą "
LONG = st.text(alphabet=SWAPPY, max_size=100)


@st.composite
def near_pairs(draw):
    """A string and a copy with a few swaps, deletions, insertions and
    substitutions, or an unrelated string."""
    a = draw(LONG)
    if draw(st.booleans()):
        return a, draw(LONG)
    b = list(a)
    for op, at, ch in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100),
                                              st.sampled_from(SWAPPY)), max_size=8)):
        k = at % (len(b) + 1)
        if op == 0 and k + 1 < len(b):
            b[k], b[k + 1] = b[k + 1], b[k]
        elif op == 1 and k < len(b):
            del b[k]
        elif op == 2:
            b.insert(k, ch)
        elif op == 3 and k < len(b):
            b[k] = ch
    return a, "".join(b)


def rebuild_matrix(a: str, b: str) -> np.ndarray:
    """The full DP matrix from the kernel's diagonal delta bits, with the
    vertical delta bits checked against it cell by cell."""
    cols = dl_matrix(_encode(a), _encode(b))
    n, m = len(a), len(b)
    assert len(cols.d0) == len(cols.vp) == m + 1
    d = np.empty((n + 1, m + 1), np.int64)
    d[0] = np.arange(m + 1)
    d[:, 0] = np.arange(n + 1)
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            d[i, j] = d[i - 1, j - 1] + 1 - (cols.d0[j] >> (i - 1) & 1)
    for j in range(m + 1):
        for i in range(1, n + 1):
            assert (cols.vp[j] >> (i - 1) & 1) == (d[i, j] == d[i - 1, j] + 1)
    assert cols.distance == d[n, m]
    return d


def merge_runs(ops) -> list[Edit]:
    """Reference run merge: the loop extract_edits ran over align's ops."""
    edits: list[Edit] = []
    run_start = -1
    run_end = -1
    run_repl: list[str] = []
    for op in ops:
        if op.kind == MATCH:
            if run_start >= 0:
                edits.append(Edit(run_start, run_end, "".join(run_repl)))
                run_start = -1
                run_repl = []
            continue
        if run_start < 0:
            run_start = op.src_pos
            run_end = op.src_pos
        run_end += len(op.src_text)
        run_repl.append(op.dst_text)
    if run_start >= 0:
        edits.append(Edit(run_start, run_end, "".join(run_repl)))
    return edits


class TestReference:
    @given(near_pairs())
    def test_matrix_equals_loops(self, pair):
        a, b = pair
        assert np.array_equal(rebuild_matrix(a, b), _dl_matrix_loops(codes(a), codes(b)))

    @given(near_pairs())
    def test_align_equals_reference(self, pair):
        a, b = pair
        assert align(a, b) == reference_align(a, b)

    @given(near_pairs())
    def test_extract_edits_merges_reference_runs(self, pair):
        a, b = pair
        assert extract_edits(a, b) == merge_runs(reference_align(a, b).ops)

    @pytest.mark.parametrize("a,b", [
        ("", ""), ("", "ab"), ("abc", ""), ("ab", "ba"),
        # a lone surrogate, an astral character, and that character's
        # surrogate pair, which is two other code points
        ("\ud800a", "a\ud800"), ("😀b", "b😀"), ("😀", "\ud83d\ude00"),
        ("a\ud800😀", "😀\udfffa"),
    ])
    def test_empty_and_tiny(self, a, b):
        assert _encode(a).tolist() == codes(a).tolist()
        assert align(a, b).cost == oracle_distance(a, b)
        assert np.array_equal(rebuild_matrix(a, b), _dl_matrix_loops(codes(a), codes(b)))
        assert align(a, b) == reference_align(a, b)
        assert extract_edits(a, b) == merge_runs(reference_align(a, b).ops)


class TestMemory:
    def test_long_pair_peak_is_linear_in_columns(self):
        # A full int32 matrix for this pair would take about 100 MB.
        text = " ".join(PARAGRAPHS * 4)[:5000]
        pair = corrupt(TextSample("long", text), CorruptionConfig(seed=1))
        assert len(pair.source) > 4900 and pair.edits
        tracemalloc.start()
        try:
            edits = extract_edits(pair.source, pair.target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert apply_edits(pair.source, edits) == pair.target
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestScript:
    def test_substitution_position(self):
        ops = [op for op in align("dirpti", "dirbti").ops if op.kind != MATCH]
        assert ops == [align("dirpti", "dirbti").ops[3]]
        assert ops[0].kind == SUBSTITUTE
        assert (ops[0].src_pos, ops[0].src_text, ops[0].dst_text) == (3, "p", "b")

    def test_transposition(self):
        ops = [op for op in align("adgtal", "atgdal").ops if op.kind != MATCH]
        kinds = {op.kind for op in ops}
        assert align("ab", "ba").cost == 1
        assert TRANSPOSE in {op.kind for op in align("ab", "ba").ops}
        assert kinds <= {TRANSPOSE, SUBSTITUTE}

    @given(WORDS, WORDS)
    def test_replay_reconstructs_target(self, a, b):
        assert replay(align(a, b), a) == b

    def test_replay_rejects_wrong_source(self):
        script = align("abc", "abd")
        with pytest.raises(ValueError):
            replay(script, "xbc")

    @given(WORDS, WORDS)
    def test_op_count_consistency(self, a, b):
        script = align(a, b)
        cost = sum(1 for op in script.ops if op.kind != MATCH)
        assert cost == script.cost


class TestExtractEdits:
    def test_single_substitution(self):
        assert extract_edits("dirpti", "dirbti") == [Edit(3, 4, "b")]

    def test_stray_space_deletion(self):
        assert extract_edits("atle isime", "atleisime") == [Edit(4, 5, "")]

    def test_pure_insertion_is_zero_width(self):
        edits = extract_edits("išūkis", "iššūkis")
        assert len(edits) == 1
        assert edits[0].start == edits[0].end
        assert edits[0].replacement == "š"

    def test_adjacent_ops_merge(self):
        edits = extract_edits("abXYcd", "abcd")
        assert edits == [Edit(2, 4, "")]

    def test_two_separate_edits(self):
        edits = extract_edits("nusprende, kad grazu", "nusprendė, kad gražu")
        assert edits == [Edit(8, 9, "ė"), Edit(18, 19, "ž")]

    def test_no_difference(self):
        assert extract_edits("tas pats", "tas pats") == []

    @given(WORDS, WORDS)
    def test_apply_round_trip(self, a, b):
        edits = extract_edits(a, b)
        assert apply_edits(a, edits) == b
        # spans are sorted and disjoint by construction
        for prev, cur in zip(edits, edits[1:]):
            assert prev.end <= cur.start
