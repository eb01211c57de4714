"""Physical QWERTY adjacency for mistyping simulation.

Neighbor sets come from key geometry (staggered rows, diagonals included) and
default to uniform choice. A pairwise weight table can replace the uniform
choice per source character, which also allows non-adjacent confusions when a
dataset of real mistyping statistics is available.
"""

from __future__ import annotations

import functools
import math
import unicodedata
from dataclasses import dataclass, field

# (keys, x offset of the first key) per row, top to bottom.
_ROWS = (
    ("`1234567890-=", 0.0),
    ("qwertyuiop[]\\", 1.5),
    ("asdfghjkl;'", 1.75),
    ("zxcvbnm,./", 2.25),
)
_SPACE_NEIGHBORS = "cvbnm"

# Characters with no key of their own map onto the nearest physical key.
_ALIASES = {
    "„": "'", "“": "'", "”": "'", "‘": "'", "’": "'",
    "–": "-", "—": "-", "…": ".",
}


def _build_adjacency() -> dict[str, tuple[str, ...]]:
    coords: dict[str, tuple[int, float]] = {}
    for row, (keys, offset) in enumerate(_ROWS):
        for i, ch in enumerate(keys):
            coords[ch] = (row, offset + i)
    adj: dict[str, set[str]] = {ch: set() for ch in coords}
    for a, (ra, xa) in coords.items():
        for b, (rb, xb) in coords.items():
            if a == b:
                continue
            if ra == rb and abs(xa - xb) == 1:
                adj[a].add(b)
            elif abs(ra - rb) == 1 and abs(xa - xb) < 1:
                adj[a].add(b)
    adj[" "] = set(_SPACE_NEIGHBORS)
    for ch in _SPACE_NEIGHBORS:
        adj[ch].add(" ")
    return {ch: tuple(sorted(ns)) for ch, ns in adj.items()}


@dataclass(frozen=True)
class KeyboardModel:
    adjacency: dict[str, tuple[str, ...]] = field(default_factory=_build_adjacency)
    # from-char -> ((to-char, weight), ...); replaces uniform adjacency choice
    weights: dict[str, tuple[tuple[str, float], ...]] | None = None

    def _fold(self, ch: str) -> str | None:
        low = ch.lower()
        if low in self.adjacency:
            return low
        base = unicodedata.normalize("NFD", low)[0]
        if base in self.adjacency:
            return base
        alias = _ALIASES.get(low)
        if alias in self.adjacency:
            return alias
        return None

    def _restore_case(self, options: list[str], ch: str) -> list[str]:
        if ch.isupper():
            return [o.upper() if o.isalpha() else o for o in options]
        return options

    def neighbors(self, ch: str) -> list[str]:
        """Physically adjacent keys for ``ch``, case preserved; [] if unknown."""
        key = self._fold(ch)
        if key is None:
            return []
        return self._restore_case(list(self.adjacency[key]), ch)

    def substitution_options(self, ch: str) -> tuple[list[str], list[float]]:
        """Candidate mistyped characters and their weights for ``ch``."""
        key = self._fold(ch)
        if key is None:
            return [], []
        if self.weights and key in self.weights:
            chars = [c for c, _ in self.weights[key]]
            ws = [w for _, w in self.weights[key]]
        else:
            chars = list(self.adjacency[key])
            ws = [1.0] * len(chars)
        return self._restore_case(chars, ch), ws


def _unescape_key(tok: str) -> str:
    if tok == r"\s":
        return " "
    if tok == r"\t":
        return "\t"
    return tok


def load_keyboard_weights(path) -> dict[str, tuple[tuple[str, float], ...]]:
    """Parse a pairwise weight file: one `from_char to_char weight` per line.

    A literal space is written ``\\s``. Blank lines and # comments ignored.
    """
    table: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'from to weight'")
            src = _unescape_key(fields[0])
            dst = _unescape_key(fields[1])
            if len(src) != 1 or len(dst) != 1:
                raise ValueError(f"{path}:{lineno}: keys must be single characters")
            try:
                w = float(fields[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad weight {fields[2]!r}") from exc
            if not 0 < w < math.inf:
                raise ValueError(f"{path}:{lineno}: weight must be positive and finite, "
                                 f"got {fields[2]!r}")
            table.setdefault(src.lower(), []).append((dst.lower(), w))
    return {k: tuple(v) for k, v in table.items()}


@functools.cache
def default_keyboard() -> KeyboardModel:
    """The uniform-adjacency keyboard, built once per process. The returned
    object is shared by every caller, so it must not be mutated."""
    return KeyboardModel()
