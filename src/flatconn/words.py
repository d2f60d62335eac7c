"""Signed-letter words.

A word is a tuple of (symbol, sign) letters with sign in {+1, -1}.  The same
representation serves edge paths (symbol = edge id) and free-group words
(symbol = generator index).
"""

from __future__ import annotations

from typing import Tuple

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]


def invert_word(w: Word) -> Word:
    """Formal inverse: reverse the letters and flip every sign."""
    return tuple((sym, -sign) for sym, sign in reversed(w))


def reduce_word(w: Word) -> Word:
    """Free reduction: cancel adjacent (x, s)(x, -s) pairs until none remain."""
    out: list[Letter] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)
