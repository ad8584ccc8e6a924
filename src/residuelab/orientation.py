"""Wedge-reordering signs.

Differentials are coded as integers (dx_i -> 2(i-1), conjugate dx_i ->
2(i-1)+1); the sign of sorting a symbol sequence into the per-variable
block order dx_1, conj dx_1, dx_2, ... is the parity of its inversions.
The reference orientation pairs each dx ^ conj(dx) with -2i times the
Euclidean area form.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def inversion_parity(seq: Sequence[int]) -> int:
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def dbar_front_sign(dbar_front: Iterable[int], n: int, dbar_slots: Iterable[int]) -> int:
    """Sign for (conj dx_{i in front}) ^ (dx_1..dx_n) ^ (conj dx_{j in slots})."""
    seq = (
        [2 * (i - 1) + 1 for i in sorted(dbar_front)]
        + [2 * (i - 1) for i in range(1, n + 1)]
        + [2 * (j - 1) + 1 for j in sorted(dbar_slots)]
    )
    return inversion_parity(seq)
