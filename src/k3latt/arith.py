"""Elementary integer arithmetic shared by the form modules."""

from __future__ import annotations


def factorize(m: int) -> dict[int, int]:
    """Prime factorization {p: e} of m >= 1, by trial division."""
    if m < 1:
        raise ValueError(f"cannot factor {m}: need m >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out
