"""Shared text formats: Gram matrix files, rational vectors, bracket matrices.

Gram matrix files: first line the rank n, then n lines of n space-separated
integers.  Rational vectors: space-separated `p/q` tokens.  Inline matrices:
`[4 1; 1 4]` with rows split by `;`.
"""

from __future__ import annotations


def parse_gram_text(text: str) -> GramMatrix:
    from .lattice import GramMatrix
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty Gram matrix input")
    n = int(lines[0])
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = [[int(tok) for tok in lines[1 + i].split()] for i in range(n)]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix rows must have n entries")
    return GramMatrix.from_rows(rows)


def format_gram_text(g: GramMatrix) -> str:
    return "\n".join([str(g.n)] + [" ".join(str(x) for x in row) for row in g.rows])


def parse_vector(text: str) -> Vector:
    from fractions import Fraction
    from .lattice import as_vector
    return as_vector(Fraction(tok) for tok in text.split())


def parse_bracket_matrix(text: str) -> list[list[int]]:
    """`[a b; c d]` (any square size) to integer rows."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected a [..] matrix, got {text!r}")
    rows = [[int(tok) for tok in part.replace(",", " ").split()]
            for part in text[1:-1].split(";")]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


def format_bracket_matrix(rows) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in rows) + "]"
