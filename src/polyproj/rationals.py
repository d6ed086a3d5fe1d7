"""
Exact rational scalars and small vector helpers used across the package.

All geometric computation in this package is exact.  The canonical scalar is
``gmpy2.mpq`` (GMP-backed rationals); ``fractions.Fraction`` is a drop-in
fallback when gmpy2 is unavailable.  Integers mix freely with rationals, so
most code paths keep plain Python ints as long as possible and only fall back
to ``mpq`` for genuinely fractional values.

Vectors are plain tuples.  Tuples are hashable, which the rest of the package
relies on for caching faces, deduplicating rows and building orbit sets.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, List, Sequence, Tuple

try:
    from gmpy2 import mpq
except ImportError:  # pragma: no cover - exercised only on gmpy2-less installs
    from fractions import Fraction as mpq  # type: ignore[assignment]

Rational = object  # mpq | int; alias kept for documentation purposes
Vector = Tuple[Rational, ...]


def rational(value) -> Rational:
    """Coerce ints, strings like ``"3/4"``, and rationals to an exact scalar."""
    if isinstance(value, int):
        return value
    return mpq(value)


def format_rational(value) -> str:
    """Render a scalar as ``p`` or ``p/q`` (exact round-trip with rational())."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def dot(u: Sequence, v: Sequence):
    """Exact inner product; skips zero terms, which dominates on sparse rows."""
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vector(u: Sequence) -> bool:
    return all(x == 0 for x in u)


def lex_sign(u: Iterable) -> int:
    """Sign of the first nonzero entry (0 for a zero vector)."""
    return next((1 if x > 0 else -1 for x in u if x), 0)


def common_denominator(values: Iterable) -> int:
    """lcm of the denominators of an iterable of rationals/ints."""
    lcm = 1
    for v in values:
        den = 1 if isinstance(v, int) else int(v.denominator)
        if den != 1:
            lcm = lcm // gcd(lcm, den) * den
    return lcm


def scaled_ints(values: Iterable, scale: int) -> List[int]:
    """values * scale as ints; scale must be a multiple of every denominator."""
    if scale == 1:
        return [int(v) for v in values]
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values]


def scale_to_coprime_ints(values: Sequence) -> Tuple[int, ...]:
    """
    Scale a rational vector by the unique positive rational that makes all
    entries coprime integers.  The zero vector maps to itself.  Orientation
    (overall sign) is preserved.
    """
    ints = scaled_ints(values, common_denominator(values))
    g = 0
    for x in ints:
        if x:
            g = gcd(g, abs(x))
            if g == 1:
                break
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)
