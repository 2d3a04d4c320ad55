"""Parsing and rendering of exact rationals ("num/den" wire format).

Every probability, statistic value and threshold in this package is an
exact ``fractions.Fraction``; decimal strings are display-only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse a rational from a "num/den" or integer string.

    Floats are rejected on purpose: wire formats must stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"refusing float {value!r}: rationals must be exact")
    text = str(value).strip()
    if "." in text or "e" in text.lower():
        try:
            float(text)
        except ValueError:
            pass  # not a decimal or exponent literal either
        else:
            raise ValueError(f"refusing decimal literal {text!r}: use num/den")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def common_denominator(values: Iterable[Fraction | int]) -> tuple[int, tuple[int, ...]]:
    """(D, numerators) with value == numerator / D for every value; D is the lcm of the denominators."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def format_rational(value: Fraction | int) -> str:
    """Render as "num/den", denominator always present ("1/2", "3/1")."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def format_ratios(numerators: Iterable[int], denominator: int) -> list[str]:
    """``format_rational(Fraction(n, denominator))`` for each n, with no ``Fraction`` built.

    One gcd per numerator reduces it; ``denominator`` must be positive.
    Each reduced denominator is printed once, since most numerators on one
    lattice share a few common factors with it.
    """
    texts: dict[int, str] = {}
    out = []
    for n in numerators:
        g = gcd(n, denominator)
        den = texts.get(g)
        if den is None:
            den = texts[g] = str(denominator // g)
        out.append(f"{n // g}/{den}")
    return out


def decimal_ratio(numerator: int, denominator: int, places: int = 6) -> str:
    """Exact fixed-point rendering of numerator / denominator (> 0), round half to even.  Display only."""
    scale = 10**places
    units, rest = divmod(numerator * scale, denominator)
    if 2 * rest > denominator or (2 * rest == denominator and units % 2):
        units += 1
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // scale}.{units % scale:0{places}d}"


def decimal_string(value: Fraction | int, places: int = 6) -> str:
    """Exact fixed-point rendering, round half to even.  Display only."""
    frac = Fraction(value)
    return decimal_ratio(frac.numerator, frac.denominator, places)
