"""Parsing and rendering of exact rationals ("num/den" wire format).

Every probability, statistic value and threshold in this package is an
exact ``fractions.Fraction``; decimal strings are display-only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


# The wire grammar on every Python version, where Fraction(str) takes more and what it takes varies:
# optional surrounding whitespace, an optional sign, ASCII digits and an optional nonzero "/digits".
_RATIO = re.compile(r"\s*([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?\s*")

# An integer string (a binomial spec's n, a simulate config's integer fields): an optional sign and
# ASCII digits, with the rationals' optional surrounding whitespace.  re compiles it on first use.
INTEGER = r"\s*[+-]?[0-9]+\s*"


def ratio_terms(value: str | int | Fraction) -> tuple[int, int]:
    """(n, d) as written, d > 0, from a "num/den" or integer string, an int or a Fraction; no Fraction is built.

    Floats, bools, decimal or exponent literals and zero denominators are
    refused: wire formats must stay exact.  Nothing is reduced, so a row of
    them can be reduced by one gcd in ``common_denominator``.
    """
    if not isinstance(value, str):  # strings first: a model file holds little else
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        if isinstance(value, bool):
            raise ValueError(f"not a rational: {value!r}")
        if isinstance(value, int):
            return value, 1
        if isinstance(value, float):
            raise ValueError(f"refusing float {value!r}: rationals must be exact")
    text = str(value)
    match = _RATIO.fullmatch(text)
    if match is None:
        if "." in text or "e" in text.lower():
            try:
                float(text)
            except ValueError:
                pass  # not a decimal or exponent literal either
            else:
                raise ValueError(f"refusing decimal literal {text.strip()!r}: use num/den")
        raise ValueError(f"not a rational: {value!r}")
    return int(match[1]), int(match[2] or 1)


def ratio_row(values: Iterable[str | int | Fraction]) -> list[tuple[int, int]]:
    """``ratio_terms`` of each value, with ``int()`` run once per distinct denominator string.

    A pmf row shares a few denominators, each possibly thousands of digits
    long (binomial n=4000: 6 or 12 per row), so each is read once.  Values
    that are not strings matching the grammar go through ``ratio_terms``,
    with its checks and messages.
    """
    dens: dict[str | None, int] = {None: 1}
    out = []
    for value in values:
        match = _RATIO.fullmatch(value) if isinstance(value, str) else None
        if match is None:
            out.append(ratio_terms(value))
            continue
        d = dens.get(match[2])
        if d is None:
            d = dens[match[2]] = int(match[2])
        out.append((int(match[1]), d))
    return out


def parse_ratio(value: str | int | Fraction) -> tuple[int, int]:
    """``ratio_terms`` in lowest terms."""
    n, d = ratio_terms(value)
    g = gcd(n, d)
    return n // g, d // g


def parse_rational(value: str | int | Fraction) -> Fraction:
    """``parse_ratio``'s value as a ``Fraction``."""
    return Fraction(*parse_ratio(value))


def common_denominator(ratios: Iterable[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """(D, numerators) with n / d == numerator / D for every (n, d), d > 0, reduced or not.

    D is the lcm of the reduced denominators, found with one gcd for the
    whole row: over L, the lcm of the denominators as given, the values
    have numerators N_i, and D = L / gcd(L, N_1, ..., N_k).  Each distinct
    denominator is divided into L once.
    """
    ratios = tuple(ratios)
    scales = dict.fromkeys(d for _, d in ratios)
    den = lcm(*scales)
    scales = {d: den // d for d in scales}
    numerators = [n * scales[d] for n, d in ratios]
    g = gcd(den, *numerators)
    if g == 1:
        return den, tuple(numerators)
    return den // g, tuple(n // g for n in numerators)


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
