"""Exact rational arithmetic helpers.

Every quantity that behaves like a real number in this package (job
sizes, machine loads, interval endpoints, guesses) is a
``fractions.Fraction`` in the public API; hot loops scale them to exact
integers (``_scaling``).  No float ever enters a scheduling decision;
interval membership and threshold comparisons must be decided exactly
because boundary jobs would otherwise be misclassified.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["parse_rational", "format_rational", "ceil_log"]


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` (a >= 0, b > 0) or a decimal literal, exactly.

    Decimals are expanded over a power of ten and reduced, so ``"0.25"``
    is exactly ``1/4``.
    """
    s = text.strip()
    try:
        if "/" in s:
            num_s, den_s = s.split("/")
            num, den = int(num_s), int(den_s)
            if num < 0 or den <= 0:
                raise ValueError
            value = Fraction(num, den)
        else:
            value = Fraction(s)
            if value < 0:
                raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a nonnegative rational literal: {text!r}") from None
    return value


def format_rational(value: Fraction) -> str:
    """Canonical lowest-terms ``"a/b"`` form (integers render as ``"a/1"``)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def ceil_log(x: Fraction, base: Fraction) -> int:
    """Smallest integer ``k`` (possibly negative) with ``base**k >= x``.

    The walk compares cross-multiplied integer powers, so the result is
    exact even when ``x`` is a power of ``base`` and a floating log would
    land on either side of the boundary.
    """
    x = Fraction(x)
    base = Fraction(base)
    if x <= 0:
        raise ValueError("ceil_log requires x > 0")
    if base <= 1:
        raise ValueError("ceil_log requires base > 1")
    bn, bd = base.numerator, base.denominator
    # base**k >= x  <=>  left >= right, for left = xd*bn**k, right = xn*bd**k
    # (left = xd*bd**j, right = xn*bn**j for k = -j).
    left, right = x.denominator, x.numerator
    k = 0
    if left >= right:
        # Walk down while the next smaller power still dominates x.
        while left * bd >= right * bn:
            left *= bd
            right *= bn
            k -= 1
    else:
        while left < right:
            left *= bn
            right *= bd
            k += 1
    return k
