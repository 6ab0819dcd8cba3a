import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.rational import ceil_log, format_rational, parse_rational


def test_parse_literals():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("2/6") == F(1, 3)
    assert parse_rational("7") == F(7)
    assert parse_rational(" 3/4 ") == F(3, 4)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "-1/2", "1/-2", "1/2/3", "1.5/2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    assert format_rational(F(1, 3)) == "1/3"
    assert format_rational(F(6)) == "6/1"
    assert parse_rational(format_rational(F(22, 7))) == F(22, 7)


def test_ceil_log_examples():
    assert ceil_log(F(2), F(3, 2)) == 2
    assert ceil_log(F(1), F(2)) == 0
    assert ceil_log(F(13, 24), F(2)) == 0
    assert ceil_log(F(9), F(5, 4)) == 10
    assert ceil_log(F(7), F(4, 3)) == 7


def test_ceil_log_exact_powers():
    # At exact powers the exact computation is authoritative.
    assert ceil_log(F(8), F(2)) == 3
    assert ceil_log(F(1, 8), F(2)) == -3
    assert ceil_log(F(9, 4), F(3, 2)) == 2


def test_ceil_log_preconditions():
    with pytest.raises(ValueError):
        ceil_log(F(0), F(2))
    with pytest.raises(ValueError):
        ceil_log(F(2), F(1))


positive_fractions = st.fractions(min_value=F(1, 10_000), max_value=F(10_000))
bases = st.fractions(min_value=F(101, 100), max_value=F(50))


@given(x=positive_fractions, base=bases)
@settings(max_examples=300)
def test_ceil_log_bracketing(x, base):
    k = ceil_log(x, base)
    assert base**k >= x
    assert base ** (k - 1) < x


@given(x=positive_fractions, base=bases)
@settings(max_examples=300)
def test_ceil_log_matches_float_log(x, base):
    k = ceil_log(x, base)
    approx = math.log(x) / math.log(base)
    k_float = math.ceil(approx)
    if k != k_float:
        # Disagreement is only legitimate within float noise of a power.
        assert abs(approx - round(approx)) < 1e-9
        assert base ** round(approx) == x or abs(k - k_float) <= 1


@given(a=st.fractions(), b=st.fractions())
@settings(max_examples=200)
def test_exact_field_arithmetic(a, b):
    assert (a + b) - b == a
    assert (a * b) == (b * a)


def test_ceil_log_float_cross_check_thousand():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        x = F(rng.randint(1, 10_000), rng.randint(1, 10_000))
        base = 1 + F(rng.randint(1, 400), 400)
        k = ceil_log(x, base)
        assert base ** (k - 1) < x <= base**k
        approx = math.log(x) / math.log(base)
        if math.ceil(approx) != k:
            assert abs(approx - round(approx)) < 1e-9  # float noise at a power


def fraction_ceil_log(x, base):
    """Test-local reference: ceil_log as it was, by exact repeated
    multiplication and division of Fraction powers."""
    k, power = 0, F(1)
    if power >= x:
        while power / base >= x:
            power /= base
            k -= 1
    else:
        while power < x:
            power *= base
            k += 1
    return k


near_one_bases = st.builds(lambda n: F(n + 1, n), st.integers(1, 40))  # 2, 3/2, .., 12/11, ..


@given(
    base=bases | near_one_bases,
    exponent=st.integers(-30, 30),
    nudge=st.sampled_from([F(1), F(1), F(999, 1000), F(1001, 1000)]),
    x=positive_fractions,
    power=st.booleans(),
)
@settings(max_examples=400)
def test_ceil_log_matches_fraction_reference(base, exponent, nudge, x, power):
    """The cross-multiplied integer walk returns what the Fraction walk
    returns: on exact powers of the base (above and below 1), just off
    them, at x = 1 and on arbitrary x, for bases near 1 like 12/11."""
    if power:
        x = base**exponent * nudge
    assert ceil_log(x, base) == fraction_ceil_log(x, base)
    assert ceil_log(F(1), base) == 0
    assert ceil_log(base**exponent, base) == exponent


def test_ceil_log_wrapper_guess_counts():
    """The guess counts h = ceil_log(1 + 6*rho/eps, 1 + eps_g) of the two
    wrapped families over a few accuracies agree with the reference."""
    for eps in (F(1), F(1, 2), F(1, 3), F(1, 10)):
        for rho in (1 + eps / 2, F(4, 3) + eps / 2):
            x, base = 1 + 6 * rho / eps, 1 + eps / (3 * rho)
            assert ceil_log(x, base) == fraction_ceil_log(x, base)
