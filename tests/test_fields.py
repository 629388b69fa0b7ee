from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcpx.fields import (MAX_CHARACTERISTIC, FieldError, Fp, QQ, _is_prime,
                         parse_field, prime_field)


def test_rational_parse_and_format():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-4") == Fraction(-4)
    assert QQ.format(Fraction(-1, 3)) == "-1/3"


def test_prime_field_arithmetic():
    f = prime_field(5)
    a, b = f.coerce(3), f.coerce(4)
    assert a + b == f.coerce(2)
    assert a * b == f.coerce(2)
    assert a / b == a * Fp(4, 5).inverse()
    assert f.parse("1/2") == f.coerce(3)  # 2 * 3 = 6 = 1 mod 5


def test_prime_field_rejects_bad_denominator():
    f = prime_field(5)
    with pytest.raises(FieldError):
        f.parse("1/5")


def test_characteristic_must_be_prime():
    with pytest.raises(FieldError):
        prime_field(6)
    with pytest.raises(FieldError):
        prime_field(1)


def test_parse_field_names():
    assert parse_field("Q") == QQ
    assert parse_field("F7") == prime_field(7)
    with pytest.raises(FieldError):
        parse_field("R")


def test_superscript_characteristic_is_refused():
    # str.isdigit() accepts the superscript two, which int() rejects
    with pytest.raises(FieldError, match="unknown field 'F²'"):
        parse_field("F²")


def test_no_mixing_of_fields():
    with pytest.raises(FieldError):
        QQ.coerce(Fp(1, 5))
    with pytest.raises(FieldError):
        prime_field(3).coerce(Fp(1, 5))


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division_below_ten_thousand():
    assert [n for n in range(10_000) if _is_prime(n)] == [
        n for n in range(10_000) if _trial_division(n)]


def test_primality_of_large_characteristics_is_immediate():
    # trial division would loop about 1e9 times on this prime
    assert parse_field("F1000000000000000003") == prime_field(10**18 + 3)
    # strong pseudoprime to every prime base up to 23
    assert not _is_prime(3825123056546413051)
    with pytest.raises(FieldError):
        prime_field(10**18 + 1)  # 101 * 9901 * 999999000001


def test_characteristic_beyond_exact_primality_range_is_refused():
    with pytest.raises(FieldError, match="too large"):
        prime_field(MAX_CHARACTERISTIC)
    with pytest.raises(FieldError, match="too large"):
        prime_field(2**127 - 1)  # prime, but beyond the range decided exactly
    # refused from its length, before the digits are turned into an int
    with pytest.raises(FieldError, match="too large"):
        parse_field("F" + "7" * 5000)


@pytest.mark.parametrize("p", [2, 3, 101])
@given(n=st.integers(min_value=-10**6, max_value=10**6),
       d=st.integers(min_value=1, max_value=10**6))
def test_coerce_fraction_matches_division_in_prime_field(p, n, d):
    f = prime_field(p)
    assert f.coerce(Fraction(n)) == Fp(n, p) / Fp(1, p)
    value = Fraction(n, d)
    if value.denominator % p == 0:
        with pytest.raises(ZeroDivisionError):
            f.coerce(value)
        return
    expected = Fp(value.numerator, p) / Fp(value.denominator, p)
    assert f.coerce(value) == expected
    assert f.parse(f"{n}/{d}") == expected


@given(n=st.integers(min_value=-10**6, max_value=10**6),
       d=st.integers(min_value=1, max_value=10**6))
def test_coerce_returns_rational_unchanged(n, d):
    value = Fraction(n, d)
    assert QQ.coerce(value) is value
    assert QQ.parse(f"{n}/{d}") == value


@pytest.mark.parametrize("p", [2, 3, 101])
def test_scalar_errors_in_prime_field(p):
    f = prime_field(p)
    with pytest.raises(FieldError) as err:
        f.parse("7/0")
    assert str(err.value) == "cannot parse scalar '7/0': Fraction(7, 0)"
    with pytest.raises(FieldError) as err:
        f.parse(f"1/{p}")
    assert str(err.value) == f"scalar '1/{p}' has no meaning in F{p}: 0 has no inverse in F{p}"
