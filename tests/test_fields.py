from fractions import Fraction

import pytest

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
