import random
from fractions import Fraction

import pytest

from gaprenorm.cf import cf_value, parse_theta_spec, rational_to_cf, sample_theta
from gaprenorm.exact import Surd
from gaprenorm.orbit import (
    DiscrepancyProfile,
    EncodingSearchError,
    decode_run_length,
    discrepancy_profile,
    encode_orbit,
    encode_run_length,
    sandwich_check,
    sandwich_sweep,
    verify_encoding,
    word_weights,
)
from gaprenorm.substitution import A, expand_word, rules_along

SILVER = cf_value(parse_theta_spec("cfper:[][2]"))


def test_silver_prefix():
    enc = encode_orbit(Fraction(0), SILVER, 20)
    assert enc.symbols == "AACACAACACABCACACAAC"
    assert enc.endpoint_hits == [(0, "0")]
    assert not enc.period_wrapped


def test_rational_orbit_wraps():
    enc = encode_orbit(Fraction(0), Fraction(1, 3), 9)
    assert enc.symbols == "AACAACAAC"
    assert enc.period_wrapped
    assert (0, "0") in enc.endpoint_hits
    assert (2, "1-theta") in enc.endpoint_hits


def test_encode_validation():
    with pytest.raises(ValueError):
        encode_orbit(Fraction(0), Fraction(2, 3), 5)  # theta above 1/2
    with pytest.raises(ValueError):
        encode_orbit(Fraction(0), Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        encode_orbit(Fraction(3, 2), Fraction(1, 3), 5)
    with pytest.raises(ValueError):
        encode_orbit(Fraction(0), Fraction(1, 3), -1)


def test_surd_walk_rejects_square_radicand():
    # 1/8 * sqrt(4) is the rational 1/4; the exact sign test must notice
    # instead of ordering it as an irrational
    with pytest.raises(ArithmeticError):
        encode_orbit(Fraction(0), Surd(Fraction(0), Fraction(1, 8), 4), 10)


def test_surd_agrees_with_close_rational():
    """A deep convergent of the rotation number reproduces the surd encoding."""
    deep = rational_to_cf(Fraction(5741, 13860))  # convergent of sqrt(2) - 1
    enc_s = encode_orbit(Fraction(1, 7), SILVER, 2000)
    enc_r = encode_orbit(Fraction(1, 7), cf_value(deep), 2000)
    assert enc_s.symbols == enc_r.symbols


def test_word_weights_and_profile():
    w = word_weights("AACAC")
    assert w.tolist() == [1, 1, -1, 1, -1]
    prof = DiscrepancyProfile.from_symbols("AACACAAC")
    assert prof.sums.tolist() == [1, 2, 1, 2, 1, 2, 3, 2]
    assert prof.rho.tolist() == [1, 2, 2, 2, 2, 2, 3, 3]
    assert prof.rho_at(1) == 1 and prof.rho_at(8) == 3
    with pytest.raises(ValueError):
        prof.rho_at(0)
    with pytest.raises(ValueError):
        prof.rho_at(9)
    rows = prof.rows()
    assert rows[0] == {"i": 1, "S_i": 1, "rho_i": 1}


def test_profile_of_encoding():
    enc = encode_orbit(Fraction(0), SILVER, 500)
    prof = discrepancy_profile(enc)
    assert len(prof) == 500
    # the spread of a rotation word over {A} vs {B, C} grows without bound
    # but very slowly; at 500 symbols it is still in single digits
    assert 1 <= prof.rho_at(500) <= 9


def test_run_length_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        word = "".join(rng.choice("ABC") for _ in range(rng.randint(0, 50)))
        assert decode_run_length(encode_run_length(word)) == word
    assert encode_run_length("AACAC") == "A2 C A C"
    with pytest.raises(ValueError):
        decode_run_length("A2 X")


def test_verify_encoding_rational():
    rng = random.Random(32)
    theta = sample_theta(rng, bits=160, lower_half=True, min_quotients=40)
    match = verify_encoding(theta, 6)
    assert match.mismatches <= 2
    assert match.level == 6
    assert 0 <= match.y < 1


def test_verify_encoding_error_path():
    theta = parse_theta_spec("cfper:[][2]")
    with pytest.raises(EncodingSearchError):
        verify_encoding(theta, 3, budget=-1)  # impossible budget


def test_word_matches_direct_orbit_at_base_point():
    """The level word read off the substitutions is the orbit encoding of 0."""
    theta = parse_theta_spec("cfper:[][2]")
    rules = rules_along(theta, 6)
    word = expand_word(rules, A, max_len=100_000)
    enc = encode_orbit(Fraction(0), SILVER, len(word))
    mism = sum(1 for a, b in zip(word, enc.symbols) if a != b)
    assert mism <= 2


def test_sandwich_silver():
    checks = sandwich_sweep(Fraction(1, 7), parse_theta_spec("cfper:[][2]"), 6)
    assert len(checks) == 6
    assert all(c.ok for c in checks)
    one = sandwich_check(Fraction(1, 7), parse_theta_spec("cfper:[][2]"), 5)
    assert one.level == 5 and one.ok


def test_sandwich_sweep_level_validation():
    theta = parse_theta_spec("cfper:[][2]")
    with pytest.raises(ValueError):
        sandwich_sweep(Fraction(1, 7), theta, 5, levels=[0, 3])
    with pytest.raises(ValueError):
        sandwich_sweep(Fraction(1, 7), theta, 5, levels=[6])
