import hashlib
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaprenorm.cf import (
    CellBoundaryError,
    ExpansionExhaustedError,
    cf_normalize,
    parse_theta_spec,
    sample_theta,
)
from gaprenorm.substitution import (
    A,
    B,
    C,
    LETTERS,
    ReturnMatrix,
    SpreadBoundError,
    SubstitutionRule,
    WordBudgetError,
    WordStats,
    build_rule,
    check_length_growth,
    expand_word,
    lengths_by_level,
    levels,
    lyapunov_estimate,
    renorm_identity,
    return_matrix,
    rules_along,
    stats_by_level,
    _fold_rule,
)


def random_word(rng, max_len=60) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, max_len)))


# ---------------------------------------------------------------------------
# the stats monoid


def test_stats_hand_values():
    s = WordStats.of_word("AACAC")
    assert (s.length, s.total, s.max_prefix, s.min_prefix) == (5, 1, 2, 1)
    assert s.rho == 2
    t = WordStats.of_word("CCA")
    assert (t.total, t.max_prefix, t.min_prefix) == (-1, -1, -2)
    assert t.rho == 2
    assert WordStats.empty().length == 0
    with pytest.raises(ValueError):
        WordStats.empty().rho


def test_concat_is_the_word_homomorphism():
    rng = random.Random(20)
    for _ in range(1000):
        u, v = random_word(rng), random_word(rng)
        assert WordStats.of_word(u + v) == WordStats.of_word(u) + WordStats.of_word(v)


def _binary_repeat(stats: WordStats, count: int) -> WordStats:
    """Reference: repeat by binary folding of concatenations."""
    result = WordStats.empty()
    while count:
        if count & 1:
            result = result + stats
        count >>= 1
        stats = stats + stats
    return result


WORDS = st.text(alphabet=LETTERS, max_size=12)


@settings(max_examples=300, deadline=None)
@given(WORDS, st.integers(0, 40), WORDS, WORDS)
def test_repeat_matches_brute_force(w, k, u, v):
    closed = WordStats.of_word(w).repeat(k)
    assert closed == _binary_repeat(WordStats.of_word(w), k)
    assert closed == WordStats.of_word(w * k)
    # the monoid laws of concat: associativity and the empty word as identity
    sw, su, sv = WordStats.of_word(w), WordStats.of_word(u), WordStats.of_word(v)
    assert (sw + su) + sv == sw + (su + sv) == WordStats.of_word(w + u + v)
    assert sw + WordStats.empty() == WordStats.empty() + sw == sw


def test_rho_subadditive_and_factor_monotone():
    rng = random.Random(22)
    for _ in range(2000):
        u, v = random_word(rng), random_word(rng)
        if not u or not v:
            continue
        su, sv = WordStats.of_word(u), WordStats.of_word(v)
        assert (su + sv).rho <= su.rho + sv.rho
        w = u + v
        i = rng.randrange(len(w))
        j = rng.randint(i + 1, len(w))
        assert WordStats.of_word(w[i:j]).rho <= WordStats.of_word(w).rho


# ---------------------------------------------------------------------------
# the rules


def test_rule_images_small_cases():
    odd = SubstitutionRule("odd", k=1)
    assert {L: odd.image_word(L) for L in LETTERS} == {A: "ABC", B: "AAC", C: "A"}
    even = SubstitutionRule("even", k=1, a2=1)
    assert {L: even.image_word(L) for L in LETTERS} == {A: "AAC", B: "ABC", C: "ABCAC"}
    even1 = SubstitutionRule("even", k=1, a2=1, next_one=True)
    assert {L: even1.image_word(L) for L in LETTERS} == {
        A: "ABCAC", B: "AACAC", C: "AAC"
    }
    ident = SubstitutionRule("identity")
    assert all(ident.image_word(L) == L for L in LETTERS)
    with pytest.raises(ValueError):
        SubstitutionRule("odd", k=0)
    with pytest.raises(ValueError):
        SubstitutionRule("even", k=1, a2=0)


def test_image_stats_match_words():
    rules = [SubstitutionRule("identity"), ]
    rules += [SubstitutionRule("odd", k=k) for k in range(1, 6)]
    rules += [
        SubstitutionRule("even", k=k, a2=a2, next_one=flag)
        for k in range(1, 6)
        for a2 in range(1, 6)
        for flag in (False, True)
    ]
    for rule in rules:
        stats = stats_by_level([rule])[1]
        for L in LETTERS:
            assert stats[L] == WordStats.of_word(rule.image_word(L))


def _fold_segments(segments, stats: dict[str, WordStats]) -> WordStats:
    """Oracle: the generic fold over a rule's run-length image segments."""
    acc = WordStats.empty()
    for runs, rep in segments:
        seg = WordStats.empty()
        for ch, cnt in runs:
            seg = seg + stats[ch].repeat(cnt)
        acc = acc + seg.repeat(rep)
    return acc


@st.composite
def letter_stats(draw):
    """Stats that pass WordStats' check, of length >= 2 and any total sign."""
    length = draw(st.integers(2, 10**30))
    total = draw(st.one_of(st.just(0), st.integers(-length, length)))
    hi = draw(st.integers(total, length))
    lo = draw(st.integers(-length, total))
    return WordStats(length, total, hi, lo)


SMALL_OR_LARGE = st.one_of(st.integers(1, 4), st.integers(1, 10**12))
RULES = st.one_of(
    st.just(SubstitutionRule("identity")),
    st.builds(SubstitutionRule, st.just("odd"), k=SMALL_OR_LARGE),
    st.builds(SubstitutionRule, st.just("even"), k=SMALL_OR_LARGE,
              a2=SMALL_OR_LARGE, next_one=st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(RULES, letter_stats(), letter_stats(), letter_stats())
def test_fold_per_kind_matches_segment_fold(rule, a, b, c):
    stats = {A: a, B: b, C: c}
    expected = tuple(_fold_segments(rule.image_segments(L), stats).astuple()
                     for L in LETTERS)
    assert _fold_rule(rule, a.astuple(), b.astuple(), c.astuple()) == expected


# quotients 1..4, and every third one a scrambled value up to 10^9: by depth
# 1000 the walk meets identity, odd and both even rules, a2 = 1, and k and a2
# above 10^8
LARGE_QUOTIENTS = "cf:[" + ",".join(
    str((i ** 3 * 7919) % 10**9 + 1 if i % 3 == 0 else (1, 1, 2, 3, 1, 4, 2, 1)[i % 8])
    for i in range(2400)
) + "]"


@pytest.mark.parametrize(("spec", "digest"), [
    ("cfper:[][2]", "546011ef2b5944e7ebbbb53992281d407488d6a1ae9417eb3821f5d710e84b9b"),
    ("cfper:[][2,5]", "1c38232c23041182e3ff0ce92ad1f9034b552c6058ff3b6d59c6b6419acf83b5"),
    (LARGE_QUOTIENTS, "c39acf96ea0cc5445cb075131fb83031601b297454964ef4524c9aeea0764fc9"),
], ids=["silver", "period-2-5", "large-quotients"])
def test_stats_by_level_golden(spec, digest):
    # sha256 of every level's (length, total, max, min) integers at depth 1000
    h = hashlib.sha256()
    for lv in stats_by_level(levels(parse_theta_spec(spec), 1000).rules):
        for L in LETTERS:
            s = lv[L]
            h.update(f"{s.length} {s.total} {s.max_prefix} {s.min_prefix}\n".encode())
    assert h.hexdigest() == digest


def test_a_and_b_images_share_length():
    for k in range(1, 8):
        rule = SubstitutionRule("odd", k=k)
        assert len(rule.image_word(A)) == len(rule.image_word(B))
        for a2 in range(1, 8):
            for flag in (False, True):
                rule = SubstitutionRule("even", k=k, a2=a2, next_one=flag)
                assert len(rule.image_word(A)) == len(rule.image_word(B))


def test_build_rule_reads_the_expansion():
    assert build_rule(parse_theta_spec("cf:[1,5,2]")).kind == "identity"
    r = build_rule(parse_theta_spec("cf:[5,2,3]"))
    assert r.kind == "odd" and r.k == 2
    r = build_rule(parse_theta_spec("cf:[4,3,1,2]"))
    assert r.kind == "even" and (r.k, r.a2, r.next_one) == (2, 3, True)
    r = build_rule(parse_theta_spec("cfper:[][2]"))
    assert (r.kind, r.k, r.a2, r.next_one) == ("even", 1, 2, False)


def test_compose_matches_expansion():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        theta = sample_theta(rng, bits=128, min_quotients=30)
        rules = rules_along(theta, 6)
        try:
            word = expand_word(rules, A, max_len=1_000_000)
        except WordBudgetError:  # a level with huge quotients; skip it
            continue
        assert stats_by_level(rules)[-1][A] == WordStats.of_word(word)
        checked += 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=14, max_size=20), st.integers(0, 6))
def test_stats_by_level_match_expanded_words(quotients, n):
    try:
        rules = rules_along(cf_normalize(quotients), n)
    except (ExpansionExhaustedError, CellBoundaryError):
        assume(False)
    stats = stats_by_level(rules)
    for v, lens in enumerate(lengths_by_level(rules)):
        if max(lens) > 20_000:
            break
        for L in LETTERS:
            assert stats[v][L] == WordStats.of_word(expand_word(rules[:v], L))


def test_expand_word_budget():
    rules = rules_along(parse_theta_spec("cfper:[][2]"), 20)
    with pytest.raises(WordBudgetError):
        expand_word(rules, A, max_len=100)


# ---------------------------------------------------------------------------
# the length cocycle


def test_matrices_track_lengths():
    rng = random.Random(24)
    for _ in range(20):
        theta = sample_theta(rng, bits=192, min_quotients=50)
        rules = rules_along(theta, 12)
        lens = lengths_by_level(rules)
        stats = stats_by_level(rules)
        for n in range(13):
            assert stats[n][A].length == lens[n][0]
            assert stats[n][C].length == lens[n][1]
        assert levels(theta, 12).lengths[12] == lens[12]


def test_matrix_algebra():
    m = return_matrix(SubstitutionRule("odd", k=1))
    assert m.rows() == ((2, 1), (1, 0))
    assert m.det == -1
    e = return_matrix(SubstitutionRule("even", k=1, a2=2))
    assert e.rows() == ((3, 2), (4, 3)) and e.det == 1
    assert (m @ ReturnMatrix.identity()).rows() == m.rows()
    assert m.apply((1, 1)) == (3, 1)
    lv = levels(parse_theta_spec("cfper:[][2]"), 5)
    prod = ReturnMatrix.identity()
    for rule in lv.rules:
        prod = return_matrix(rule) @ prod
    assert prod.apply((1, 1)) == lv.lengths[5]
    assert abs(prod.det) == 1


def test_growth_and_lyapunov_silver():
    theta = parse_theta_spec("cfper:[][2]")
    rep = check_length_growth(theta, 30)
    assert rep.all_steps_ok and rep.rate_in_band
    # each silver level eats two quotients, so lengths grow like (3 + 2 sqrt 2)^n
    assert math.isclose(lyapunov_estimate(theta, 40), math.log(3 + 2 * math.sqrt(2)),
                        rel_tol=0.05)


def test_renorm_identity_silver():
    theta = parse_theta_spec("cfper:[][2]")
    for n in range(2, 26):
        ident = renorm_identity(theta, n)
        assert ident.halfsum == n  # every level contributes e = 2
        assert ident.rho == ident.halfsum + ident.xi
        assert abs(ident.xi) <= 5


def test_renorm_identity_random():
    rng = random.Random(25)
    for _ in range(10):
        theta = sample_theta(rng, bits=192, min_quotients=50)
        ident = renorm_identity(theta, 20)
        assert abs(ident.xi) <= 5


def test_levels_fields():
    theta = parse_theta_spec("cfper:[][2]")
    lv = levels(theta, 8)
    assert len(lv.traj.steps) == 9 and len(lv.rules) == 8
    assert len(lv.stats) == len(lv.lengths) == len(lv.halfsums) == 9
    assert lv.rules == rules_along(theta, 8)
    assert lv.stats == stats_by_level(lv.rules)
    assert lv.lengths == lengths_by_level(lv.rules)
    assert lv.halfsums == list(range(9))  # every silver level has E/2 = 1
    ident = renorm_identity(theta, 8, check=False)
    assert (lv.stats[8][A].rho, lv.halfsums[8]) == (ident.rho, ident.halfsum)
    assert lyapunov_estimate(theta, 8) == math.log(max(lv.lengths[8])) / 8


def test_spread_bound_error_is_reachable_only_by_flag():
    # check=False must never raise even where the identity is checked
    theta = parse_theta_spec("cfper:[][2]")
    ident = renorm_identity(theta, 10, check=False)
    assert isinstance(ident.xi, int)
    assert SpreadBoundError.__mro__[1] is ValueError
