import hashlib
import math
import random
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaprenorm.cf import (
    CellBoundaryError,
    ExpansionExhaustedError,
    cf_normalize,
    gap_trajectory,
    parse_theta_spec,
    sample_theta,
)
from gaprenorm import substitution
from gaprenorm.substitution import (
    A,
    B,
    C,
    LETTERS,
    Levels,
    SpreadBoundError,
    SubstitutionRule,
    WordBudgetError,
    WordStats,
    build_rule,
    expand_word,
    lengths_by_level,
    levels,
    renorm_identity,
    return_matrix,
    rules_along,
    stats_by_level,
    _concat,
    _fold_rule,
    _repeat,
)


def random_word(rng, max_len=60) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, max_len)))


def stats_of(word: str) -> WordStats:
    """Stats of a word: a tuple, which `_concat` and `_repeat` fold."""
    return WordStats.of_word(word)


EMPTY = stats_of("")


# ---------------------------------------------------------------------------
# the stats monoid


def test_stats_hand_values():
    s = WordStats.of_word("AACAC")
    assert (s.length, s.total, s.max_prefix, s.min_prefix) == (5, 1, 2, 1)
    assert repr(s) == "WordStats(length=5, total=1, max_prefix=2, min_prefix=1)"
    assert s.rho == 2
    t = WordStats.of_word("CCA")
    assert (t.total, t.max_prefix, t.min_prefix) == (-1, -1, -2)
    assert t.rho == 2
    assert EMPTY == (0, 0, 0, 0) and EMPTY.length == 0
    with pytest.raises(ValueError):
        EMPTY.rho


def test_concat_is_the_word_homomorphism():
    rng = random.Random(20)
    for _ in range(1000):
        u, v = random_word(rng), random_word(rng)
        assert stats_of(u + v) == _concat(stats_of(u), stats_of(v))


def _binary_repeat(s, count: int):
    """Reference: repeat by binary folding of concatenations."""
    result = EMPTY
    while count:
        if count & 1:
            result = _concat(result, s)
        count >>= 1
        s = _concat(s, s)
    return result


WORDS = st.text(alphabet=LETTERS, max_size=12)


@settings(max_examples=300, deadline=None)
@given(WORDS, st.integers(1, 40), WORDS, WORDS)
def test_repeat_matches_brute_force(w, k, u, v):
    closed = _repeat(stats_of(w), k)
    assert closed == _binary_repeat(stats_of(w), k)
    assert closed == stats_of(w * k)
    # the monoid laws of concat: associativity and the empty word as identity
    sw, su, sv = stats_of(w), stats_of(u), stats_of(v)
    assert (_concat(_concat(sw, su), sv) == _concat(sw, _concat(su, sv))
            == stats_of(w + u + v))
    assert _concat(sw, EMPTY) == _concat(EMPTY, sw) == sw


def test_rho_subadditive_and_factor_monotone():
    rng = random.Random(22)
    for _ in range(2000):
        u, v = random_word(rng), random_word(rng)
        if not u or not v:
            continue
        su, sv = WordStats.of_word(u), WordStats.of_word(v)
        assert WordStats._make(_concat(su, sv)).rho <= su.rho + sv.rho
        w = u + v
        i = rng.randrange(len(w))
        j = rng.randint(i + 1, len(w))
        assert WordStats.of_word(w[i:j]).rho <= WordStats.of_word(w).rho


# ---------------------------------------------------------------------------
# the rules


def _runs(*pairs):
    return tuple((ch, cnt) for ch, cnt in pairs if cnt > 0)


def _image_segments(rule: SubstitutionRule, letter: str):
    """Reference: a rule's image of `letter` as run-length segments.

    Each segment (runs, repeat) stands for its runs of letters written
    `repeat` times, so the table stays small for large quotients.
    """
    k, a2 = rule.a1 // 2, rule.a2
    if rule.a1 == 1:
        return ((_runs((letter, 1)), 1),)
    if rule.a1 % 2:
        if letter == A:
            return ((_runs((A, k), (B, k), (C, 1)), 1),)
        if letter == B:
            return ((_runs((A, k + 1), (B, k - 1), (C, 1)), 1),)
        return ((_runs((A, 1)), 1),)
    lead = _runs((A, k + 1), (B, k - 1), (C, 1))
    fill = _runs((A, k), (B, k - 1), (C, 1))
    bal = _runs((A, k), (B, k), (C, 1))
    if not rule.next_one:
        table = {A: (lead, a2 - 1), B: (bal, a2 - 1), C: (bal, a2)}
    else:
        table = {A: (bal, a2), B: (lead, a2), C: (lead, a2 - 1)}
    first, reps = table[letter]
    segments = [(first, 1)]
    if reps > 0:
        segments.append((fill, reps))
    return tuple(segments)


def _image_word(rule: SubstitutionRule, letter: str) -> str:
    return "".join(
        "".join(ch * cnt for ch, cnt in runs) * rep
        for runs, rep in _image_segments(rule, letter)
    )


# identity, odd k <= 8, and even k, a2 <= 8 with next_one both ways
SMALL_RULES = [SubstitutionRule(1)]
SMALL_RULES += [SubstitutionRule(2 * k + 1) for k in range(1, 9)]
SMALL_RULES += [
    SubstitutionRule(2 * k, a2, flag)
    for k in range(1, 9)
    for a2 in range(1, 9)
    for flag in (False, True)
]


def test_expand_word_matches_run_length_table():
    for rule in SMALL_RULES:
        for L in LETTERS:
            assert expand_word([rule], L) == _image_word(rule, L)


def test_rule_images_small_cases():
    def images(rule):
        return {L: expand_word([rule], L) for L in LETTERS}

    assert images(SubstitutionRule(3)) == {A: "ABC", B: "AAC", C: "A"}
    even = SubstitutionRule(2, 1)
    assert images(even) == {A: "AAC", B: "ABC", C: "ABCAC"}
    even1 = SubstitutionRule(2, 1, next_one=True)
    assert images(even1) == {A: "ABCAC", B: "AACAC", C: "AAC"}
    assert images(SubstitutionRule(1)) == {L: L for L in LETTERS}
    with pytest.raises(ValueError):
        SubstitutionRule(0)
    with pytest.raises(ValueError):
        SubstitutionRule(2, 0)


def test_image_stats_match_words():
    for rule in SMALL_RULES:
        stats = stats_by_level([rule])[1]
        for L in LETTERS:
            assert stats[L] == WordStats.of_word(expand_word([rule], L))


def _fold_segments(segments, letter_stats: dict):
    """Oracle: the generic fold over a rule's run-length image segments."""
    acc = EMPTY
    for runs, rep in segments:
        seg = EMPTY
        for ch, cnt in runs:
            seg = _concat(seg, _repeat(letter_stats[ch], cnt))
        acc = _concat(acc, _repeat(seg, rep))
    return acc


@st.composite
def letter_stats(draw):
    """Stats with min <= total <= max, of length >= 2 and any total sign."""
    length = draw(st.integers(2, 10**30))
    total = draw(st.one_of(st.just(0), st.integers(-length, length)))
    hi = draw(st.integers(total, length))
    lo = draw(st.integers(-length, total))
    return length, total, hi, lo


SMALL_OR_LARGE = st.one_of(st.integers(1, 4), st.integers(1, 10**12))
RULES = st.one_of(
    st.just(SubstitutionRule(1)),
    st.builds(lambda k: SubstitutionRule(2 * k + 1), SMALL_OR_LARGE),
    st.builds(lambda k, a2, flag: SubstitutionRule(2 * k, a2, flag),
              SMALL_OR_LARGE, SMALL_OR_LARGE, st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(RULES, letter_stats(), letter_stats(), letter_stats())
def test_fold_per_kind_matches_segment_fold(rule, a, b, c):
    stats = {A: a, B: b, C: c}
    expected = tuple(_fold_segments(_image_segments(rule, L), stats) for L in LETTERS)
    assert _fold_rule(rule, a, b, c) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(RULES, max_size=8))
def test_stats_by_level_keep_the_prefix_invariant(rules):
    # min_prefix <= total <= max_prefix holds at every level, as the WordStats
    # docstring argues.  A wrong max or min can keep it, so each level is also
    # compared with the fold that repeats by doubling
    cur = [stats_of(L) for L in LETTERS]
    for v, level in enumerate(stats_by_level(rules)):
        assert [level[L] for L in LETTERS] == list(cur)
        for s in level.values():
            assert type(s) is WordStats
            assert s.length > 0 and s.min_prefix <= s.total <= s.max_prefix
        if v < len(rules):
            cur = _fold_rule(rules[v], *cur, rep=_binary_repeat)


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
    for rule in SMALL_RULES:
        assert len(expand_word([rule], A)) == len(expand_word([rule], B))


def test_build_rule_reads_the_expansion():
    assert build_rule(parse_theta_spec("cf:[1,5,2]")) == SubstitutionRule(1)
    assert build_rule(parse_theta_spec("cf:[5,2,3]")) == SubstitutionRule(5)
    assert build_rule(parse_theta_spec("cf:[4,3,1,2]")) == SubstitutionRule(4, 3, True)
    assert build_rule(parse_theta_spec("cfper:[][2]")) == SubstitutionRule(2, 2, False)


def test_build_rule_shares_instances():
    first = build_rule(parse_theta_spec("cf:[4,3,1,2]"))
    assert build_rule(parse_theta_spec("cf:[4,3,1,7,5]")) is first
    assert build_rule(parse_theta_spec("cf:[5,2,3]")) is build_rule(parse_theta_spec("cf:[5,9]"))
    assert build_rule(parse_theta_spec("cf:[4,3,2]")) is not first
    assert build_rule(parse_theta_spec("cf:[4,3,2]")) == SubstitutionRule(4, 3, False)


def test_build_rule_cache_keeps_the_errors():
    with pytest.raises(ExpansionExhaustedError, match="even-level rule needs"):
        build_rule(parse_theta_spec("cf:[4,3]"))
    cached = substitution._shared_rule.cache_info().currsize
    for bad in ((0,), (2,), (3, 1), (2, 0, True), (3, 0, True), (-1,)):
        with pytest.raises(ValueError, match="no such rule"):
            SubstitutionRule(*bad)
        with pytest.raises(ValueError, match="no such rule"):
            substitution._shared_rule(*bad)
    assert substitution._shared_rule.cache_info().currsize == cached


def test_build_rule_cache_is_bounded_and_clears():
    shared = substitution._shared_rule
    assert shared.cache_info().maxsize == substitution.RULE_CACHE_MAX
    shared.cache_clear()
    assert shared.cache_info().currsize == 0
    kept = build_rule(parse_theta_spec("cf:[2,2,2,2]"))
    for a1 in range(1, 2 * substitution.RULE_CACHE_MAX + 200, 2):
        assert build_rule(parse_theta_spec(f"cf:[{a1},5]")).a1 == a1
    assert shared.cache_info().currsize == substitution.RULE_CACHE_MAX
    # the first rule was evicted: an equal, new instance comes back
    again = build_rule(parse_theta_spec("cf:[2,2,2,2]"))
    assert again == kept and again is not kept
    shared.cache_clear()
    assert shared.cache_info().currsize == 0
    assert build_rule(parse_theta_spec("cf:[2,2,2,2]")) == kept


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


def _times(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _det(m):
    a, b, c, d = m
    return a * d - b * c


def test_matrix_algebra():
    m = return_matrix(SubstitutionRule(3))
    assert m == (2, 1, 1, 0)
    assert _det(m) == -1
    e = return_matrix(SubstitutionRule(2, 2))
    assert e == (3, 2, 4, 3) and _det(e) == 1
    assert return_matrix(SubstitutionRule(1)) == (1, 0, 0, 1)
    assert lengths_by_level([SubstitutionRule(3)])[1] == (3, 1)
    lv = levels(parse_theta_spec("cfper:[][2]"), 5)
    prod = return_matrix(SubstitutionRule(1))
    for rule in lv.rules:
        prod = _times(return_matrix(rule), prod)
    a, b, c, d = prod
    assert (a + b, c + d) == lv.lengths[5]
    assert abs(_det(prod)) == 1


def test_return_matrices_are_unimodular():
    rules = [SubstitutionRule(a1) for a1 in range(1, 80, 2)]
    rules += [SubstitutionRule(a1, a2, flag) for a1 in range(2, 80, 2)
              for a2 in range(1, 40) for flag in (False, True)]
    for rule in rules:
        m = return_matrix(rule)
        assert all(type(e) is int and e >= 0 for e in m)
        assert _det(m) in (1, -1)


def test_each_rule_has_one_name():
    # a2 >= 1 exactly when a1 is even, and next_one only for an even a1;
    # every other name raises
    for a1 in range(-2, 12):
        for a2 in range(-2, 6):
            for flag in (False, True):
                valid = a1 >= 1 and (a2 >= 1 if a1 % 2 == 0 else a2 == 0 and not flag)
                try:
                    SubstitutionRule(a1, a2, flag)
                except ValueError:
                    assert not valid
                else:
                    assert valid
    # no two names give the same images
    images = {tuple(expand_word([rule], L) for L in LETTERS) for rule in SMALL_RULES}
    assert len(images) == len(set(SMALL_RULES)) == len(SMALL_RULES)


def test_growth_and_lyapunov_silver():
    lens = levels(parse_theta_spec("cfper:[][2]"), 40).lengths
    # check 6's comparisons at level 30: three-step growth and the rate band
    assert all(min(lens[v]) >= max(lens[v - 3]) for v in range(3, 31))
    assert abs(math.log(lens[30][0]) - math.log(max(lens[30]))) / 30 <= 0.2
    # each silver level eats two quotients, so lengths grow like (3 + 2 sqrt 2)^n
    assert math.isclose(math.log(max(lens[40])) / 40, math.log(3 + 2 * math.sqrt(2)),
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
    ident = renorm_identity(theta, 8)
    assert (lv.stats[8][A].rho, lv.halfsums[8]) == (ident.rho, ident.halfsum)


def test_halfsums_build_no_rule(monkeypatch):
    # the half-sums read only each level's E(a1); the rules wait for a caller
    rng = random.Random(31)
    thetas = [parse_theta_spec("cfper:[][2]"), parse_theta_spec("cfper:[1][3,7,2]")]
    thetas += [sample_theta(rng, bits=192, min_quotients=60) for _ in range(5)]
    trajs = [gap_trajectory(parse_theta_spec("cf:[4,3,1,6,2,2,5,1,8,9,9]"), 4)]
    trajs += [gap_trajectory(theta, 25) for theta in thetas]
    expected = [list(accumulate((step.e // 2 for step in traj.steps[:-1]), initial=0))
                for traj in trajs]

    def refuse(step):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(substitution, "build_rule", refuse)
    views = [Levels(traj) for traj in trajs]
    assert [lv.halfsums for lv in views] == expected
    assert any(h[-1] > len(h) - 1 for h in expected)  # some level has E/2 > 1
    with pytest.raises(AssertionError, match="a rule was built"):
        views[0].rules


def test_spread_bound_error_is_raised_outside_the_window(monkeypatch):
    theta = parse_theta_spec("cfper:[][2]")
    ident = renorm_identity(theta, 10)
    assert isinstance(ident.xi, int)
    assert SpreadBoundError.__mro__[1] is ValueError
    # lowering every half-sum by 11 lifts xi from [-5, 5] into [6, 16]
    shifted = levels(theta, 10)
    shifted.__dict__["halfsums"] = [h - 11 for h in shifted.halfsums]
    monkeypatch.setattr(substitution, "levels", lambda theta, n: shifted)
    with pytest.raises(SpreadBoundError, match=r"outside \[-5, 5\] at level 10"):
        renorm_identity(theta, 10)
