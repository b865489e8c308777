import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaprenorm.cf import (
    CellBoundaryError,
    ExpansionExhaustedError,
    PartitionCell,
    branch_matrix,
    cf_normalize,
    cf_value,
    classify_cell,
    format_theta_spec,
    gap_derivative,
    gap_map,
    gap_map_value,
    gap_trajectory,
    parse_theta_spec,
    rational_to_cf,
    sample_theta,
)
from gaprenorm.exact import ExactReal, Surd, exact_floor, mobius

from surds import make_surd


def classify_value(x: ExactReal) -> PartitionCell:
    """Partition cell containing x in (0, 1), read off x itself.

    An oracle independent of `classify_cell`, which reads the cell off the
    expansion; endpoint hits are an error.
    """
    if not (0 < x < 1):
        raise ValueError("value must lie in (0, 1)")
    half = Fraction(1, 2)
    if x == half:
        raise CellBoundaryError("1/2 is a cell boundary")
    if x > half:
        return PartitionCell(1)
    r = 1 / x
    a1 = exact_floor(r)
    if r == a1:
        raise CellBoundaryError(f"{x} is the endpoint 1/{a1}")
    if a1 % 2 == 1:
        return PartitionCell(a1)
    y = r - a1
    m = exact_floor(1 / y)
    if 1 / y == m:
        raise CellBoundaryError(f"{x} is an even-cell endpoint")
    cell = PartitionCell(a1, m)
    if not cell.contains(x):
        raise CellBoundaryError(f"{x} sits on the boundary of {cell}")
    return cell


# ---------------------------------------------------------------------------
# expansions and the theta grammar


def test_parse_grammar():
    assert cf_value(parse_theta_spec("rat:3/7")) == Fraction(3, 7)
    assert parse_theta_spec("cf:[2,3,4]").preperiod == (2, 3, 4)
    assert parse_theta_spec("cf:[2; 3, 4]").preperiod == (2, 3, 4)
    cf = parse_theta_spec("cfper:[1][2,3]")
    assert cf.preperiod == (1,) and cf.period == (2, 3)
    assert parse_theta_spec("cfper:[][2]").period == (2,)
    for bad in ("cf:[0,2]", "rat:7/3", "rat:0/5", "cf:[2.5]", "dec:0.3",
                "cf:[]", "rat:3/7 extra", "cfper:[2][]"):
        with pytest.raises(ValueError):
            parse_theta_spec(bad)


def test_format_round_trip():
    for spec in ("rat:3/7", "cf:[2,3,4]", "cfper:[1][2,3]", "cfper:[][2]"):
        cf = parse_theta_spec(spec)
        again = parse_theta_spec(format_theta_spec(cf))
        assert cf_value(again) == cf_value(cf)


RAW_QUOTIENTS = st.lists(st.integers(1, 50), max_size=12)


@settings(max_examples=300, deadline=None)
@given(RAW_QUOTIENTS, RAW_QUOTIENTS)
def test_spec_round_trip(pre, per):
    try:
        cf = cf_normalize(pre, per)
    except ValueError:  # empty, or the finite [1]
        assume(False)
    spec = format_theta_spec(cf)
    assert parse_theta_spec(spec) == cf
    # the canonical form is a fixed point of normalization
    assert cf_normalize(cf.preperiod, cf.period) == cf
    assert format_theta_spec(cf_normalize(cf.preperiod, cf.period)) == spec


def test_normalize_folds_trailing_one():
    assert format_theta_spec(cf_normalize([2, 3, 1])) == "cf:[2,4]"
    with pytest.raises(ValueError):
        cf_normalize([1])  # denotes 1, outside (0, 1)
    with pytest.raises(ValueError):
        cf_normalize([2, 0, 3])


def test_outside_input_is_validated_once():
    # CFExpansion trusts its quotients, so every entry point has to reject
    # what cf_normalize rejects
    for bad in ("cfper:[0][2]", "cfper:[][2,0]"):
        with pytest.raises(ValueError):
            parse_theta_spec(bad)
    with pytest.raises(ValueError):
        cf_normalize([], [0])
    with pytest.raises(ValueError):
        cf_normalize([2, 0, 3])
    with pytest.raises(ValueError):
        rational_to_cf(Fraction(1))


def test_rational_round_trip():
    rng = random.Random(1)
    for _ in range(500):
        q = rng.randint(2, 10**6)
        p = rng.randint(1, q - 1)
        f = Fraction(p, q)
        cf = rational_to_cf(f)
        assert cf_value(cf) == f
        if len(cf.preperiod) > 1:
            assert cf.preperiod[-1] != 1  # canonical form


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 200), st.integers(2, 10**40)), st.data())
def test_rational_to_cf_is_canonical(q, data):
    # Euclid's quotients need no cf_normalize pass: it leaves them as they are
    v = Fraction(data.draw(st.integers(1, q - 1)), q)
    cf = rational_to_cf(v)
    assert cf == cf_normalize(list(cf.preperiod))
    assert cf_value(cf) == v


def test_quadratic_values():
    assert cf_value(parse_theta_spec("cfper:[][2]")) == make_surd(0, 1, 2) - 1
    assert cf_value(parse_theta_spec("cfper:[][1]")) == (make_surd(0, 1, 5) - 1) / 2
    assert cf_value(parse_theta_spec("cfper:[1][2]")) == make_surd(0, 1, 2) / 2


# ---------------------------------------------------------------------------
# the gap map


def test_branch_consistency_random():
    """The symbolic step and the arithmetic step agree on 1000 random points."""
    rng = random.Random(2)
    done = 0
    while done < 1000:
        q = rng.randint(100, 10**9)
        p = rng.randint(1, q - 1)
        cf = rational_to_cf(Fraction(p, q))
        try:
            image = gap_map(cf)
        except ExpansionExhaustedError:
            continue
        assert cf_value(image) == gap_map_value(cf_value(cf), cf)
        done += 1


def test_branch_consistency_surd():
    theta = parse_theta_spec("cfper:[2,1][3,2]")
    cf = theta
    value = cf_value(theta)
    for _ in range(40):
        nxt = gap_map(cf)
        value = gap_map_value(value, cf)
        assert cf_value(nxt) == value
        cf = nxt


def test_gap_map_on_periodic_expansions():
    # purely periodic expansions through each branch, and an even head that
    # shifts into the period; the exact (preperiod, period) pair is pinned
    cases = {
        "cfper:[][1,4]": ((5,), (1, 4)),  # a1 = 1: [a2 + 1, a3, ...]
        "cfper:[][1]": ((2,), (1,)),
        "cfper:[][3,2]": ((1,), (2, 3)),  # odd: [1, a2, a3, ...]
        "cfper:[][2]": ((), (2,)),  # even: [a3, a4, ...]
        "cfper:[][2,5]": ((), (2, 5)),
        "cfper:[4][6,1]": ((), (1, 6)),
        "cfper:[3][2,1]": ((), (1, 2)),  # the head 1 ends the period, canonically
    }
    for spec, (pre, per) in cases.items():
        cf = parse_theta_spec(spec)
        image = gap_map(cf)
        assert (image.preperiod, image.period) == (pre, per), spec
        assert cf_value(image) == gap_map_value(cf_value(cf), cf)


def test_no_consecutive_half_steps():
    # a head of 1 maps to a head of a2 + 1 >= 2, so Half never repeats
    rng = random.Random(3)
    for _ in range(50):
        theta = sample_theta(rng, bits=128, min_quotients=40)
        traj = gap_trajectory(theta, 15)
        heads = [s.a1 for s in traj.steps]
        assert all(not (x == 1 and y == 1) for x, y in zip(heads, heads[1:]))


def test_trajectory_bookkeeping():
    traj = gap_trajectory(parse_theta_spec("cfper:[][2]"), 10)
    assert len(traj.steps) == 11
    for step in traj.steps:
        assert step.a1 == 2 and step.e == 2
        assert step.delta == 1 - 2 * step.value
    prod = Fraction(1)
    want = traj.delta_product(4)
    for step in traj.steps[:4]:
        prod = prod * step.delta
    assert prod == want


def _random_expansion(rng):
    if rng.random() < 0.5:
        return sample_theta(rng, bits=rng.randint(8, 160))
    pre = [rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
    return cf_normalize(pre, [rng.randint(1, 9) for _ in range(rng.randint(1, 4))])


def test_trajectory_values_match_cf_value():
    # lazy exact values against the exact value of each level's expansion
    rng = random.Random(11)
    thetas = [sample_theta(rng, bits=128, min_quotients=48) for _ in range(200)]
    for _ in range(20):
        pre = [rng.randint(1, 7) for _ in range(rng.randint(0, 3))]
        thetas.append(cf_normalize(pre, [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]))
    for theta in thetas:
        traj = gap_trajectory(theta, 20)
        for step in traj.steps:
            assert step.value == cf_value(step.cf)
            assert step.delta == 1 - step.e * step.value


def _chain_oracle(theta, depth):
    """Values, deltas and prefix delta products of levels 0..depth by the plain
    gap_map_value chain over repeated gap_map and a left fold."""
    cf, value = theta, cf_value(theta)
    values, deltas, products = [], [], [Fraction(1)]
    for level in range(depth + 1):
        values.append(value)
        deltas.append(1 - (cf.head - cf.head % 2) * value)
        products.append(products[-1] * deltas[-1])
        if level < depth:
            value = gap_map_value(value, cf)
            cf = gap_map(cf)
    return values, deltas, products


def _assert_trajectory_matches_chain(theta, depth):
    try:
        traj = gap_trajectory(theta, depth)
    except ExpansionExhaustedError as err:
        depth = err.steps_completed
        traj = gap_trajectory(theta, depth)
    values, deltas, products = _chain_oracle(theta, depth)
    for step, value, delta in zip(traj.steps, values, deltas, strict=True):
        assert step.value == value and str(step.value) == str(value)
        assert step.delta == delta and str(step.delta) == str(delta)
    for n in range(depth + 3):
        want = products[min(n, depth + 1)]
        got = traj.delta_product(n)
        assert got == want and str(got) == str(want)
    assert str(traj.delta_product()) == str(products[-1])


@settings(max_examples=150, deadline=None)
@given(
    pre=st.lists(st.integers(1, 12), max_size=3),
    per=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    depth=st.integers(0, 60),
)
def test_periodic_trajectory_matches_plain_chain(pre, per, depth):
    # values and delta products read off the first cycle equal the chain run
    # over every level, digit for digit
    theta = cf_normalize(pre, per)
    try:
        _assert_trajectory_matches_chain(theta, depth)
    except CellBoundaryError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(q=st.integers(2, 1 << 64), p=st.integers(1, 1 << 64), depth=st.integers(0, 60))
def test_rational_trajectory_matches_plain_chain(q, p, depth):
    theta = rational_to_cf(Fraction(p % (q - 1) + 1, q))
    try:
        _assert_trajectory_matches_chain(theta, depth)
    except CellBoundaryError:
        assume(False)


def test_cycle_of_length_one_and_empty_product():
    # every level of the silver theta has the same state, so its cycle has
    # length 1 from level 0 on
    theta = parse_theta_spec("cfper:[][2]")
    for depth in (0, 1, 2, 7, 60):
        _assert_trajectory_matches_chain(theta, depth)
        traj = gap_trajectory(theta, depth)
        empty = traj.delta_product(0)
        assert empty == 1 and isinstance(empty, Fraction)
        assert len({str(step.value) for step in traj.steps}) == 1


def _trajectory_digest(spec: str, depth: int = 60) -> str:
    traj = gap_trajectory(parse_theta_spec(spec), depth)
    h = hashlib.sha256()
    for step in traj.steps:
        h.update(f"{step.value}\n{step.delta}\n".encode())
    for n in range(depth + 2):
        h.update(f"{traj.delta_product(n)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec, digest", [
    ("cfper:[][2]", "8924c6ab706b45fd407a2887c71f5e19b0deaf06951d0434f3e95cb9e5850b03"),
    ("cfper:[][2,5]", "e99c42eb35edd69176f00b8073f3de4833bfcb1f5715e73b299c4e704f47514a"),
    ("cfper:[1][3,7,2]", "393413c440449381a74119aebffec67e5d7830aa753aab61df784f9ff2e41258"),
    ("cfper:[3][1,4,2]", "8bb16ae39e989ce9fb51c110185847232dcdafe03f266995e35216385ef44ced"),
])
def test_periodic_trajectory_golden(spec, digest):
    # sha256 of every exact value, delta and delta product (n <= 61) at depth
    # 60, taken from the chain run over every level
    assert _trajectory_digest(spec) == digest


def test_delta_squared_inverts_the_gap_slope():
    # delta_v = 1 - E(a1) theta_v is |g'(theta_v)|^(-1/2) on every cell, so
    # the product below is exactly 1 at every level; periodic levels run it
    # through Surd division and multiplication
    rng = random.Random(59)
    thetas = [parse_theta_spec(spec)
              for spec in ("cfper:[][2]", "cfper:[][2,5]", "cfper:[1][3,7,2]",
                           "cfper:[3][1,4,2]")]
    thetas += [sample_theta(rng, bits=256) for _ in range(20)]
    for theta in thetas:
        for step in gap_trajectory(theta, 59).steps:
            cell = classify_cell(step, step.value)
            assert step.delta ** 2 * gap_derivative(step.value, cell) == 1


def test_branch_matrices_are_unimodular():
    for a1 in range(1, 80):
        for a2 in range(1, 40):
            entries = branch_matrix(a1, a2)
            assert all(type(e) is int for e in entries)
            a, b, c, d = entries
            assert a * d - b * c in (1, -1)


def test_branch_cocycle():
    # M_n, the product of the branch matrices of levels 0 .. n-1, maps theta_n
    # to theta_0, and delta_0 * ... * delta_{n-1} = 1/|c_n theta_n + d_n|
    rng = random.Random(61)
    thetas = [parse_theta_spec(spec)
              for spec in ("cfper:[][2]", "cfper:[][2,5]", "cfper:[1][3,7,2]",
                           "cfper:[3][1,4,2]")]
    thetas += [sample_theta(rng, bits=700) for _ in range(40)]
    for theta in thetas:
        traj = gap_trajectory(theta, 40)
        a, b, c, d = 1, 0, 0, 1
        for step in traj.steps:
            assert mobius(a, b, c, d, step.value) == traj.theta_value
            assert traj.delta_product(step.level) * (c * step.value + d) in (1, -1)
            e, f, g, h = branch_matrix(step.a1, 0 if step.a1 % 2 else step.quotient(2))
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _cell_or_error(cf, *value):
    try:
        return classify_cell(cf, *value)
    except (CellBoundaryError, ExpansionExhaustedError) as exc:
        return type(exc), str(exc)


def test_classify_cell_reads_trajectory_steps():
    # a step and its held value classify as the step's rebuilt expansion does,
    # endpoint errors included
    rng = random.Random(13)
    thetas = [rational_to_cf(Fraction(p, q)) for q in range(2, 60) for p in range(1, q)
              if math.gcd(p, q) == 1]
    thetas += [cf_normalize([rng.randint(1, 7)], [rng.randint(1, 7) for _ in range(3)])
               for _ in range(30)]
    outcomes = set()
    for theta in thetas:
        try:
            steps = gap_trajectory(theta, 6).steps
        except (CellBoundaryError, ExpansionExhaustedError):
            continue
        for step in steps:
            got = _cell_or_error(step, step.value)
            assert got == _cell_or_error(step.cf)
            outcomes.add(type(got) is tuple and got[0])
    assert {False, CellBoundaryError} <= outcomes


def test_trajectory_views_match_gap_map_chain():
    # each level's expansion, built from its (head, offset) view, is tuple
    # for tuple what repeated gap_map gives
    rng = random.Random(12)
    for _ in range(3000):
        theta = _random_expansion(rng)
        chain = [theta]
        while len(chain) <= 60:
            try:
                chain.append(gap_map(chain[-1]))
            except ExpansionExhaustedError:
                break
        last = chain[-1]
        if last.is_finite and len(last) == 1 and last.head % 2 == 0:
            chain.pop()  # [2k] is a cell endpoint: the trajectory stops before it
        if not chain:
            continue
        traj = gap_trajectory(theta, len(chain) - 1)
        for step, cf in zip(traj.steps, chain):
            assert (step.cf.preperiod, step.cf.period) == (cf.preperiod, cf.period)
            assert step.a1 == cf.head
            assert step.e % 2 == 0 and cf.head - step.e in (0, 1)
            for i in (1, 2, 3):
                assert step.available(i) == cf.available(i)
                if cf.available(i):
                    assert step.quotient(i) == cf.quotient(i)


def test_trajectory_cell_endpoint_message():
    # a level expanding to a single even quotient [2k] has value 1/(2k) and delta 0
    cases = {
        ("rat:1/2", 0): "level 0 value 1/2 hits a cell endpoint (delta = 0)",
        ("cf:[2,5,4]", 1): "level 1 value 1/4 hits a cell endpoint (delta = 0)",
        ("cf:[2,5,4]", 5): "level 1 value 1/4 hits a cell endpoint (delta = 0)",
    }
    for (spec, n), message in cases.items():
        with pytest.raises(CellBoundaryError) as err:
            gap_trajectory(parse_theta_spec(spec), n)
        assert str(err.value) == message


def test_trajectory_exhaustion_reports_progress():
    cf = parse_theta_spec("rat:5/7")
    with pytest.raises(ExpansionExhaustedError) as err:
        gap_trajectory(cf, 30)
    assert err.value.steps_completed is not None
    assert 0 <= err.value.steps_completed < 30


def test_sample_theta_contract():
    rng = random.Random(4)
    for _ in range(20):
        cf = sample_theta(rng, bits=128, lower_half=True, min_quotients=30)
        assert cf.preperiod[0] >= 2
        assert len(cf.preperiod) >= 30


# ---------------------------------------------------------------------------
# the Markov partition


def test_cell_endpoints():
    assert PartitionCell(1).endpoints == (Fraction(1, 2), Fraction(1))
    assert PartitionCell(3).endpoints == (Fraction(1, 4), Fraction(1, 3))
    assert PartitionCell(2, 2).endpoints == (Fraction(2, 5), Fraction(3, 7))
    with pytest.raises(ValueError):
        PartitionCell(0)
    with pytest.raises(ValueError):
        PartitionCell(2, 0)


def test_classify_partitions_interval():
    """Cells tile (0, 1): every non-boundary grid point lands in one cell."""
    denom = 10**4 + 7
    boundaries = 0
    for j in range(1, denom):
        x = Fraction(j, denom)
        try:
            cell = classify_value(x)
        except CellBoundaryError:
            boundaries += 1
            continue
        assert cell.contains(x)
    # 2nm + 1 = 10007 factors as (n, m) = (1, 5003) and (5003, 1), so exactly
    # the grid points 1/10007 and 5003/10007 are genuine cell endpoints
    assert boundaries == 2


def test_classify_boundaries_raise():
    for x in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)):
        with pytest.raises(CellBoundaryError):
            classify_value(x)
    with pytest.raises(ValueError):
        classify_value(Fraction(3, 2))


def test_classify_cell_matches_value():
    rng = random.Random(5)
    done = 0
    while done < 300:
        q = rng.randint(10, 10**6)
        p = rng.randint(1, q - 1)
        cf = rational_to_cf(Fraction(p, q))
        try:
            by_cf = classify_cell(cf)
            by_val = classify_value(Fraction(p, q))
        except (CellBoundaryError, ExpansionExhaustedError):
            continue
        assert by_cf == by_val
        done += 1


def test_classify_surd():
    silver = cf_value(parse_theta_spec("cfper:[][2]"))
    cell = classify_value(silver)
    assert cell == PartitionCell(2, 2)
    assert isinstance(silver, Surd)


def test_two_step_expansivity():
    """|(g o g)'| stays above 4: the only slope-1 branch is followed by
    a branch of slope above 4, and a steep branch is never followed by Half
    twice in a row."""
    denom = 1009
    for j in range(1, denom):
        x = Fraction(j, denom)
        try:
            c1 = classify_value(x)
            d1 = gap_derivative(x, c1)
            y = gap_map_value(x, rational_to_cf(x))
            c2 = classify_value(y)
            d2 = gap_derivative(y, c2)
        except (CellBoundaryError, ExpansionExhaustedError, ValueError):
            continue
        assert d1 * d2 > 4


def test_gap_derivative_values():
    assert gap_derivative(Fraction(3, 4), PartitionCell(1)) == 1
    # odd branch x / (1 - 2kx): slope (1 - 2kx)^-2
    x = Fraction(3, 10)
    assert gap_derivative(x, PartitionCell(3)) == Fraction(25, 4)
    with pytest.raises(CellBoundaryError):
        gap_derivative(Fraction(3, 4), PartitionCell(3))


def test_each_cell_has_one_name():
    # a2 >= 1 exactly when a1 is even; every other name raises
    cells = []
    for a1 in range(-2, 40):
        for a2 in range(-2, 20):
            valid = a1 >= 1 and (a2 >= 1 if a1 % 2 == 0 else a2 == 0)
            try:
                cells.append(PartitionCell(a1, a2))
            except ValueError:
                assert not valid
            else:
                assert valid
    # distinct names are distinct cells: no two share their endpoints
    assert len({cell.endpoints for cell in cells}) == len(cells) == 20 + 19 * 19


def _cell_names_digest() -> str:
    rng = random.Random(11)
    thetas = [parse_theta_spec(spec)
              for spec in ("cfper:[][2]", "cfper:[][2,5]", "cfper:[1][3,7,2]",
                           "cfper:[3][1,4,2]")]
    thetas += [rational_to_cf(Fraction(p, q)) for q in range(2, 60) for p in range(1, q)
               if math.gcd(p, q) == 1]
    thetas += [sample_theta(rng, bits=128, min_quotients=48) for _ in range(200)]
    h = hashlib.sha256()
    for theta in thetas:
        try:
            steps = gap_trajectory(theta, 20).steps
        except ExpansionExhaustedError as exc:
            steps = gap_trajectory(theta, exc.steps_completed).steps
        except CellBoundaryError:
            continue
        for step in steps:
            try:
                h.update(f"{classify_cell(step, step.value)}\n".encode())
            except CellBoundaryError as exc:
                h.update(f"{exc}\n".encode())
    return h.hexdigest()


def test_cell_names_are_unchanged():
    # sha256 of the cell (Half, Odd(k), Even(n,m)) or endpoint error printed
    # at levels <= 20 of the golden periodic theta, the rationals p/q with
    # q < 60 and 200 random rationals; taken when cells were named by kind
    assert _cell_names_digest() == (
        "4e2c065953a0f75e8836411fedc56894faa222975cf145203f949f68558a0708")


def _assert_canonical(x):
    assert x == cf_normalize(x.preperiod, x.period)


@settings(max_examples=300, deadline=None)
@given(
    pre=st.lists(st.integers(1, 6), max_size=5),
    per=st.lists(st.integers(1, 6), max_size=4),
    depth=st.integers(1, 30),
)
def test_level_expansions_are_canonical(pre, per, depth):
    # gap_map and each trajectory level give the form cf_normalize writes
    try:
        theta = cf_normalize(pre, per)
    except ValueError:
        assume(False)
    cf = theta
    for _ in range(depth):
        try:
            cf = gap_map(cf)
        except ExpansionExhaustedError:
            break
        _assert_canonical(cf)
    try:
        traj = gap_trajectory(theta, depth)
    except ExpansionExhaustedError as exc:
        traj = gap_trajectory(theta, exc.steps_completed)
    except CellBoundaryError:
        return
    for step in traj.steps:
        _assert_canonical(step.cf)
