import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaprenorm.cf import (
    CellBoundaryError,
    ExpansionExhaustedError,
    PartitionCell,
    cf_normalize,
    cf_value,
    classify_cell,
    format_theta_spec,
    gap_derivative,
    gap_map,
    gap_map_value,
    gap_trajectory,
    parity_floor,
    parse_theta_spec,
    rational_to_cf,
    sample_theta,
)
from gaprenorm.exact import ExactReal, Surd, exact_floor, make_surd


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
        return PartitionCell("half")
    r = 1 / x
    a1 = exact_floor(r)
    if r == a1:
        raise CellBoundaryError(f"{x} is the endpoint 1/{a1}")
    if a1 % 2 == 1:
        return PartitionCell("odd", k=(a1 - 1) // 2)
    y = r - a1
    m = exact_floor(1 / y)
    if 1 / y == m:
        raise CellBoundaryError(f"{x} is an even-cell endpoint")
    cell = PartitionCell("even", n=a1 // 2, m=m)
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


def test_parity_floor():
    assert [parity_floor(a) for a in (1, 2, 3, 4, 7)] == [0, 2, 2, 4, 6]
    with pytest.raises(ValueError):
        parity_floor(0)


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
            assert (step.a1, step.e) == (cf.head, parity_floor(cf.head))
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
    assert PartitionCell("half").endpoints == (Fraction(1, 2), Fraction(1))
    assert PartitionCell("odd", k=1).endpoints == (Fraction(1, 4), Fraction(1, 3))
    assert PartitionCell("even", n=1, m=2).endpoints == (Fraction(2, 5), Fraction(3, 7))
    with pytest.raises(ValueError):
        PartitionCell("odd", k=0)
    with pytest.raises(ValueError):
        PartitionCell("weird")


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
    assert cell == PartitionCell("even", n=1, m=2)
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
    assert gap_derivative(Fraction(3, 4), PartitionCell("half")) == 1
    # odd branch x / (1 - 2kx): slope (1 - 2kx)^-2
    x = Fraction(3, 10)
    assert gap_derivative(x, PartitionCell("odd", k=1)) == Fraction(25, 4)
    with pytest.raises(CellBoundaryError):
        gap_derivative(Fraction(3, 4), PartitionCell("odd", k=1))
