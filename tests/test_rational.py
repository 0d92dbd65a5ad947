"""`fot.core.Q`, the package's exact rational, against `fractions.Fraction`,
and the closure of an engine run under it: every scalar an engine run
computes must be a `Q`, so that no slow plain `Fraction` comes back in."""

import copy
import dataclasses
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot.braess import braess_ratio
from fot.core import INF, Q, transpose
from fot.dynamics import flow_from_obj, flow_to_obj
from fot.equilibrium import nash_flow
from fot.gen import make_ladder
from fot.pwl import PiecewiseLinear

F = Fraction

BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)

integers = st.one_of(st.integers(-50, 50), st.integers(-2 ** 130, 2 ** 130))
fractions = st.builds(F, integers, st.one_of(st.integers(1, 60), st.integers(1, 2 ** 130)))
operands = st.one_of(integers, fractions, fractions.map(lambda f: Q(f.numerator, f.denominator)))


def reference(x):
    """The operand as `fractions` would see it: an int, or a plain Fraction."""
    return x if type(x) is int else F(x.numerator, x.denominator)


def assert_q(x):
    assert type(x) is Q
    assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_q_operators_agree_with_fraction(a, b):
    involves_q = Q in (type(a), type(b))
    for op in BINARY:
        if op is operator.truediv and b == 0:
            with pytest.raises(ZeroDivisionError):
                op(a, b)
            continue
        result, expected = op(a, b), op(reference(a), reference(b))
        assert result == expected and str(result) == str(expected)
        if involves_q:
            assert_q(result)
            assert hash(result) == hash(expected)
    for op in COMPARISONS:
        result = op(a, b)
        assert type(result) is bool
        assert result == op(reference(a), reference(b))


@given(fractions)
def test_q_unary_operators_hash_and_str_agree_with_fraction(f):
    q = Q(f.numerator, f.denominator)
    assert_q(q)
    for op in (operator.neg, abs):
        assert_q(op(q))
        assert op(q) == op(f)
    assert hash(q) == hash(f) and str(q) == str(f) and q == f and f == q
    assert {q: 1}[f] == 1  # a Q and an equal Fraction are one dict key
    if f.denominator == 1:
        assert q == f.numerator and hash(q) == hash(f.numerator)


@given(fractions)
def test_q_pickles_and_copies_as_a_q(f):
    q = Q(f.numerator, f.denominator)
    for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        assert type(twin) is Q and twin == q


def test_q_orders_below_infinity_and_refuses_arithmetic_with_it():
    half = Q(1, 2)
    assert half < INF and half <= INF and INF > half and INF >= half
    assert half != INF and INF != half and not half == INF
    assert not half > INF and not INF < half
    for op in BINARY:
        with pytest.raises(TypeError):
            op(half, INF)
        with pytest.raises(TypeError):
            op(INF, half)


def shortcut(op, a, b):
    """The operand that the forward `op` of a `Q` a returns as it is, or
    None: `a` for a + 0, a - 0, a * 1, a / 1, 0 * b and 0 / b; `b` for
    0 + b, 1 * b and a * 0 when `b` is a `Q`."""
    if op is operator.add:
        return a if b == 0 else b if a == 0 and type(b) is Q else None
    if op is operator.sub:
        return a if b == 0 else None
    if op is operator.mul:
        return a if a == 0 or b == 1 else b if (a == 1 or b == 0) and type(b) is Q else None
    return a if a == 0 or b == 1 else None


def test_identity_operands_return_the_other_operand():
    big = Q(2 ** 129 + 2, 3)
    assert big.numerator.bit_length() == 130
    values = [kind(v) for v in (0, 1) for kind in (int, F, Q)] + [big]
    shared = set()
    for a in values:
        for b in values:
            if Q not in (type(a), type(b)):
                continue
            for op in BINARY:
                case = (op.__name__, repr(a), repr(b))
                if op is operator.truediv and b == 0:
                    with pytest.raises(ZeroDivisionError):
                        op(a, b)
                    continue
                result, expected = op(a, b), op(reference(a), reference(b))
                assert result == expected and str(result) == str(expected), case
                assert_q(result)
                # The reflected sum and product are the forward ones, so
                # 0 + q and 1 * q return q too.
                returned = (shortcut(op, a, b) if type(a) is Q
                            else shortcut(op, b, a) if op in (operator.add, operator.mul)
                            else None)
                if returned is not None:
                    assert result is returned, case
                    shared.add(op.__name__)
    assert shared == {"add", "sub", "mul", "truediv"}
    q = Q(2, 3)
    assert 0 + q is q and 1 * q is q and q + 0 is q and q * 1 is q
    for zero in (0, Q(0)):
        with pytest.raises(ZeroDivisionError):
            Q(0) / zero


def test_q_with_other_operand_types_behaves_as_fraction():
    half = Q(1, 2)
    assert half + 0.5 == 1.0 and type(half + 0.5) is float
    assert half + True == F(3, 2) and half * False == 0
    assert half < 1.0 and half == 0.5
    # The reflected forms, with a float or a bool on the left.
    assert 0.5 + half == 1.0 and type(0.5 + half) is float
    assert 1.0 / half == 2.0 and type(1.0 / half) is float
    assert True - half == F(1, 2) and False * half == 0
    for zero_division in (lambda: 1 / Q(0), lambda: Q(1) / 0):
        with pytest.raises(ZeroDivisionError):
            zero_division()


# -- closure of an engine run ---------------------------------------------------


def scalars(obj, path="result"):
    """Every rational in a result, with its path: dataclass fields, mapping
    values, sequence items and the breakpoints and slopes of curves."""
    if isinstance(obj, F):
        yield path, obj
    elif isinstance(obj, PiecewiseLinear):
        for name, values in (("xs", obj.xs), ("ys", obj.ys), ("slopes", obj.slopes())):
            for i, value in enumerate(values):
                yield f"{path}.{name}[{i}]", value
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                yield from scalars(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from scalars(value, f"{path}[{key!r}]")
    elif isinstance(obj, (tuple, list)):
        for i, value in enumerate(obj):
            yield from scalars(value, f"{path}[{i}]")


def assert_all_q(result, least):
    found = list(scalars(result))
    assert len(found) >= least
    assert [(path, type(x).__name__) for path, x in found if type(x) is not Q] == []


@pytest.mark.parametrize("transposed", [False, True])
def test_every_scalar_of_an_engine_run_is_a_q(transposed):
    # make_ladder builds its instance from plain Fractions.
    inst = make_ladder(4, F(1, 1000))
    assert type(inst.supply) is Q
    run = nash_flow(transpose(inst) if transposed else inst)
    assert len(run.phases) > 1 and run.events
    # Phase times, slopes and rates, event times, label and flow
    # breakpoints, and the social cost.
    assert_all_q(run, least=100)
    assert_q(run.social_cost)
    assert_all_q(flow_from_obj(flow_to_obj(run.flow)), least=50)


def test_every_scalar_of_a_braess_report_is_a_q():
    report = braess_ratio(make_ladder(4, F(1, 1000)))
    assert report.paradox
    assert_all_q(report, least=4)
    assert_q(report.ratio)

