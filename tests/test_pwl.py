from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fot.core import ContractError, DomainError, INF, Q
from fot.dynamics import _first_difference
from fot.pwl import PiecewiseLinear, joint_segments, minimum

import helpers

F = Fraction

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
positive_fractions = st.fractions(min_value=F(1, 12), max_value=8, max_denominator=12)


@st.composite
def pwl_functions(draw, monotone=False):
    start = draw(st.one_of(st.just(F(0)), small_fractions))
    n = draw(st.integers(min_value=0, max_value=4))
    xs = [start]
    for _ in range(n):
        xs.append(xs[-1] + draw(positive_fractions))
    if monotone:  # flat pieces are frequent
        slope_strategy = st.one_of(st.just(F(0)), positive_fractions)
    else:
        slope_strategy = small_fractions
    y = draw(small_fractions)
    points = [(xs[0], y)]
    for a, b in zip(xs, xs[1:]):
        y = y + draw(slope_strategy) * (b - a)
        points.append((b, y))
    final = draw(slope_strategy)
    return PiecewiseLinear.from_points(points, final)


def sample_grid(*funcs):
    """Breakpoints, segment midpoints, and points beyond the last breakpoint."""
    start = max(f.xs[0] for f in funcs)
    xs = sorted({x for f in funcs for x in f.xs if x >= start} | {start})
    grid = list(xs)
    for a, b in zip(xs, xs[1:]):
        grid.append((a + b) / 2)
    grid.extend([xs[-1] + 1, xs[-1] + F(7, 3)])
    return grid


def add_constant(f, c):
    """The curve f shifted up by c."""
    return PiecewiseLinear(f.xs, tuple(y + c for y in f.ys), f.final_slope)


def line_from(start, slope, intercept):
    """The one-piece curve slope * x + intercept on [start, infinity)."""
    return PiecewiseLinear.from_points([(start, intercept + slope * start)], slope)


# -- frozen examples ---------------------------------------------------------


def test_eval_identity():
    assert PiecewiseLinear.identity()(F(7, 2)) == F(7, 2)


def test_eval_constant_tail():
    f = PiecewiseLinear.from_points([(F(0), F(0)), (F(1), F(2))], F(0))
    assert f(F(3)) == F(2)


def test_eval_cumulative_inflow_shape():
    # rate 2 on [0,1), rate 1 afterwards, integrated from zero
    f = PiecewiseLinear.from_rate_segments([(F(0), F(2)), (F(1), F(1))])
    assert f(F(2)) == F(3)
    assert f(F(1, 2)) == F(1)
    with pytest.raises(DomainError):
        f(F(-1))


def test_min_identity_vs_constant():
    got = minimum(PiecewiseLinear.identity(), PiecewiseLinear.constant(F(5)))
    assert got == PiecewiseLinear.from_points([(F(0), F(0)), (F(5), F(5))], F(0))


def test_min_affine_crossing():
    f = PiecewiseLinear.affine(F(1), F(1))  # x + 1
    g = PiecewiseLinear.affine(F(2), F(0))  # 2x
    got = minimum(f, g)
    assert F(1) in got.xs and got(F(1)) == F(2)
    assert got(F(1, 2)) == F(1) and got(F(2)) == F(3)


def test_compose_with_identity():
    f = PiecewiseLinear.from_points([(F(0), F(1)), (F(2), F(0))], F(3))
    assert f.compose(PiecewiseLinear.identity()) == f


def test_compose_affine():
    doubling = PiecewiseLinear.affine(F(2), F(0))
    shift = PiecewiseLinear.affine(F(1), F(1))
    assert doubling.compose(shift) == PiecewiseLinear.affine(F(2), F(2))


def test_compose_sink_arrivals_after_labels():
    # Cumulative sink arrivals and sink label of the two-link base run:
    # arrivals have rate 1 until time 2 and rate 2 afterwards; the label is
    # 2x until 1 and x+1 afterwards.  Their composition is exactly 2x.
    gamma = PiecewiseLinear.from_points([(F(0), F(0)), (F(2), F(2))], F(2))
    label = PiecewiseLinear.from_points([(F(0), F(0)), (F(1), F(2))], F(1))
    assert gamma.compose(label) == PiecewiseLinear.affine(F(2), F(0))


def test_compose_requires_nondecreasing_inner():
    f = PiecewiseLinear.identity()
    dec = PiecewiseLinear.affine(F(-1), F(0))
    with pytest.raises(ContractError):
        f.compose(dec)


def test_canonical_form_merges_collinear_points():
    a = PiecewiseLinear.from_points(
        [(F(0), F(0)), (F(1), F(1)), (F(2), F(2)), (F(3), F(4))], F(2))
    b = PiecewiseLinear.from_points([(F(0), F(0)), (F(2), F(2))], F(2))
    assert a == b
    with pytest.raises(ContractError):
        PiecewiseLinear((F(0), F(1)), (F(0), F(1)), F(1))  # collinear, non-canonical


@settings(max_examples=150)
@given(st.lists(st.tuples(positive_fractions, st.sampled_from([F(0), F(1), F(-1, 2)])),
                max_size=6),
       small_fractions, st.sampled_from([F(0), F(1), F(-1, 2)]))
def test_from_points_matches_the_checked_constructor(steps, y0, final):
    # Few distinct slopes make collinear runs, which from_points must merge.
    points = [(F(0), y0)]
    for dx, slope in steps:
        x, y = points[-1]
        points.append((x + dx, y + slope * dx))
    f = PiecewiseLinear.from_points(points, final)
    checked = PiecewiseLinear(f.xs, f.ys, f.final_slope)
    assert f == checked
    assert f._slopes == checked._slopes
    if len(points) > 1:
        with pytest.raises(ContractError, match="strictly increasing"):
            PiecewiseLinear.from_points(points[::-1], final)


def test_rate_pairs():
    f = PiecewiseLinear.from_points([(F(0), F(0)), (F(1), F(2))], F(-1))
    assert f.rate_pairs() == [(F(0), F(2)), (F(1), F(-1))]
    assert PiecewiseLinear.from_rate_segments(f.rate_pairs()) == f


# -- properties --------------------------------------------------------------


@settings(max_examples=120)
@given(pwl_functions(), pwl_functions())
def test_min_matches_pointwise_oracle(f, g):
    got = minimum(f, g)
    for x in sample_grid(f, g, got):
        assert got(x) == min(f(x), g(x))


@settings(max_examples=80)
@given(pwl_functions(), pwl_functions(), pwl_functions())
def test_min_commutative_associative_idempotent(f, g, h):
    assert minimum(f, g) == minimum(g, f)
    assert minimum(minimum(f, g), h) == minimum(f, minimum(g, h))
    assert minimum(f, f) == f


@settings(max_examples=120)
@given(pwl_functions(), pwl_functions())
def test_add_sub_match_pointwise_oracle(f, g):
    total = f + g
    diff = f - g
    for x in sample_grid(f, g):
        assert total(x) == f(x) + g(x)
        assert diff(x) == f(x) - g(x)


@settings(max_examples=120)
@given(pwl_functions(), pwl_functions(monotone=True))
def test_compose_matches_pointwise_oracle(f, g):
    shifted = add_constant(g, f.xs[0] - g.ys[0])  # force range into f's domain
    got = f.compose(shifted)
    for x in sample_grid(shifted, got):
        assert got(x) == f(shifted(x))


# -- differential tests against the point-wise reference ---------------------
#
# The reference versions evaluate both curves at every point of the merged
# breakpoint grid, one binary search per point; the library walks the two
# breakpoint lists together.  Both must give the same canonical curve.


def _slope_right(f, x):
    return f.slopes()[f._segment_index(x)]


def _merged_grid(f, g):
    start = max(f.xs[0], g.xs[0])
    return sorted({start} | {x for x in f.xs + g.xs if x >= start})


def reference_add(f, g):
    points = [(x, f(x) + g(x)) for x in _merged_grid(f, g)]
    return PiecewiseLinear.from_points(points, f.final_slope + g.final_slope)


def reference_minimum(f, g):
    grid = _merged_grid(f, g)
    candidates = set(grid)
    for a, b in zip(grid, grid[1:]):
        da = f(a) - g(a)
        db = f(b) - g(b)
        if (da > 0 and db < 0) or (da < 0 and db > 0):
            slope = (db - da) / (b - a)
            candidates.add(a - da / slope)
    last = grid[-1]
    d_last = f(last) - g(last)
    d_slope = _slope_right(f, last) - _slope_right(g, last)
    if d_last != 0 and d_slope != 0:
        t = last - d_last / d_slope
        if t > last:
            candidates.add(t)
    xs = sorted(candidates)
    points = [(x, min(f(x), g(x))) for x in xs]
    end = xs[-1]
    if f(end) < g(end):
        final = _slope_right(f, end)
    elif g(end) < f(end):
        final = _slope_right(g, end)
    else:
        final = min(_slope_right(f, end), _slope_right(g, end))
    return PiecewiseLinear.from_points(points, final)


def reference_compose(outer, inner):
    candidates = set(inner.xs)
    for a, b, v, s in inner.segments():
        if s == 0:
            continue
        for bp in outer.xs:
            t = a + (bp - v) / s
            if t >= a and (b is INF or t <= b):
                candidates.add(t)
    grid = sorted(candidates)
    points = [(x, outer(inner(x))) for x in grid]
    final = _slope_right(outer, inner(grid[-1])) * inner.final_slope
    return PiecewiseLinear.from_points(points, final)


def reference_first_difference(f, g):
    if f == g:
        return None
    if f.xs[0] != g.xs[0]:
        return max(f.xs[0], g.xs[0])
    for x in sorted(set(f.xs) | set(g.xs)):
        if f(x) != g(x):
            return x
    return max(f.xs[-1], g.xs[-1]) + 1


nonzero_fractions = small_fractions.filter(lambda k: k != 0)


@st.composite
def curve_pairs(draw):
    """Two curves, often in a relation that meets the walk's corner cases:
    equal, touching without crossing, crossing exactly at a breakpoint, or
    crossing only on the final ray."""
    f = draw(pwl_functions())
    start = f.xs[0]
    kind = draw(st.sampled_from(["independent", "equal", "touching",
                                 "crossing at a breakpoint", "crossing on the final ray"]))
    if kind == "independent":
        g = draw(pwl_functions())
    elif kind == "equal":
        g = f
    elif kind == "touching":
        # f plus a V-shaped bump k|x - c|, which is zero only at c
        c = draw(st.sampled_from(f.xs)) + draw(st.sampled_from([F(0), F(1, 2)]))
        k = draw(positive_fractions)
        bump = line_from(start, k, -k * c)  # rises through zero at c
        if c > start:
            bump = PiecewiseLinear.from_points([(start, k * (c - start)), (c, F(0))], k)
        g = f + bump.scale(draw(st.sampled_from([F(1), F(-1)])))
    else:
        # f plus k(x - c), which changes sign exactly at c
        if kind == "crossing at a breakpoint":
            c = draw(st.sampled_from(f.xs))
        else:
            c = f.xs[-1] + draw(positive_fractions)
        k = draw(nonzero_fractions)
        g = f + line_from(start, k, -k * c)
    return (g, f) if draw(st.booleans()) else (f, g)


@st.composite
def compose_pairs(draw):
    """An outer curve and a nondecreasing inner curve in its domain; the
    inner values either drift freely or land exactly on outer breakpoints,
    with flat pieces often."""
    outer = draw(pwl_functions())
    if draw(st.booleans()):
        inner = draw(pwl_functions(monotone=True))
        lift = draw(st.one_of(st.just(F(0)), positive_fractions))
        return outer, add_constant(inner, outer.xs[0] - inner.ys[0] + lift)
    values = sorted(draw(st.lists(st.sampled_from(outer.xs), min_size=1, max_size=6)))
    x = draw(small_fractions)
    points = []
    for v in values:
        points.append((x, v))
        x += draw(positive_fractions)
    final = draw(st.one_of(st.just(F(0)), positive_fractions))
    return outer, PiecewiseLinear.from_points(points, final)


@settings(max_examples=200)
@given(curve_pairs())
def test_two_curve_operations_match_the_pointwise_reference(pair):
    f, g = pair
    assert f + g == reference_add(f, g)
    assert minimum(f, g) == reference_minimum(f, g)
    assert _first_difference(f, g) == reference_first_difference(f, g)


@settings(max_examples=200)
@given(curve_pairs())
def test_curves_differ_at_the_witness_of_their_first_difference(pair):
    # Curves that start together differ at the witness, also when they
    # part only on the final ray; curves that start apart get the later
    # start, which names where their domains differ.
    f, g = pair
    witness = _first_difference(f, g)
    if witness is not None and f.xs[0] == g.xs[0]:
        assert f(witness) != g(witness)


@settings(max_examples=200)
@given(compose_pairs())
def test_compose_matches_the_pointwise_reference(pair):
    outer, inner = pair
    assert outer.compose(inner) == reference_compose(outer, inner)


# -- results built from their known slopes -------------------------------------


@st.composite
def rate_segments(draw):
    """(start, rate) pairs with repeated starts and equal consecutive rates."""
    pairs, start = [], F(0)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        start += draw(st.one_of(st.just(F(0)), positive_fractions))
        pairs.append((start, draw(st.sampled_from([F(0), F(1), F(2), F(1, 2)]))))
    return pairs


@settings(max_examples=150)
@given(curve_pairs(), compose_pairs(), small_fractions, rate_segments())
def test_results_built_from_known_slopes_are_canonical(pair, composition, k, pairs):
    f, g = pair
    outer, inner = composition
    for r in (f + g, f - g, g - f, f.scale(k), f.scale(-k), minimum(f, g),
              outer.compose(inner), PiecewiseLinear.from_rate_segments(pairs)):
        # The checked constructor accepts r's arrays as canonical, and the
        # slopes it derives from the points are the ones r carries.
        checked = PiecewiseLinear(r.xs, r.ys, r.final_slope)
        assert checked == r and r.slopes() == checked.slopes()


# -- shapes that skip the walk ---------------------------------------------------


def assert_canonical(r):
    checked = PiecewiseLinear(r.xs, r.ys, r.final_slope)
    assert checked == r and r.slopes() == checked.slopes()


def from_zero(f):
    """f moved right or left so that it starts at 0."""
    return PiecewiseLinear(tuple(x - f.xs[0] for x in f.xs), f.ys, f.final_slope)


@st.composite
def translations(draw):
    """A curve and a shift in its domain: often a breakpoint, else between
    or past them."""
    f = draw(pwl_functions())
    if draw(st.booleans()):
        c = draw(st.sampled_from(f.xs))
    else:
        c = f.xs[0] + draw(st.one_of(st.just(F(0)), positive_fractions))
    return f, c


@settings(max_examples=200)
@given(translations())
def test_composing_with_x_plus_c_is_the_translation(pair):
    f, c = pair
    points = [(F(0), f(c))] + [(x - c, f(x)) for x in f.xs if x > c]
    expected = PiecewiseLinear.from_points(points, f.final_slope)
    got = f.compose(PiecewiseLinear.affine(F(1), c))
    assert got == expected and f.translate(c) == expected
    assert got == reference_compose(f, PiecewiseLinear.affine(F(1), c))
    assert_canonical(got)


@settings(max_examples=150)
@given(pwl_functions(monotone=True), small_fractions, st.one_of(st.just(F(0)), positive_fractions))
@example(PiecewiseLinear.identity(), F(0), F(0))
def test_an_outer_x_plus_c_adds_c_to_the_inner_curve(g, c, room):
    outer = line_from(g.ys[0] - room, F(1), c)  # x + c from at or below g's start
    got = outer.compose(g)
    assert got == add_constant(g, c) == reference_compose(outer, g)
    assert_canonical(got)
    if c == 0:
        assert got is g


@settings(max_examples=100)
@given(pwl_functions())
@example(PiecewiseLinear.identity())
def test_composing_with_the_identity_returns_the_curve(f):
    f = from_zero(f)
    identity = PiecewiseLinear.identity()
    # An outer x + 0 returns its inner curve, so the identity composed with
    # the identity is the inner one.
    assert f.compose(identity) is (identity if f == identity else f)
    assert f.translate(F(0)) is f


@settings(max_examples=150)
@given(pwl_functions(), pwl_functions(), st.one_of(st.just(F(0)), positive_fractions))
def test_adding_a_line_matches_the_pointwise_reference(f, line, room):
    # A one-piece curve that starts at or before f, on either side of the sum.
    line = line_from(f.xs[0] - room, line.final_slope, line.ys[0])
    for got in (f + line, line + f):
        assert got == reference_add(f, line)
        assert_canonical(got)


@settings(max_examples=100)
@given(pwl_functions(monotone=True), small_fractions, positive_fractions)
def test_the_shortcuts_keep_the_contract_checks(g, c, gap):
    falling = PiecewiseLinear.affine(F(-1), g.ys[0])
    # An inner x + c below the outer domain.
    f = line_from(c + gap, F(2), F(0))
    with pytest.raises(DomainError):
        f.compose(PiecewiseLinear.affine(F(1), c))
    with pytest.raises(DomainError):
        f.translate(c)
    # The identity below the domain of an outer curve that starts after 0.
    with pytest.raises(DomainError):
        line_from(gap, F(3), F(1)).compose(PiecewiseLinear.identity())
    # An outer x + c: a decreasing inner, and one that starts below its domain.
    outer = line_from(g.ys[0] + gap, F(1), c)
    with pytest.raises(ContractError):
        outer.compose(falling)
    with pytest.raises(DomainError):
        outer.compose(g)


# -- the one-loop kernels against their generator-based reference bodies -------


huge_fractions = st.builds(lambda p, q: Q(p, q), st.integers(-2 ** 200, 2 ** 200),
                           st.integers(1, 2 ** 200))
kernel_values = st.one_of(small_fractions.map(Q), huge_fractions)


@st.composite
def kernel_curves(draw):
    """Two canonical `Q` curves and a nondecreasing curve in the first
    one's domain.  Breakpoints come from one shared pool, so starts differ or
    agree and inner breakpoints coincide; curves of one piece are frequent;
    positions, values and slopes are small or 200-bit rationals.  The second
    curve is often the first one, or the first one plus a line, so that sums
    and differences merge pieces."""
    pool = sorted(set(draw(st.lists(kernel_values, min_size=1, max_size=6))))

    def curve(xs, values, final):
        xs = sorted(set(xs))
        return PiecewiseLinear.from_points(list(zip(xs, values(len(xs)))), final)

    def free_values(n):
        return [draw(kernel_values) for _ in range(n)]

    def pick(min_size=1):
        return draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=5))

    f = curve(pick(), free_values, draw(kernel_values))
    kind = draw(st.sampled_from(["independent", "equal", "plus a line"]))
    if kind == "independent":
        g = curve(pick(), free_values, draw(kernel_values))
    elif kind == "equal":
        g = f
    else:
        g = f + line_from(f.xs[0], draw(kernel_values), draw(kernel_values))
    lands = [v for v in pool + list(f.xs) if v >= f.xs[0]] or [f.xs[0]]
    inner_xs = pick()
    rising = sorted(draw(st.sampled_from(lands)) for _ in inner_xs)
    inner = curve(inner_xs, lambda n: rising[:n],
                  draw(st.sampled_from([Q(0), Q(1), Q(1, 3), abs(draw(huge_fractions))])))
    return f, g, inner


def kernel_arrays(curve):
    return curve.xs, curve.ys, curve.slopes()


SHARED = (PiecewiseLinear.from_points([(Q(0), Q(0)), (Q(1), Q(2)), (Q(3), Q(3))], Q(1)),
          PiecewiseLinear.from_points([(Q(0), Q(1)), (Q(1), Q(1)), (Q(2), Q(4))], Q(0)),
          PiecewiseLinear.from_points([(Q(0), Q(0)), (Q(2), Q(1))], Q(1)))


@settings(max_examples=300)
@given(kernel_curves())
@example(SHARED)  # an inner breakpoint of both curves
@example((SHARED[0], SHARED[0], SHARED[2]))  # a difference that is one piece
def test_one_loop_kernels_match_their_reference_bodies(curves):
    f, g, inner = curves
    for a, b in ((f, g), (g, f)):
        assert list(joint_segments(a, b)) == list(helpers.reference_joint_segments(a, b))
        assert kernel_arrays(a + b) == kernel_arrays(helpers.reference_add(a, b))
        assert kernel_arrays(a - b) == kernel_arrays(helpers.reference_sub(a, b))
        assert kernel_arrays(minimum(a, b)) == kernel_arrays(helpers.reference_min2(a, b))
    assert kernel_arrays(f.compose(inner)) == kernel_arrays(helpers.reference_compose(f, inner))


@settings(max_examples=150)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([Q(0), Q(1), Q(5, 2)]),
                                    huge_fractions.map(abs)),
                          st.one_of(st.sampled_from([Q(0), Q(1), Q(1, 2)]), kernel_values)),
                max_size=7))
def test_integration_matches_its_reference_body(pairs):
    # Repeated starts (a later rate replaces an earlier one) and repeated
    # rates (pieces merge) are frequent.
    pairs = sorted(pairs, key=lambda pair: pair[0])
    assert (kernel_arrays(PiecewiseLinear.from_rate_segments(pairs))
            == kernel_arrays(helpers.reference_from_rate_segments(pairs)))
