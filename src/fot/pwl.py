"""Exact piecewise-linear functions of time.

A `PiecewiseLinear` is a continuous function on ``[start, infinity)`` given by
finitely many breakpoints and a final slope that extends the last segment
forever.  The representation is canonical (no two adjacent segments share a
slope), so structural equality is semantic equality.  All arithmetic is over
`fractions.Fraction`; crossing points and preimages are computed exactly.
Sum, minimum and the piecewise tests in `fot.dynamics` walk two curves'
breakpoint lists at once (`joint_segments`); `compose` walks inner segments
and outer breakpoints at once.

These functions carry every curve in the package: cumulative edge in/outflows,
queue sizes, node arrival-time labels, and sink arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import ContractError, DomainError, INF, Scalar

ZERO = Fraction(0)
ONE = Fraction(1)


def _canonical(points: Sequence[tuple[Fraction, Fraction]], final_slope: Fraction
               ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Breakpoints with collinear interior points merged, and the slope of
    each remaining segment (the last one being `final_slope`)."""
    if not points:
        raise ContractError("a piecewise-linear function needs at least one breakpoint")
    xs = [points[0][0]]
    ys = [points[0][1]]
    for x, y in points[1:]:
        if x <= xs[-1]:
            raise ContractError("breakpoints must be strictly increasing")
        xs.append(x)
        ys.append(y)
    # Merge collinear interior breakpoints, walking from the right so the
    # final slope can absorb redundant trailing points.  `slopes` collects
    # the kept segments' slopes from the right.
    i = len(xs) - 1
    slopes = [final_slope]
    keep = [True] * len(xs)
    while i >= 1:
        slope_before = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
        if slope_before == slopes[-1]:
            keep[i] = False
        else:
            slopes.append(slope_before)
        i -= 1
    xs = [x for x, k in zip(xs, keep) if k]
    ys = [y for y, k in zip(ys, keep) if k]
    return tuple(xs), tuple(ys), tuple(reversed(slopes))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous exact piecewise-linear function on ``[xs[0], infinity)``."""

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    final_slope: Fraction

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ContractError("malformed breakpoint arrays")
        for a, b in zip(self.xs, self.xs[1:]):
            if a >= b:
                raise ContractError("breakpoints must be strictly increasing")
        # Canonical form: consecutive segments never share a slope.  The
        # slopes are kept (outside the dataclass fields, so equality and hash
        # stay on xs, ys and final_slope) for evaluation.
        slopes = tuple((self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])
                       for i in range(len(self.xs) - 1)) + (self.final_slope,)
        for a, b in zip(slopes, slopes[1:]):
            if a == b:
                raise ContractError("non-canonical representation (collinear segments)")
        object.__setattr__(self, "_slopes", slopes)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[tuple[Fraction, Fraction]],
                    final_slope: Fraction) -> "PiecewiseLinear":
        # The points come in increasing x.  `_canonical` has checked that
        # order and derived every slope, so the curve skips the
        # constructor's checks and keeps those slopes.
        xs, ys, slopes = _canonical(points, final_slope)
        curve = object.__new__(cls)
        object.__setattr__(curve, "xs", xs)
        object.__setattr__(curve, "ys", ys)
        object.__setattr__(curve, "final_slope", final_slope)
        object.__setattr__(curve, "_slopes", slopes)
        return curve

    @classmethod
    def constant(cls, value: Fraction, start: Fraction = ZERO) -> "PiecewiseLinear":
        return cls((start,), (value,), ZERO)

    @classmethod
    def affine(cls, slope: Fraction, intercept: Fraction,
               start: Fraction = ZERO) -> "PiecewiseLinear":
        return cls((start,), (intercept + slope * start,), slope)

    @classmethod
    def identity(cls, start: Fraction = ZERO) -> "PiecewiseLinear":
        return cls.affine(ONE, ZERO, start)

    @classmethod
    def from_rate_segments(cls, pairs: Sequence[tuple[Fraction, Fraction]],
                           origin: Fraction = ZERO) -> "PiecewiseLinear":
        """Integrate a step function given as (start_time, rate) pairs.

        The cumulative curve starts at ``(origin, 0)``; the rate before the
        first pair is zero and the last rate extends forever.
        """
        points = [(origin, ZERO)]
        value = ZERO
        rate = ZERO
        for start, new_rate in pairs:
            if start < points[-1][0]:
                raise ContractError("rate segment starts must be nondecreasing")
            if start > points[-1][0]:
                value = value + rate * (start - points[-1][0])
                points.append((start, value))
            rate = new_rate
        return cls.from_points(points, rate)

    # -- basic queries ---------------------------------------------------------

    def __call__(self, x: Fraction) -> Fraction:
        if x < self.xs[0]:
            raise DomainError(f"{x} is left of the domain start {self.xs[0]}")
        return self._value(self._segment_index(x), x)

    def _value(self, i: int, x: Fraction) -> Fraction:
        """Value at x, which must lie on segment i."""
        if x == self.xs[i]:
            return self.ys[i]
        return self.ys[i] + self._slopes[i] * (x - self.xs[i])

    def _segment_index(self, x: Fraction) -> int:
        lo, hi = 0, len(self.xs) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.xs[mid] <= x:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def segments(self) -> Iterator[tuple[Fraction, Scalar, Fraction, Fraction]]:
        """Yield (a, b, value_at_a, slope) covering the domain; last b is INF."""
        yield from zip(self.xs, (*self.xs[1:], INF), self.ys, self._slopes)

    def slopes(self) -> tuple[Fraction, ...]:
        return self._slopes

    def rate_pairs(self) -> list[tuple[Fraction, Fraction]]:
        """The derivative as (start_time, rate) pairs; inverse of integration."""
        return [(a, s) for a, _, _, s in self.segments()]

    def is_nondecreasing(self) -> bool:
        return all(s >= 0 for s in self.slopes())

    def supremum(self) -> Scalar:
        """Exact supremum over the whole domain (INF if unbounded)."""
        if self.final_slope > 0:
            return INF
        return max(self.ys)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        points = [(a, fa + ga) for a, _, fa, _, ga, _ in joint_segments(self, other)]
        return PiecewiseLinear.from_points(points, self.final_slope + other.final_slope)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self + other.scale(Fraction(-1))

    def scale(self, k: Fraction) -> "PiecewiseLinear":
        if k == 0:
            return PiecewiseLinear.constant(ZERO, self.xs[0])
        return PiecewiseLinear(self.xs, tuple(y * k for y in self.ys), self.final_slope * k)

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """Exact composition self(inner(x)); inner must be nondecreasing.
        Each outer breakpoint that a rising piece of inner passes adds its
        exact preimage as a breakpoint."""
        if not inner.is_nondecreasing():
            raise ContractError("inner function of a composition must be nondecreasing")
        if inner.ys[0] < self.xs[0]:
            raise DomainError("inner function leaves the outer domain")
        xs, last = self.xs, len(self.xs) - 1
        k = 0  # the outer segment holding the current inner value
        points = []
        for a, b, v, s in inner.segments():
            while k < last and xs[k + 1] <= v:
                k += 1
            points.append((a, self._value(k, v)))
            if s == 0:
                continue
            end = INF if b is INF else v + s * (b - a)
            while k < last and xs[k + 1] < end:
                k += 1
                points.append((a + (xs[k] - v) / s, self.ys[k]))
        return PiecewiseLinear.from_points(points, self.final_slope * inner.final_slope)


def minimum(*funcs: PiecewiseLinear) -> PiecewiseLinear:
    """Exact pointwise minimum; breakpoints include all crossing points."""
    if not funcs:
        raise ContractError("minimum of an empty collection")
    result = funcs[0]
    for f in funcs[1:]:
        result = _min2(result, f)
    return result


def _min2(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    points = []
    for a, b, fa, f_slope, ga, g_slope in joint_segments(f, g):
        points.append((a, min(fa, ga)))
        if f_slope != g_slope:
            t = a - (fa - ga) / (f_slope - g_slope)  # where the two pieces cross
            if a < t and (b is INF or t < b):
                points.append((t, fa + f_slope * (t - a)))
    # Far out, the curve with the smaller final slope is the lower one.
    return PiecewiseLinear.from_points(points, min(f.final_slope, g.final_slope))


def joint_segments(f: PiecewiseLinear, g: PiecewiseLinear) -> Iterator[
        tuple[Fraction, Scalar, Fraction, Fraction, Fraction, Fraction]]:
    """Walk two curves together from the later start over the union of their
    breakpoints: yield (a, b, f(a), slope of f, g(a), slope of g) for each
    piece [a, b] on which both are affine, the last b being INF.  Values and
    slopes come from the breakpoint arrays, with no search per point."""
    a = max(f.xs[0], g.xs[0])
    i, j = f._segment_index(a), g._segment_index(a)
    while True:
        f_next = f.xs[i + 1] if i + 1 < len(f.xs) else INF
        g_next = g.xs[j + 1] if j + 1 < len(g.xs) else INF
        b = min(f_next, g_next)
        yield a, b, f._value(i, a), f._slopes[i], g._value(j, a), g._slopes[j]
        if b is INF:
            return
        if f_next == b:
            i += 1
        if g_next == b:
            j += 1
        a = b
