"""Exact piecewise-linear functions of time.

A `PiecewiseLinear` is a continuous function on ``[start, infinity)`` given by
finitely many breakpoints and a final slope that extends the last segment
forever.  The representation is canonical (no two adjacent segments share a
slope), so structural equality is semantic equality.  All arithmetic is over
`fot.core.Q` rationals; crossing points and preimages are computed exactly.
Sum, difference, minimum and the piecewise tests in `fot.dynamics` walk
two curves' breakpoint arrays at once (`joint_segments`), in one loop over
an index into each array; `compose` walks inner segments and outer
breakpoints at once.  Each walk knows the slope of every piece, so results
are built from their breakpoints and known slopes, with no division per
segment.  A sum or difference builds its canonical arrays in its loop and
reads values only where the slope changes; `compose` and integration
(`from_rate_segments`) append a piece only when its slope differs from the
last one kept.  `_from_pieces` merges equal slopes for the minimum and
`from_points`; points from outside get their slopes from one derivation
(`_slopes`), which the checked constructor shares.

Some shapes skip the walk, each returning the canonical curve the walk
would return: a sum with a one-piece curve that covers the other's domain
adds the line to every breakpoint and its slope to every slope; `compose`
with an inner x + c from 0 is `translate` (the outer's arrays cut at c and
moved left, slopes kept, so no product or quotient per breakpoint; for
c = 0 a curve that starts at 0 comes back as it is); and `compose` with an
outer x + c adds c to the inner curve.  An outer x + 0 returns the inner
curve itself, whatever the inner is.  `compose` checks its contract before
choosing a path.

These functions carry every curve in the package: cumulative edge in/outflows,
queue sizes, node arrival-time labels, and sink arrivals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .core import ContractError, DomainError, INF, Q, Scalar

ZERO = Q(0)
ONE = Q(1)


def _slopes(xs: Sequence[Fraction], ys: Sequence[Fraction],
            final_slope: Fraction) -> tuple[Fraction, ...]:
    """The slope of each segment between breakpoints, then `final_slope`;
    the x must increase strictly."""
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ContractError("breakpoints must be strictly increasing")
    return tuple((y1 - y0) / (x1 - x0) for x0, x1, y0, y1
                 in zip(xs, xs[1:], ys, ys[1:])) + (final_slope,)


def _from_pieces(pieces: Iterable[tuple[Fraction, Fraction, Fraction]]) -> "PiecewiseLinear":
    """The curve whose segment from each (x, y, slope) runs at that slope to
    the next x, the last one forever.  The x must increase strictly; a piece
    with the slope of the piece before it continues that piece."""
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    slopes: list[Fraction] = []
    for x, y, slope in pieces:
        if not slopes or slope != slopes[-1]:
            xs.append(x)
            ys.append(y)
            slopes.append(slope)
    return _curve(tuple(xs), tuple(ys), tuple(slopes))


def _curve(xs: tuple[Fraction, ...], ys: tuple[Fraction, ...],
           slopes: tuple[Fraction, ...]) -> "PiecewiseLinear":
    """A canonical curve from arrays already checked, skipping the
    constructor's checks and its slope derivation."""
    curve = object.__new__(PiecewiseLinear)
    object.__setattr__(curve, "__dict__", {
        "xs": xs, "ys": ys, "final_slope": slopes[-1], "_slopes": slopes})
    return curve


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous exact piecewise-linear function on ``[xs[0], infinity)``."""

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    final_slope: Fraction

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ContractError("malformed breakpoint arrays")
        # Canonical form: consecutive segments never share a slope.  The
        # slopes are kept (outside the dataclass fields, so equality and hash
        # stay on xs, ys and final_slope) for evaluation.
        slopes = _slopes(self.xs, self.ys, self.final_slope)
        for a, b in zip(slopes, slopes[1:]):
            if a == b:
                raise ContractError("non-canonical representation (collinear segments)")
        object.__setattr__(self, "_slopes", slopes)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[tuple[Fraction, Fraction]],
                    final_slope: Fraction) -> "PiecewiseLinear":
        """The canonical curve through `points`, given in increasing x:
        collinear interior points are merged."""
        if not points:
            raise ContractError("a piecewise-linear function needs at least one breakpoint")
        xs, ys = zip(*points)
        return _from_pieces(zip(xs, ys, _slopes(xs, ys, final_slope)))

    # One breakpoint is canonical as it stands.
    @classmethod
    def constant(cls, value: Fraction, start: Fraction = ZERO) -> "PiecewiseLinear":
        return _curve((start,), (value,), (ZERO,))

    @classmethod
    def affine(cls, slope: Fraction, intercept: Fraction) -> "PiecewiseLinear":
        return _curve((ZERO,), (intercept,), (slope,))

    @classmethod
    def identity(cls) -> "PiecewiseLinear":
        return cls.affine(ONE, ZERO)

    @classmethod
    def from_rate_segments(cls, pairs: Sequence[tuple[Fraction, Fraction]]
                           ) -> "PiecewiseLinear":
        """Integrate a step function given as (start_time, rate) pairs.

        The cumulative curve starts at ``(0, 0)``; the rate before the first
        pair is zero and the last rate extends forever.
        """
        xs, ys, slopes = [ZERO], [ZERO], [ZERO]
        x = y = ZERO  # the latest start, and the value there
        for start, rate in pairs:
            if start < x:
                raise ContractError("rate segment starts must be nondecreasing")
            if start > x:
                y = y + slopes[-1] * (start - x)
                x = start
            elif xs[-1] == x:  # a later rate from the same start replaces the earlier one
                del xs[-1], ys[-1], slopes[-1]
            if not slopes or rate != slopes[-1]:
                xs.append(x)
                ys.append(y)
                slopes.append(rate)
        return _curve(tuple(xs), tuple(ys), tuple(slopes))

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
        """The last segment starting at or before x, which must be in the domain."""
        return bisect_right(self.xs, x) - 1

    def segments(self) -> Iterator[tuple[Fraction, Scalar, Fraction, Fraction]]:
        """Yield (a, b, value_at_a, slope) covering the domain; last b is INF."""
        yield from zip(self.xs, (*self.xs[1:], INF), self.ys, self._slopes)

    def slopes(self) -> tuple[Fraction, ...]:
        return self._slopes

    def rate_pairs(self) -> list[tuple[Fraction, Fraction]]:
        """The derivative as (start_time, rate) pairs; inverse of integration."""
        return [(a, s) for a, _, _, s in self.segments()]

    def is_nondecreasing(self) -> bool:
        return min(self._slopes) >= 0

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if len(other.xs) == 1 and other.xs[0] <= self.xs[0]:
            return self._plus_line(other)
        if len(self.xs) == 1 and self.xs[0] <= other.xs[0]:
            return other._plus_line(self)
        return _pointwise(self, other, add)

    def _plus_line(self, line: "PiecewiseLinear") -> "PiecewiseLinear":
        """self plus a one-piece curve defined on all of self's domain: the
        breakpoints stay, and adding one slope to every slope keeps adjacent
        slopes apart, so the result is canonical as it stands."""
        slope = line.final_slope
        if slope == 1:  # the line is x + c: no product per breakpoint
            c = line.ys[0] - line.xs[0]
            ys = tuple(y + x + c for x, y in zip(self.xs, self.ys))
        else:
            ys = tuple(y + line._value(0, x) for x, y in zip(self.xs, self.ys))
        return _curve(self.xs, ys, tuple(s + slope for s in self._slopes))

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _pointwise(self, other, sub)

    def scale(self, k: Fraction) -> "PiecewiseLinear":
        if k == 0:
            return PiecewiseLinear.constant(ZERO, self.xs[0])
        # k is not zero, so the scaled slopes stay pairwise distinct.
        return _curve(self.xs, tuple(y * k for y in self.ys),
                      tuple(s * k for s in self._slopes))

    def translate(self, tau: Fraction) -> "PiecewiseLinear":
        """x -> self(x + tau) on [0, infinity): self cut at tau and moved left
        by tau, with its slopes kept.  Starting at 0, self translated by 0
        is self."""
        if tau < self.xs[0]:
            raise DomainError(f"{tau} is left of the domain start {self.xs[0]}")
        if tau == 0 and self.xs[0] == 0:
            return self
        i = self._segment_index(tau)
        return _curve((ZERO, *(x - tau for x in self.xs[i + 1:])),
                      (self._value(i, tau), *self.ys[i + 1:]), self._slopes[i:])

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """Exact composition self(inner(x)); inner must be nondecreasing.
        Each outer breakpoint that a rising piece of inner passes adds its
        exact preimage as a breakpoint.  Two shapes skip that walk: an inner
        x + c from 0 is a translation, and an outer x + c adds c to inner.
        An outer x + 0 is checked first, so it always returns inner itself."""
        if not inner.is_nondecreasing():
            raise ContractError("inner function of a composition must be nondecreasing")
        if inner.ys[0] < self.xs[0]:
            raise DomainError("inner function leaves the outer domain")
        outer_shift = len(self.xs) == 1 and self.final_slope == 1
        if outer_shift and self.ys[0] == self.xs[0]:
            return inner
        if len(inner.xs) == 1 and inner.xs[0] == 0 and inner.final_slope == 1:
            return self.translate(inner.ys[0])
        if outer_shift:
            c = self.ys[0] - self.xs[0]
            return _curve(inner.xs, tuple(y + c for y in inner.ys), inner._slopes)
        xs, ys, slopes, last = self.xs, self.ys, self._slopes, len(self.xs) - 1
        k = 0  # the outer segment holding the current inner value
        rx: list[Fraction] = []
        ry: list[Fraction] = []
        rs: list[Fraction] = []
        for a, b, v, s in zip(inner.xs, (*inner.xs[1:], INF), inner.ys, inner._slopes):
            while k < last and xs[k + 1] <= v:
                k += 1
            slope = slopes[k] * s
            if not rs or slope != rs[-1]:
                rx.append(a)
                ry.append(self._value(k, v))
                rs.append(slope)
            if s == 0:
                continue
            end = INF if b is INF else v + s * (b - a)
            while k < last and xs[k + 1] < end:
                k += 1
                slope = slopes[k] * s
                if slope != rs[-1]:
                    rx.append(a + (xs[k] - v) / s)
                    ry.append(ys[k])
                    rs.append(slope)
        return _curve(tuple(rx), tuple(ry), tuple(rs))


def minimum(*funcs: PiecewiseLinear) -> PiecewiseLinear:
    """Exact pointwise minimum; breakpoints include all crossing points."""
    if not funcs:
        raise ContractError("minimum of an empty collection")
    result = funcs[0]
    for f in funcs[1:]:
        result = _min2(result, f)
    return result


def _min2(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    pieces = []
    for a, b, fa, f_slope, ga, g_slope in joint_segments(f, g):
        # The lower piece at a; on a tie, the one that falls faster from a.
        if fa < ga:
            pieces.append((a, fa, f_slope))
        elif ga < fa:
            pieces.append((a, ga, g_slope))
        else:
            pieces.append((a, fa, min(f_slope, g_slope)))
        if f_slope != g_slope:
            t = a - (fa - ga) / (f_slope - g_slope)  # where the two pieces cross
            if a < t and (b is INF or t < b):
                # Past the crossing, the piece with the smaller slope is lower.
                pieces.append((t, fa + f_slope * (t - a), min(f_slope, g_slope)))
    return _from_pieces(pieces)


def joint_segments(f: PiecewiseLinear, g: PiecewiseLinear) -> Iterator[
        tuple[Fraction, Scalar, Fraction, Fraction, Fraction, Fraction]]:
    """Walk two curves together from the later start over the union of their
    breakpoints: yield (a, b, f(a), slope of f, g(a), slope of g) for each
    piece [a, b] on which both are affine, the last b being INF.  One loop
    over an index into each breakpoint array; a curve's value is read off
    its array at its own breakpoints and interpolated elsewhere."""
    fx, fy, fs = f.xs, f.ys, f._slopes
    gx, gy, gs = g.xs, g.ys, g._slopes
    a, i, j, f_at, g_at = _start(fx, gx)
    m, n = len(fx) - 1, len(gx) - 1
    while True:
        f_slope, g_slope = fs[i], gs[j]
        fa = fy[i] if f_at else fy[i] + f_slope * (a - fx[i])
        ga = gy[j] if g_at else gy[j] + g_slope * (a - gx[j])
        if i < m and (j == n or fx[i + 1] <= gx[j + 1]):
            i += 1
            b = fx[i]
            f_at = True
            g_at = j < n and gx[j + 1] == b
            if g_at:
                j += 1
        elif j < n:
            j += 1
            b = gx[j]
            f_at, g_at = False, True
        else:
            yield a, INF, fa, f_slope, ga, g_slope
            return
        yield a, b, fa, f_slope, ga, g_slope
        a = b


def _start(fx: Sequence[Fraction], gx: Sequence[Fraction]) -> tuple:
    """Where a walk over two breakpoint arrays starts: the later first x,
    the segment of each curve holding it, and whether it is a breakpoint
    of each."""
    if fx[0] >= gx[0]:
        a = fx[0]
        j = bisect_right(gx, a) - 1
        return a, 0, j, True, gx[j] == a
    a = gx[0]
    i = bisect_right(fx, a) - 1
    return a, i, 0, fx[i] == a, True


def _pointwise(f: PiecewiseLinear, g: PiecewiseLinear, op) -> PiecewiseLinear:
    """f + g or f - g (`op` is `add` or `sub`), walked as in `joint_segments`
    and built in canonical form as it goes: a joint breakpoint is kept only
    where the result's slope changes, and only there are values read."""
    fx, fy, fs = f.xs, f.ys, f._slopes
    gx, gy, gs = g.xs, g.ys, g._slopes
    a, i, j, f_at, g_at = _start(fx, gx)
    m, n = len(fx) - 1, len(gx) - 1
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    slopes: list[Fraction] = []
    while True:
        slope = op(fs[i], gs[j])
        if not slopes or slope != slopes[-1]:
            fa = fy[i] if f_at else fy[i] + fs[i] * (a - fx[i])
            ga = gy[j] if g_at else gy[j] + gs[j] * (a - gx[j])
            xs.append(a)
            ys.append(op(fa, ga))
            slopes.append(slope)
        if i < m and (j == n or fx[i + 1] <= gx[j + 1]):
            i += 1
            a = fx[i]
            f_at = True
            g_at = j < n and gx[j + 1] == a
            if g_at:
                j += 1
        elif j < n:
            j += 1
            a = gx[j]
            f_at, g_at = False, True
        else:
            return _curve(tuple(xs), tuple(ys), tuple(slopes))
