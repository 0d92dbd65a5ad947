"""The sparse fraction-free solver against direct cases and a dense
`Fraction` Gauss-Jordan reference, for whole systems and row by row."""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fot.equilibrium import Elimination, solve_exact

from helpers import solve_system

F = Fraction


def reference_solve(rows, n):
    """Dense Gauss-Jordan over `Fraction`s on (coeffs, rhs) sparse rows."""
    mat = [[F(coeffs.get(c, 0)) for c in range(n)] + [F(rhs)] for coeffs, rhs in rows]
    pivot_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    if any(mat[i][n] != 0 for i in range(r, len(mat))):
        return "inconsistent", None
    if r < n:
        return "underdetermined", None
    sol = [F(0)] * n
    for i, c in enumerate(pivot_cols):
        sol[c] = mat[i][n]
    return "unique", sol


def check(rows, n, expected_status, expected=None):
    before = copy.deepcopy(rows)
    status, sol = solve_system(rows, n)
    assert rows == before, "input rows were modified"
    assert (status, sol) == reference_solve(rows, n)
    assert status == expected_status
    if expected is not None:
        assert sol == expected
        assert all(isinstance(v, Fraction) for v in sol)
    return sol


def test_unique():
    # 2x + y = 3, x - y = 0
    check([({0: 2, 1: 1}, 3), ({0: 1, 1: -1}, 0)], 2, "unique", [F(1), F(1)])
    check([({0: 3}, 2)], 1, "unique", [F(2, 3)])


def test_inconsistent():
    check([({0: 1, 1: 1}, 1), ({0: 1, 1: 1}, 2)], 2, "inconsistent")


def test_underdetermined():
    check([({0: 1, 1: 1}, 1)], 2, "underdetermined")
    check([], 1, "underdetermined")


def test_inconsistent_wins_over_rank_deficiency():
    # z never appears and the first two rows contradict each other.
    check([({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 3)], 3, "inconsistent")
    # The contradiction only shows after the last pivot column.
    check([({0: 1}, 1), ({2: 1}, 0), ({0: 1, 2: 1}, 2)], 3, "inconsistent")


def test_overdetermined_but_consistent():
    rows = [({0: 1}, 1), ({1: 1}, 2), ({0: 1, 1: 1}, 3), ({0: 2, 1: -1}, 0)]
    check(rows, 2, "unique", [F(1), F(2)])


def test_zero_first_pivot_needs_a_row_swap():
    check([({1: 1}, 5), ({0: 4, 1: 1}, 7)], 2, "unique", [F(1, 2), F(5)])


def test_all_zero_rows():
    zero_rows = [({}, 0), ({0: 0, 1: 0}, 0)]
    check(zero_rows + [({0: 1}, 1), ({1: 2}, 1)], 2, "unique", [F(1), F(1, 2)])
    check(zero_rows, 2, "underdetermined")
    check([({0: 1}, 1), ({}, 3)], 1, "inconsistent")
    check([({0: 0}, -1), ({0: 1}, 1)], 1, "inconsistent")


def test_ladder_sized_rationals():
    # A chain of capacity rows p_k l_k - q_k x = 0 for capacities
    # eps^k = p_k/q_k, plus one unit label and a flow row, as a ladder
    # phase produces them; the values have ~40 decimal digits.
    eps = F(1, 1000)
    n = 14
    x = 13
    rows = [({0: 1}, 1), ({x: 7}, 3)]
    for k in range(1, 13):
        cap = eps ** k
        rows.append(({k: cap.numerator, x: -cap.denominator}, 0))
    sol = check(rows, n, "unique")
    assert sol[0] == 1 and sol[x] == F(3, 7)
    for k in range(1, 13):
        assert sol[k] == F(3, 7) / eps ** k
    # Big entries on both sides of a 2x2 system.
    a, b = 10 ** 36 + 7, 10 ** 35 - 3
    check([({0: a, 1: b}, a - b), ({0: b, 1: a}, b - a)], 2, "unique", [F(1), F(-1)])


small = st.integers(-3, 3) | st.just(0)
big = st.integers(-(10 ** 40), 10 ** 40)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 5))
    coeff = draw(st.sampled_from([small, small | big]))
    # Half the systems get right-hand sides from a hidden integer solution,
    # so they are consistent and mostly unique.
    hidden = draw(st.none() | st.lists(small, min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(0, n + 2))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {c: draw(coeff) for c in cols}
        rhs = (draw(coeff) if hidden is None
               else sum(a * hidden[c] for c, a in coeffs.items()))
        rows.append((coeffs, rhs))
    # Append combinations of earlier rows: consistent rank deficiency.
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(small), draw(small)
        (ci, ri), (cj, rj) = rows[i], rows[j]
        combo = {c: a * ci.get(c, 0) + b * cj.get(c, 0) for c in set(ci) | set(cj)}
        rows.append((combo, a * ri + b * rj))
    return rows, n


@settings(max_examples=400, deadline=None)
@given(systems())
def test_matches_dense_fraction_reference(system):
    rows, n = system
    before = copy.deepcopy(rows)
    assert solve_system(rows, n) == reference_solve(rows, n)
    assert rows == before


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rows_added_one_at_a_time_match_the_whole_system(system):
    # Each prefix has the status the reference gives it; a value a prefix
    # determines is the value of the whole system's unique solution; and an
    # inconsistent prefix stays inconsistent.
    rows, n = system
    state = Elimination(n)
    determined = {}
    for k, row in enumerate(rows, 1):
        status, state = solve_exact([row], n, state)
        assert status == reference_solve(rows[:k], n)[0]
        if state is None:
            assert all(reference_solve(rows[:j], n)[0] == "inconsistent"
                       for j in range(k, len(rows) + 1))
            return
        for c in state.determined:
            assert c not in determined
            determined[c] = state.value(c)
    status, solution = reference_solve(rows, n)
    if status == "unique":
        assert determined == dict(enumerate(solution))
