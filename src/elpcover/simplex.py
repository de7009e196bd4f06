"""Exact rational simplex for covering LPs.

Every problem here has the same shape: minimize the sum of all variables
subject to rows a.x >= b or a.x = b and x >= 0. Because the objective is the
all-ones vector, the all-surplus starting basis is dual feasible, so the dual
simplex runs straight from it: no Phase-1 artificial variables, and appending
a cut row keeps the current basis dual feasible (cheap warm restarts in the
cutting-plane loop). With x >= 0 and a nonnegative objective the value is
bounded below by zero, so unboundedness cannot occur; infeasibility (possible
only with equality rows) is reported via InfeasibleError.

All arithmetic is exact; the pivot rule is Bland-style lowest-index on both
the leaving and the entering side, which rules out cycling and makes every
returned basic solution deterministic.

The tableau is fraction-free: each row is a sparse map from column to Python
int plus one int right-hand side and one positive int denominator shared by
the row, and the reduced-cost row likewise. A pivot combines rows over a
common denominator and divides each changed row by the gcd of its entries,
right-hand side and denominator (Bareiss, Math. Comp. 22, 1968), so ratio
tests and sign tests are integer comparisons. Rationals (Rat) appear only at
the boundary: add_ge_row scales an incoming row by the lcm of its
denominators, and values()/objective() return Rat. finalize_solution checks
the result against the problem exactly, feasibility and, through the duals
read off the cost row, optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

from ._rat import ZERO, Rat


class InfeasibleError(Exception):
    """The problem (typically after pinning a row to equality) is infeasible."""


class PivotLimitError(RuntimeError):
    """Safety cap on pivots exceeded; indicates a solver bug, not a hard input."""


@dataclass(frozen=True)
class LpRow:
    coeffs: tuple
    rel: str  # ">=" or "="
    rhs: object

    def __post_init__(self):
        if self.rel not in (">=", "="):
            raise ValueError(f"unsupported relation {self.rel!r}")
        object.__setattr__(self, "coeffs", tuple(Rat(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Rat(self.rhs))


@dataclass(frozen=True)
class LpProblem:
    num_vars: int
    rows: tuple[LpRow, ...]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row.coeffs) != self.num_vars:
                raise ValueError(
                    f"row {i} has width {len(row.coeffs)}, expected {self.num_vars}"
                )


def add_row(problem: LpProblem, coeffs: Sequence, rel: str, rhs) -> LpProblem:
    """New problem with one extra row; the original is untouched."""
    return LpProblem(problem.num_vars, problem.rows + (LpRow(tuple(coeffs), rel, rhs),))


@dataclass(frozen=True)
class BasicSolution:
    """A vertex of the feasible polyhedron, exactly.

    tight_rows are recomputed from the values rather than read off the basis
    bookkeeping; basis_witness lists the nonbasic identifiers (("var", j) for
    x_j = 0, ("row", i) for row i at equality) certifying vertex status.
    """

    values: tuple
    objective: object
    tight_rows: frozenset[int]
    basis_witness: frozenset[tuple[str, int]]


class CoveringSimplex:
    """Incremental dual-simplex engine over ">=" rows only.

    Column layout: x variables 0..num_vars-1, then one surplus column per row
    in insertion order. Row i is a sparse dict {column: int} standing for the
    rationals _rows[i][k] / _den[i], with right-hand side _rhs[i] / _den[i];
    the reduced-cost row _cost stands for _cost[k] / _cost_den. Absent
    columns are zero, every denominator is positive, and each row is divided
    by gcd(den, rhs, *entries) after every change. Rows are kept in
    basis-reduced form (each basic column is a unit column, so its entry
    equals its row's denominator), so appending a reduced row keeps the
    invariant.
    """

    __slots__ = (
        "num_vars", "_rows", "_rhs", "_den", "_cost", "_cost_den", "_basis",
        "_ncols", "pivots",
    )

    def __init__(self, num_vars: int, rows: Iterable[tuple[Sequence, object]] = ()):
        self.num_vars = num_vars
        self._rows: list[dict[int, int]] = []
        self._rhs: list[int] = []
        self._den: list[int] = []
        self._cost: dict[int, int] = dict.fromkeys(range(num_vars), 1)
        self._cost_den = 1
        self._basis: list[int] = []
        self._ncols = num_vars
        self.pivots = 0
        for coeffs, rhs in rows:
            self.add_ge_row(coeffs, rhs)

    def copy(self) -> "CoveringSimplex":
        dup = CoveringSimplex.__new__(CoveringSimplex)
        dup.num_vars = self.num_vars
        dup._rows = [row.copy() for row in self._rows]
        dup._rhs = list(self._rhs)
        dup._den = list(self._den)
        dup._cost = self._cost.copy()
        dup._cost_den = self._cost_den
        dup._basis = list(self._basis)
        dup._ncols = self._ncols
        dup.pivots = self.pivots
        return dup

    def add_ge_row(self, coeffs: Sequence, rhs) -> None:
        """Append constraint coeffs . x >= rhs (reduced against the basis).

        The rational row is scaled to integers once, by the lcm of its
        denominators."""
        terms = [(j, Rat(c)) for j, c in enumerate(coeffs) if c]
        rhs = Rat(rhs)
        scale = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in terms))
        surplus = self._ncols
        self._ncols += 1
        new = {j: -int(c.numerator) * (scale // int(c.denominator)) for j, c in terms}
        new[surplus] = scale
        new_rhs = -int(rhs.numerator) * (scale // int(rhs.denominator))
        den = scale
        for i, basic in enumerate(self._basis):
            factor = new.get(basic)
            if factor:
                new, new_rhs, den = _eliminate(
                    new, new_rhs, den, factor,
                    list(self._rows[i].items()), self._rhs[i], self._den[i],
                )
        new, new_rhs, den = _normalize(new, new_rhs, den)
        self._rows.append(new)
        self._rhs.append(new_rhs)
        self._den.append(den)
        self._basis.append(surplus)

    def optimize(self, pivot_cap: int = 200_000) -> None:
        """Dual simplex to optimality; raises InfeasibleError when primal empty."""
        rows, rhs, basis = self._rows, self._rhs, self._basis
        while True:
            leave = -1
            leave_var = None
            for i, b in enumerate(rhs):
                if b < 0 and (leave_var is None or basis[i] < leave_var):
                    leave, leave_var = i, basis[i]
            if leave < 0:
                return
            # Bland entering rule: least ratio cost_j / -a_j over a_j < 0,
            # ties to the lowest index. Row and cost denominators are
            # positive and common to every candidate, so comparing
            # cost_j * -a_best with cost_best * -a_j decides it in integers.
            cost = self._cost
            enter = -1
            best_cost = best_neg = 0
            for j, a in rows[leave].items():
                if a < 0:
                    c = cost.get(j, 0)
                    if enter < 0:
                        enter, best_cost, best_neg = j, c, -a
                        continue
                    lhs, rhs_ = c * best_neg, best_cost * -a
                    if lhs < rhs_ or (lhs == rhs_ and j < enter):
                        enter, best_cost, best_neg = j, c, -a
            if enter < 0:
                raise InfeasibleError("no feasible point exists")
            self._pivot(leave, enter)
            if self.pivots > pivot_cap:
                raise PivotLimitError(f"exceeded {pivot_cap} pivots")

    def _pivot(self, r: int, col: int) -> None:
        rows, rhs, den = self._rows, self._rhs, self._den
        # Dividing row r by its entry a = row[col] / den[r] < 0 leaves the
        # integers of the row over the denominator row[col]; negate all of
        # them to keep the denominator positive.
        prow, prhs, pden = _normalize(
            {k: -c for k, c in rows[r].items()}, -rhs[r], -rows[r][col]
        )
        rows[r], rhs[r], den[r] = prow, prhs, pden
        items = list(prow.items())
        for i, row in enumerate(rows):
            factor = row.get(col)
            if factor and i != r:
                rows[i], rhs[i], den[i] = _eliminate(
                    row, rhs[i], den[i], factor, items, prhs, pden
                )
        factor = self._cost.get(col)
        if factor:
            self._cost, _, self._cost_den = _eliminate(
                self._cost, 0, self._cost_den, factor, items, 0, pden
            )
        self._basis[r] = col
        self.pivots += 1

    def values(self) -> list:
        vals = [ZERO] * self.num_vars
        for i, basic in enumerate(self._basis):
            if basic < self.num_vars:
                vals[basic] = Rat(self._rhs[i], self._den[i])
        return vals

    def objective(self):
        return sum(self.values(), ZERO)

    def nonbasic_indices(self) -> list[int]:
        basic = set(self._basis)
        return [j for j in range(self._ncols) if j not in basic]


def _normalize(row: dict, rhs: int, den: int):
    """Divide row, rhs and den by their gcd."""
    g = gcd(den, rhs)
    if g != 1:
        g = gcd(g, *row.values())
        if g != 1:
            return {k: c // g for k, c in row.items()}, rhs // g, den // g
    return row, rhs, den


def _eliminate(row: dict, rhs: int, den: int, factor: int, pitems, prhs: int, pden: int):
    """row - (factor / pden) * prow over a common denominator, normalized.

    pitems are prow's (column, entry) pairs; prow holds pden in the
    eliminated column, so the result has no entry there. row may be updated
    in place.
    """
    g = gcd(factor, pden)
    scale, factor = pden // g, factor // g
    if scale != 1:
        row = {k: c * scale for k, c in row.items()}
        rhs *= scale
        den *= scale
    get = row.get
    for k, p in pitems:
        c = get(k, 0) - factor * p
        if c:
            row[k] = c
        else:
            del row[k]
    return _normalize(row, rhs - factor * prhs, den)


def finalize_solution(
    problem: LpProblem, engine: CoveringSimplex, row_owner: Sequence[int]
) -> BasicSolution:
    """Extract a BasicSolution and verify it exactly against the problem.

    row_owner maps each engine row to the index i of the problem row it came
    from, or to ~i when the engine row is that equality row negated (an
    equality row expands to the row and its negation). Both feasibility and
    optimality are checked; a failure raises AssertionError.
    """
    values = tuple(engine.values())
    objective = sum(values, ZERO)
    tight = set()
    for i, row in enumerate(problem.rows):
        lhs = _dot(row.coeffs, values)
        if row.rel == "=":
            if lhs != row.rhs:
                raise AssertionError(f"equality row {i} violated: {lhs} != {row.rhs}")
            tight.add(i)
        else:
            if lhs < row.rhs:
                raise AssertionError(f"row {i} violated: {lhs} < {row.rhs}")
            if lhs == row.rhs:
                tight.add(i)
    if any(v < 0 for v in values):
        raise AssertionError("negative variable in solution")
    _check_dual(problem, engine, row_owner, objective)
    witness = set()
    for j in engine.nonbasic_indices():
        if j < problem.num_vars:
            witness.add(("var", j))
        else:
            owner = row_owner[j - problem.num_vars]
            witness.add(("row", owner if owner >= 0 else ~owner))
    return BasicSolution(values, objective, frozenset(tight), frozenset(witness))


def _check_dual(
    problem: LpProblem, engine: CoveringSimplex, row_owner: Sequence[int], objective
) -> None:
    """Exact optimality certificate for the engine's final basis.

    The reduced cost of engine row i's surplus column is that row's dual
    y_i = _cost[num_vars + i] / _cost_den. If y >= 0 and A^T y <= 1, weak
    duality makes b . y a lower bound on 1 . x over the whole feasible set,
    so b . y == 1 . x proves the point optimal (the verify-the-basis check
    of Applegate, Cook, Dash & Espinoza, OR Letters 35, 2007). Sums are kept
    multiplied by _cost_den.
    """
    n = problem.num_vars
    if len(row_owner) != len(engine._rows):
        raise AssertionError(
            f"{len(row_owner)} row owners for {len(engine._rows)} engine rows"
        )
    scale = engine._cost_den
    column_sums = [0] * n
    bound = 0
    for i, owner in enumerate(row_owner):
        y = engine._cost.get(n + i, 0)
        if y < 0:
            raise AssertionError(f"dual of engine row {i} is negative: basis not optimal")
        if not y:
            continue
        if owner < 0:
            owner, y = ~owner, -y
            if problem.rows[owner].rel != "=":
                raise AssertionError(f"engine row {i} negates inequality row {owner}")
        row = problem.rows[owner]
        for j, c in enumerate(row.coeffs):
            if c:
                column_sums[j] += y * c
        bound += y * row.rhs
    for j, total in enumerate(column_sums):
        if total > scale:
            raise AssertionError(f"dual infeasible at x{j}: (A^T y)_j = {Rat(total) / scale} > 1")
    if bound != scale * objective:
        raise AssertionError(f"duality gap: b.y = {Rat(bound) / scale} != 1.x = {objective}")


def _dot(coeffs, values):
    total = ZERO
    for c, v in zip(coeffs, values):
        if c and v:
            total += c * v
    return total


def _expand(problem: LpProblem):
    """Equality rows become a pair of opposing ">=" rows (owners i and ~i)."""
    engine_rows = []
    owner = []
    for i, row in enumerate(problem.rows):
        engine_rows.append((row.coeffs, row.rhs))
        owner.append(i)
        if row.rel == "=":
            engine_rows.append((tuple(-c for c in row.coeffs), -row.rhs))
            owner.append(~i)
    return engine_rows, owner


def solve(problem: LpProblem) -> BasicSolution:
    """Optimal basic solution of the covering LP; deterministic."""
    if problem.num_vars == 0:
        for i, row in enumerate(problem.rows):
            if row.rhs > 0 or (row.rel == "=" and row.rhs != 0):
                raise InfeasibleError(f"row {i} cannot be satisfied with no variables")
        return BasicSolution(
            (), ZERO, frozenset(i for i, r in enumerate(problem.rows) if r.rhs == 0),
            frozenset(),
        )
    engine_rows, owner = _expand(problem)
    engine = CoveringSimplex(problem.num_vars, engine_rows)
    engine.optimize()
    return finalize_solution(problem, engine, owner)


def solve_with_equality(problem: LpProblem, row_index: int) -> BasicSolution:
    """Re-solve with row row_index forced to equality.

    Raises InfeasibleError when no feasible point survives the pinning, which
    callers report as "no alternate optimum through this edge".
    """
    rows = list(problem.rows)
    pinned = rows[row_index]
    rows[row_index] = LpRow(pinned.coeffs, "=", pinned.rhs)
    return solve(LpProblem(problem.num_vars, tuple(rows)))
