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

The tableau is kept in dictionary form (Chvatal, Linear Programming, 1983):
only the num_vars nonbasic columns are stored, so each row is a dense list
of num_vars Python ints plus one int right-hand side and one positive int
denominator shared by the row, and the basic columns are implicit unit
columns. The reduced-cost row is a list of the same kind, and its
right-hand side carries the objective. The tableau is fraction-free: a
pivot combines rows over a common denominator in one pass per row and
divides each changed row by the gcd of its entries, right-hand side and
denominator (Bareiss, Math. Comp. 22, 1968), so ratio tests and sign tests
are integer comparisons. Rationals (Rat) appear only at the boundary:
add_ge_row scales an incoming row by the lcm of its denominators, and
values()/objective() return Rat. finalize_solution checks the result against
the problem exactly, feasibility and, through the duals read off the cost
row, optimality.
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
    """Incremental dual-simplex engine over ">=" rows only, in dictionary form.

    Columns: x variables 0..num_vars-1, then one surplus column per row in
    insertion order. There are always num_vars nonbasic columns, listed in
    _nonbasic; position q of every row stands for column _nonbasic[q]. Row
    i is a dense list of num_vars ints, read as the rationals
    _rows[i][q] / _den[i], with right-hand side _rhs[i] / _den[i]; its basic
    column _basis[i] is an implicit unit column (entry _den[i] there, zero in
    every other row). The cost row _cost is a list of the same kind over
    _cost_den, holding the reduced costs of the nonbasic columns, and
    -_cost_rhs / _cost_den is the objective of the current basis. Every
    denominator is positive, and each row is divided by
    gcd(den, rhs, *entries) after every change.
    """

    __slots__ = (
        "num_vars", "_rows", "_rhs", "_den", "_cost", "_cost_rhs", "_cost_den",
        "_basis", "_nonbasic", "pivots",
    )

    def __init__(self, num_vars: int, rows: Iterable[tuple[Sequence, object]] = ()):
        self.num_vars = num_vars
        self._rows: list[list[int]] = []
        self._rhs: list[int] = []
        self._den: list[int] = []
        self._cost = [1] * num_vars
        self._cost_rhs = 0
        self._cost_den = 1
        self._basis: list[int] = []
        self._nonbasic = list(range(num_vars))
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
        dup._cost_rhs = self._cost_rhs
        dup._cost_den = self._cost_den
        dup._basis = list(self._basis)
        dup._nonbasic = list(self._nonbasic)
        dup.pivots = self.pivots
        return dup

    def add_ge_row(self, coeffs: Sequence, rhs) -> None:
        """Append constraint coeffs . x >= rhs (reduced against the basis).

        The rational row is scaled to integers once, by the lcm of its
        denominators. As a tableau row it reads s - coeffs . x = -rhs for
        its new surplus s, which becomes the row's basic column."""
        terms = [(j, Rat(c)) for j, c in enumerate(coeffs) if c]
        rhs = Rat(rhs)
        scale = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in terms))
        a = [0] * self.num_vars
        for j, c in terms:
            a[j] = -int(c.numerator) * (scale // int(c.denominator))
        new_rhs = -int(rhs.numerator) * (scale // int(rhs.denominator))
        # An entry a[b] on a basic x_b is removed by subtracting a[b] / den
        # times b's row. Basic rows are zero on each other's basic columns,
        # so each such entry is read off the incoming row as it is; the rows
        # are subtracted over the lcm of their denominators, and one gcd
        # division at the end makes the result canonical.
        used = [
            (i, a[b]) for i, b in enumerate(self._basis) if b < self.num_vars and a[b]
        ]
        mult = lcm(*(self._den[i] for i, _ in used))
        new = [a[v] * mult if v < self.num_vars else 0 for v in self._nonbasic]
        new_rhs *= mult
        for i, factor in used:
            f = factor * (mult // self._den[i])
            new = [c - f * p for c, p in zip(new, self._rows[i])]
            new_rhs -= f * self._rhs[i]
        new, new_rhs, den = _normalize(new, new_rhs, scale * mult)
        self._rows.append(new)
        self._rhs.append(new_rhs)
        self._den.append(den)
        self._basis.append(self.num_vars + len(self._basis))

    def optimize(self, pivot_cap: int = 200_000) -> None:
        """Dual simplex to optimality; raises InfeasibleError when primal empty.

        pivot_cap bounds the pivots of this call alone; PivotLimitError is
        raised once it is exceeded."""
        rows, rhs, basis, nonbasic = self._rows, self._rhs, self._basis, self._nonbasic
        limit = self.pivots + pivot_cap
        while True:
            leave = -1
            leave_var = None
            for i, b in enumerate(rhs):
                if b < 0 and (leave_var is None or basis[i] < leave_var):
                    leave, leave_var = i, basis[i]
            if leave < 0:
                return
            # Bland entering rule: least ratio cost_q / -a_q over a_q < 0,
            # ties to the lowest column index. Row and cost denominators are
            # positive and common to every candidate, so comparing
            # cost_q * -a_best with cost_best * -a_q decides it in integers.
            cost = self._cost
            enter = -1
            best_cost = best_neg = 0
            for q, a in enumerate(rows[leave]):
                if a < 0:
                    c = cost[q]
                    if enter < 0:
                        enter, best_cost, best_neg = q, c, -a
                        continue
                    lhs, rhs_ = c * best_neg, best_cost * -a
                    if lhs < rhs_ or (lhs == rhs_ and nonbasic[q] < nonbasic[enter]):
                        enter, best_cost, best_neg = q, c, -a
            if enter < 0:
                raise InfeasibleError("no feasible point exists")
            self._pivot(leave, enter)
            if self.pivots > limit:
                raise PivotLimitError(f"exceeded {pivot_cap} pivots")

    def _pivot(self, r: int, q: int) -> None:
        """Exchange basic column _basis[r] with nonbasic column _nonbasic[q]."""
        rows, rhs, den = self._rows, self._rhs, self._den
        # Solving row r for the entering column divides it by its entry
        # a = row[q] / den[r] < 0; the leaving column takes position q with
        # entry den[r]. Negate everything to keep the denominator positive.
        prow = [-c for c in rows[r]]
        prow[q] = -den[r]
        prow, prhs, pden = _normalize(prow, -rhs[r], -rows[r][q])
        rows[r], rhs[r], den[r] = prow, prhs, pden
        for i, row in enumerate(rows):
            factor = row[q]
            if factor and i != r:
                rows[i], rhs[i], den[i] = _eliminate(
                    row, rhs[i], den[i], factor, q, prow, prhs, pden
                )
        factor = self._cost[q]
        if factor:
            self._cost, self._cost_rhs, self._cost_den = _eliminate(
                self._cost, self._cost_rhs, self._cost_den, factor, q, prow, prhs, pden
            )
        self._basis[r], self._nonbasic[q] = self._nonbasic[q], self._basis[r]
        self.pivots += 1

    def values(self) -> list:
        vals = [ZERO] * self.num_vars
        for i, basic in enumerate(self._basis):
            if basic < self.num_vars:
                vals[basic] = Rat(self._rhs[i], self._den[i])
        return vals

    def objective(self):
        return Rat(-self._cost_rhs, self._cost_den)

    def nonbasic_indices(self) -> list[int]:
        return sorted(self._nonbasic)


def _normalize(row: list, rhs: int, den: int):
    """Divide row, rhs and den by their gcd."""
    g = gcd(den, rhs)
    if g != 1:
        g = gcd(g, *row)
        if g != 1:
            return [c // g for c in row], rhs // g, den // g
    return row, rhs, den


def _eliminate(row: list, rhs: int, den: int, factor: int, q: int, prow, prhs: int, pden: int):
    """row - (factor / pden) * prow over a common denominator, normalized.

    factor is row's entry at position q, which holds the entering column;
    prow is the pivot row, solved for that column, whose leaving column now
    sits at position q. The leaving column was basic, so row's own entry for
    it was zero and position q becomes -(factor / pden) * prow[q].
    """
    g = gcd(factor, pden)
    scale, factor = pden // g, factor // g
    new = [c * scale - factor * p for c, p in zip(row, prow)]
    new[q] = -factor * prow[q]
    return _normalize(new, rhs * scale - factor * prhs, den * scale)


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
    y_i, read over _cost_den at the column's nonbasic position; a basic
    surplus has y_i = 0. If y >= 0 and A^T y <= 1, weak duality makes b . y
    a lower bound on 1 . x over the whole feasible set, so b . y == 1 . x
    proves the point optimal (the verify-the-basis check of Applegate, Cook,
    Dash & Espinoza, OR Letters 35, 2007). Sums are kept multiplied by
    _cost_den.
    """
    n = problem.num_vars
    if len(row_owner) != len(engine._rows):
        raise AssertionError(
            f"{len(row_owner)} row owners for {len(engine._rows)} engine rows"
        )
    scale = engine._cost_den
    column_sums = [0] * n
    bound = 0
    for col, y in zip(engine._nonbasic, engine._cost):
        if col < n:
            continue
        i = col - n
        if y < 0:
            raise AssertionError(f"dual of engine row {i} is negative: basis not optimal")
        if not y:
            continue
        owner = row_owner[i]
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
