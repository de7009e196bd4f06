"""Exact rational simplex for covering LPs.

Every problem here has the same shape: minimize the sum of all variables
subject to rows a.x >= b and x >= 0; an equality a.x = b is the pair of
rows a.x >= b and -a.x >= -b. Because the objective is the all-ones vector,
the all-surplus starting basis is dual feasible, so the dual simplex runs
straight from it: no Phase-1 artificial variables, and appending a cut row
keeps the current basis dual feasible (cheap warm restarts in the
cutting-plane loop). With x >= 0 and a nonnegative objective the value is
bounded below by zero, so unboundedness cannot occur; infeasibility (possible
only with rows of negative right-hand side, such as the upper half of an
equality) is reported via InfeasibleError.

All arithmetic is exact and every pivot choice is a deterministic integer
comparison. The leaving row is picked by exact dual steepest edge (Forrest &
Goldfarb, Math. Programming 57, 1992): among rows with a negative
right-hand side, the one whose hyperplane lies farthest from the current
basic solution, each row's norm kept for as long as the row stays violated.
The entering column is Bland's least ratio, ties to the lowest column
index. Steepest edge alone can cycle on degenerate pivots, so after
STALL_LIMIT consecutive pivots that leave the objective unchanged, the
leaving rule falls back to Bland's lowest basic column until a pivot
raises the objective. Each pivot either raises the dual objective, which
never decreases, or is one of a bounded run of steepest-edge pivots
followed by Bland's rule, which cannot cycle; so optimize terminates.

The tableau is kept in dictionary form (Chvatal, Linear Programming, 1983):
only the num_vars nonbasic columns are stored, the basic ones being
implicit unit columns. A row is one Python int holding its num_vars entries
in signed slots of width bits, 32 to start (Kronecker substitution; Harvey,
J. Symbolic Comput. 44, 2009), with an int right-hand side and a positive int
denominator; the reduced-cost row is one more, whose right-hand side
carries the objective. The tableau is fraction-free: a pivot combines rows
over a common denominator in a few bigint operations and divides each
changed row by the gcd of its entries, right-hand side and denominator
(Bareiss, Math. Comp. 22, 1968), so every test is an integer comparison and
every row has one canonical form. Entries and denominators stay at most
2^(width/2 - 2), so no slot a pivot forms leaves its range; a row past that
bound makes the engine re-encode its rows at twice the width.

Only the working part of the dictionary is stored, after the revised
simplex (Dantzig & Orchard-Hays, 1954): the rows of the basic structural
columns (at most num_vars), the cost row, and the rows of the basic
surplus columns that are in use, i.e. violated. Every other basic surplus
s = a.x - b is implicit. Its row is a.x - b with each basic x_j replaced
by x_j's row, so it is derived from the row as given and the structural
rows whenever it is needed (_derive), and canonical form makes the
derived row the very row that pivots would have kept: the leaving rule,
the entering rule and every report are those of the full dictionary.
Steepest edge and the ratio test read only violated rows. An implicit row
can turn violated only when x changes on its support, and a pivot changes
x only on the structural columns whose rows it updates, plus the entering
and leaving columns; so after each pivot just the implicit rows on a
moved column, with the right sign, are checked against the new point, in
integers over its common denominator, and the violated ones are derived.
A pivot drops each stored surplus row that it leaves satisfied, so at the
optimum none is stored. add_ge_row appends the row as given and derives
its row only if the current point violates it, and copy() copies the
stored rows alone, sharing them, since no row is changed in place.

The constructor takes the edge rows x_i + x_j >= 1, the only rows the
package starts an engine with, and builds them in closed form: at the
all-surplus basis each row's dictionary row is its given row negated
over denominator 1, violated by the origin, and its steepest-edge norm
is exactly 3, the weight of a slack basis (Forrest & Goldfarb). So the
starting dictionary and norms are built in one pass over the edges, and
add_ge_row and _derive serve only the rows added later (cuts and pins).

add_ge_row takes a sparse {column: int} row with an int right-hand side,
and no rational (Rat) leaves the engine: scaled_values() hands the point
out as ints over one common denominator, which is what the odd-cycle
separation consumes, so the cut loop builds no Rat per round. The engine
keeps the integer rows it was given, untouched by pivots, and
certified_values() checks that point against them exactly: feasibility
and, through the duals read off the cost row, optimality.

optimal_face() serves callers that only ask whether the optimum f stays
put once rows are added, such as the alternate-optimum pin sweep. It is
reduced-cost fixing (Nemhauser & Wolsey, Integer and Combinatorial
Optimization, 1988): at the optimum every reduced cost d_q is >= 0 and the
objective reads f + sum_q d_q x_q, so a point keeps the value f exactly
when each column with d_q > 0 is zero. The copy it returns never enters
such a column. A zero-cost pivot leaves the cost row as it is, so those
columns stay fixed and the objective stays f. Bland's least ratio enters a
zero-cost column whenever the leaving row has one; when it has none, the
row cannot be met with the fixed columns at zero, and optimize raises
InfeasibleError just where the unrestricted engine would make its first
objective-raising pivot, after the same pivots.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from struct import Struct
from typing import Iterable, Mapping

from ._rat import Rat

# Bits per slot of a packed row, until the engine widens (_widen).
SLOT_WIDTH = 32

# optimize() leaves by Bland's rule after this many consecutive pivots that
# enter at zero reduced cost, until a pivot raises the objective.
STALL_LIMIT = 20

# One optimize() call raises PivotLimitError once it makes more pivots.
PIVOT_CAP = 200_000


class InfeasibleError(Exception):
    """The problem (typically after pinning a row to equality) is infeasible."""


class PivotLimitError(RuntimeError):
    """Safety cap on pivots exceeded; indicates a solver bug, not a hard input."""


class CoveringSimplex:
    """Incremental dual-simplex engine over ">=" rows only, in dictionary form.

    Columns: x variables 0..num_vars-1, then surplus column num_vars + k for
    the k-th row added. _given[k] is that row as it was added,
    ({column: int}, int) for a.x >= b; pivots never touch it. There are
    always num_vars nonbasic columns, listed in _nonbasic, and _position
    maps each of them to its index there: position q of every row stands
    for column _nonbasic[q]. Every other column is basic.

    _rows maps a basic column to its dictionary row (row, rhs, den): the
    num_vars ints packed in row by _slots, read as the rationals e_q / den,
    with right-hand side rhs / den, the column's value; the basic column
    itself is an implicit unit column. _rows holds the row of every basic
    structural column and of every basic surplus column whose value is
    negative, and no other: any other basic surplus row is derived from
    _given on demand (_derive). The cost row _cost is one more (row, rhs,
    den), whose row holds the reduced costs of the nonbasic columns, and
    -rhs / den is the objective of the current basis. Every denominator is
    positive, and each row is divided by gcd(den, rhs, *entries) after
    every change. Stored rows are replaced, never changed in place, so
    copies share them. _norms maps a basic column to its stored (row, rhs,
    den) and that row's steepest-edge norm: filled for every starting row
    by the constructor, and replaced at every leaving-row choice by the
    entries of the rows violated there. It too is replaced, never changed,
    so copies share it.

    CoveringSimplex(num_vars, pairs) starts with one row x_i + x_j >= 1 per
    pair (i, j) of distinct columns: the engine that add_ge_row({i: 1,
    j: 1}, 1) for each pair would build, in one pass over the pairs. At
    the all-surplus basis every x is nonbasic at zero, so each surplus row
    is its given row negated, -x_i - x_j over den 1 with rhs -1: violated,
    hence stored, with steepest-edge norm 1 + 1 + 1.

    _plus[j] and _minus[j] list the k whose given row has a positive and a
    negative coefficient on x_j: the rows that a fall, and a rise, of x_j
    can violate. _on_face is set on the copies optimal_face() returns.
    """

    __slots__ = (
        "num_vars", "_rows", "_cost", "_nonbasic", "_position", "_given", "_plus", "_minus",
        "pivots", "_on_face", "_slots", "_norms",
    )

    def __init__(self, num_vars: int, pairs: Iterable[tuple[int, int]] = ()):
        self.num_vars = num_vars
        self._slots = _Slots(num_vars, SLOT_WIDTH)
        self._rows: dict[int, tuple[int, int, int]] = {}
        self._norms: dict[int, tuple[tuple[int, int, int], int]] = {}
        self._cost = self._slots.ones, 0, 1
        self._nonbasic = list(range(num_vars))
        self._position = {j: j for j in range(num_vars)}
        self._given: list[tuple[dict[int, int], int]] = []
        self._plus: list[list[int]] = [[] for _ in range(num_vars)]
        self._minus: list[list[int]] = [[] for _ in range(num_vars)]
        self.pivots = 0
        self._on_face = False
        width, rows, norms = self._slots.width, self._rows, self._norms
        given, plus = self._given, self._plus
        for k, (i, j) in enumerate(pairs):
            given.append(({i: 1, j: 1}, 1))
            plus[i].append(k)
            plus[j].append(k)
            entry = rows[num_vars + k] = -(1 << width * i) - (1 << width * j), -1, 1
            norms[num_vars + k] = entry, 3

    def copy(self) -> "CoveringSimplex":
        dup = CoveringSimplex.__new__(CoveringSimplex)
        dup.num_vars = self.num_vars
        dup._rows = self._rows.copy()
        dup._cost = self._cost
        dup._nonbasic = list(self._nonbasic)
        dup._position = self._position.copy()
        dup._given = list(self._given)
        dup._plus = [ks.copy() for ks in self._plus]
        dup._minus = [ks.copy() for ks in self._minus]
        dup.pivots = self.pivots
        dup._on_face = self._on_face
        dup._slots = self._slots
        dup._norms = self._norms
        return dup

    def optimal_face(self) -> "CoveringSimplex":
        """A copy of this optimal engine whose columns with a positive
        reduced cost never enter, so its optimize stays on the optimal face
        or raises InfeasibleError (see the module docstring)."""
        dup = self.copy()
        dup._on_face = True
        return dup

    def add_ge_row(self, coeffs: Mapping[int, int], rhs: int) -> None:
        """Append constraint a.x >= b, a = coeffs and b = rhs.

        coeffs maps columns to ints and rhs is an int; a row with rational
        entries is scaled to integers by the caller. The row is kept in
        _given, and its new surplus s = a.x - b becomes basic. Its
        dictionary row is derived only if the current point violates it; a
        coefficient past the slot limit widens the engine first."""
        row = {j: c for j, c in coeffs.items() if c}
        while row and max(map(abs, row.values())) > self._slots.limit:
            self._widen()
        k = len(self._given)
        self._given.append((row, rhs))
        for j, c in row.items():
            (self._plus if c > 0 else self._minus)[j].append(k)
        new = self._derive(k)
        if new[1] < 0:
            self._rows[self.num_vars + k] = new

    def _derive(self, k: int) -> tuple[int, int, int]:
        """The dictionary row of basic surplus column num_vars + k.

        As a tableau row, given row k reads s - a.x = -b. An entry a_j on a
        basic x_j is removed by subtracting a_j / den times x_j's row. Basic
        rows are zero on each other's basic columns, so each such entry is
        read off the given row as it is; the rows are subtracted over the
        lcm of their denominators, and one gcd division at the end makes
        the result canonical: the row that pivots would have kept. No slot
        passes limit * size; if that or the result could break the bound,
        the engine widens and derives the row again."""
        row, rhs = self._given[k]
        rows, slots, position = self._rows, self._slots, self._position
        mult = lcm(*[rows[j][2] for j in row if j in rows])
        new, new_rhs, size = 0, -rhs * mult, mult
        for j, c in row.items():
            if j in rows:
                prow, prhs, pden = rows[j]
                f = c * (mult // pden)
                new, new_rhs, size = new + f * prow, new_rhs + f * prhs, size + abs(f)
            else:
                new -= (c * mult) << (slots.width * position[j])
        limit = slots.limit
        if size * limit < slots.half:
            new = _normalize(new, new_rhs, mult, slots)
            if new[2] < limit and not (new[0] + slots.room) & slots.high:
                return new
        self._widen()
        return self._derive(k)

    def _widen(self) -> None:
        """Re-encode every stored row and the cost row at twice the slot
        width, which restores the slot limit after a row outgrew it."""
        old = self._slots
        new = self._slots = _Slots(self.num_vars, 2 * old.width)
        rows = self._rows
        for col, (row, rhs, den) in list(rows.items()):
            rows[col] = new.pack(old.unpack(row)), rhs, den
        row, rhs, den = self._cost
        self._cost = new.pack(old.unpack(row)), rhs, den

    def optimize(self) -> None:
        """Dual simplex to optimality; raises InfeasibleError when primal empty.

        The leaving row is the dual steepest-edge choice (_steepest_row)
        until STALL_LIMIT consecutive pivots have entered at zero reduced
        cost; from then on it is Bland's lowest basic column (_bland_row)
        until a pivot raises the objective. The entering column is always
        Bland's least ratio. More than PIVOT_CAP pivots in one call raise
        PivotLimitError.

        On an optimal_face() copy, InfeasibleError is raised in place of
        the first pivot whose entering column has a positive reduced cost,
        and the engine is left as it was after the last zero-cost pivot.
        """
        rows, nonbasic = self._rows, self._nonbasic
        limit = self.pivots + PIVOT_CAP
        stalled = 0
        while True:
            unpack = self._slots.unpack
            if stalled < STALL_LIMIT:
                leave, self._norms = _steepest_row(rows, self._norms, unpack)
            else:
                leave = _bland_row(rows)
            if leave < 0:
                return
            # Bland entering rule: least ratio cost_q / -a_q over a_q < 0,
            # ties to the lowest column index. Row and cost denominators are
            # positive and common to every candidate, so comparing
            # cost_q * -a_best with cost_best * -a_q decides it in integers.
            cost = unpack(self._cost[0])
            enter = -1
            best_cost = best_neg = 0
            for q, a in enumerate(unpack(rows[leave][0])):
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
            if best_cost > 0:
                if self._on_face:
                    raise InfeasibleError("no point of the optimal face satisfies the rows")
                stalled = 0
            else:
                stalled += 1
            self._pivot(leave, enter)
            if self.pivots > limit:
                raise PivotLimitError(f"exceeded {PIVOT_CAP} pivots")

    def _pivot(self, leave: int, q: int) -> None:
        """Exchange basic column leave with nonbasic column _nonbasic[q].

        A stored surplus row that the pivot leaves satisfied is dropped."""
        n, rows, given, slots = self.num_vars, self._rows, self._given, self._slots
        bias, mask, half, shift = slots.bias, slots.mask, slots.half, slots.width * q
        limit, room, high = slots.limit, slots.room, slots.high
        row, rhs, den = rows.pop(leave)
        a = (((row + bias) >> shift) & mask) - half
        # Solving the row for the entering column divides it by its entry
        # a / den < 0; the leaving column takes position q with entry den.
        # Negate everything to keep the denominator positive.
        prow, prhs, pden = _normalize(((a - den) << shift) - row, -rhs, -a, slots)
        # The entering column rises from 0 to prhs / pden > 0, which moves
        # every basic column whose row has a nonzero entry at q, against the
        # sign of that entry; a structural leaving column rises to 0. A
        # surplus row's new rhs has the sign of rhs * pden - factor * prhs,
        # so a row the pivot leaves satisfied is dropped uneliminated. A row
        # that outgrows the slot bound widens the engine after the pivot.
        # The cost row goes through the same elimination under key -1; the
        # changed rows replace the stored ones after the pass.
        moved, dropped, changed, fits = [], [], {}, True
        for col, (row, rhs, den) in chain(rows.items(), ((-1, self._cost),)):
            factor = (((row + bias) >> shift) & mask) - half
            if not factor:
                continue
            if col >= n:
                if rhs * pden >= factor * prhs:
                    dropped.append(col)
                    continue
            elif col >= 0:
                moved.append((col, factor))
            # row - (factor / pden) * prow over a common denominator. The
            # leaving column was basic, so row's entry for it was zero and
            # slot q becomes -(factor / pden) * its prow entry. Inputs within
            # limit keep every slot within 2 * limit^2.
            g = gcd(factor, pden)
            scale, f = pden // g, factor // g
            row = row * scale - f * prow - ((factor * scale) << shift)
            row, _, den = changed[col] = _normalize(row, rhs * scale - f * prhs, den * scale, slots)
            fits = fits and den < limit and not (row + room) & high
        if -1 in changed:
            self._cost = changed.pop(-1)
        for col in dropped:
            del rows[col]
        rows.update(changed)
        enter = self._nonbasic[q]
        self._nonbasic[q] = leave
        del self._position[enter]
        self._position[leave] = q
        if enter < n:
            rows[enter] = (prow, prhs, pden)
        self.pivots += 1
        if not fits:
            self._widen()
        # An implicit basic surplus row had a value >= 0. It can only have
        # turned negative through a fallen column where its coefficient is
        # positive or a risen one where it is negative; those rows are
        # checked against the new point, and the violated ones derived.
        plus, minus = self._plus, self._minus
        suspects = set()
        for j, factor in moved:
            suspects.update(plus[j] if factor > 0 else minus[j])
        if enter < n:
            suspects.update(minus[enter])
        if leave < n:
            suspects.update(minus[leave])
        position = self._position
        suspects = [k for k in suspects if n + k not in rows and n + k not in position]
        if not suspects:
            return
        x, scale = self.scaled_values()
        for k in suspects:
            row, rhs = given[k]
            if sum(map(mul, row.values(), map(x.__getitem__, row))) < rhs * scale:
                rows[n + k] = self._derive(k)

    def scaled_values(self) -> tuple[list[int], int]:
        """The basic solution x scaled to integers: (ints, L) with
        x_j == ints[j] / L for every column j.

        L is the lcm of the denominators of the rows whose basic column is
        structural (1 when there are none), not necessarily the least
        common denominator of the values."""
        n = self.num_vars
        structural = [(b, rhs, den) for b, (_, rhs, den) in self._rows.items() if b < n]
        scale = lcm(*[den for _, _, den in structural])
        x = [0] * n
        for b, rhs, den in structural:
            x[b] = rhs * (scale // den)
        return x, scale

    def certified_values(self) -> tuple[list[int], int]:
        """scaled_values(), after an exact proof that they are optimal.

        Feasibility is checked against the rows as given, a.x >= b, and
        x >= 0. For optimality, the reduced cost of row i's surplus column
        is that row's dual y_i, read over the cost row's den at the column's
        nonbasic position; a basic surplus has y_i = 0. If y >= 0 and
        A^T y <= 1, weak duality makes b.y a lower bound on 1.x over the
        whole feasible set, so b.y == 1.x proves the point optimal (the
        verify-the-basis check of Applegate, Cook, Dash & Espinoza, OR
        Letters 35, 2007). x is taken from scaled_values() and y is kept
        multiplied by that den, so every check is an integer comparison.
        A failure raises AssertionError.
        """
        n = self.num_vars
        x, scale = self.scaled_values()
        if any(v < 0 for v in x):
            raise AssertionError("negative variable in solution")
        for i, (row, b) in enumerate(self._given):
            lhs = sum(c * x[j] for j, c in row.items())
            if lhs < b * scale:
                raise AssertionError(f"row {i} violated: {Rat(lhs, scale)} < {b}")
        column_sums = [0] * n
        bound = 0
        cost, _, den = self._cost
        for col, y in zip(self._nonbasic, self._slots.unpack(cost)):
            if col < n:
                continue
            if y < 0:
                raise AssertionError(f"dual of row {col - n} is negative: basis not optimal")
            if y:
                row, b = self._given[col - n]
                for j, c in row.items():
                    column_sums[j] += y * c
                bound += y * b
        for j, total in enumerate(column_sums):
            if total > den:
                raise AssertionError(f"dual infeasible at x{j}: (A^T y)_j = {Rat(total, den)} > 1")
        total = sum(x)
        if bound * scale != den * total:
            raise AssertionError(
                f"duality gap: b.y = {Rat(bound, den)} != 1.x = {Rat(total, scale)}"
            )
        return x, scale


def _steepest_row(rows, norms, unpack) -> tuple[int, dict]:
    """Dual steepest-edge leaving column, or -1 when every rhs is >= 0, and
    {column: (row, norm)} for the violated rows, the norm taken from norms
    where its entry there is the stored row itself.

    Among rows with rhs < 0 it maximises rhs^2 / ||row||^2, the squared
    distance from the current basic solution to the row's hyperplane, where
    the norm is taken over the dictionary row and its implicit basic unit
    entry: den^2 + sum_q e_q^2. A common scale of the row cancels, so the
    ratio is compared by integer cross-multiplication; ties go to the
    lowest basic column.
    """
    leave = -1
    best_sq = best_norm = 0
    kept = {}
    for col, entry in rows.items():
        rhs = entry[1]
        if rhs < 0:
            cached = norms.get(col)
            if cached is None or cached[0] is not entry:
                row, _, den = entry
                entries = unpack(row)
                cached = entry, den * den + sum(map(mul, entries, entries))
            _, norm = kept[col] = cached
            sq = rhs * rhs
            if leave >= 0:
                lhs, rhs_ = sq * best_norm, best_sq * norm
                if lhs < rhs_ or (lhs == rhs_ and col > leave):
                    continue
            leave, best_sq, best_norm = col, sq, norm
    return leave, kept


def _bland_row(rows) -> int:
    """The lowest basic column whose row has rhs < 0, or -1 when none."""
    return min((col for col, (_, rhs, _) in rows.items() if rhs < 0), default=-1)


@cache
class _Slots:
    """n signed ints packed into one int, width bits a slot, one object per
    (n, width). Slot q holds e_q in [-half, half), read as (((row + bias) >>
    (width * q)) & mask) - half. Each e_q is in [-limit, limit) when (row +
    room) & high is zero: room is limit in each slot, high its bits from
    2 * limit."""

    def __init__(self, n: int, width: int):
        shifts = range(0, width * n, width)
        ones = self.ones = ((1 << width * n) - 1) // ((1 << width) - 1)
        self.width, self.mask, self.half = width, (1 << width) - 1, 1 << (width - 1)
        self.limit = limit = 1 << (width // 2 - 2)
        self.bias = bias = self.half * ones
        self.room, self.high = limit * ones, (self.mask + 1 - 2 * limit) * ones
        self.pack = lambda entries: sum(e << s for e, s in zip(entries, shifts))
        if width <= 64:
            # (row + bias) ^ bias holds each e_q as a two's-complement slot.
            fmt = Struct(f"<{n}{ {8: 'b', 16: 'h', 32: 'i', 64: 'q'}[width] }")
            self.unpack = lambda row: fmt.unpack(((row + bias) ^ bias).to_bytes(fmt.size, "little"))
        else:
            self.unpack = lambda row: [(((row + bias) >> s) & self.mask) - self.half for s in shifts]


def _normalize(row: int, rhs: int, den: int, slots: _Slots):
    """Divide row, rhs and den by gcd(den, rhs, *entries). An exact row // g
    with every slot within limit is row divided slot by slot: g times those
    slots packs row inside the half range, and that packing is unique."""
    g = gcd(den, rhs)
    if g == 1:
        return row, rhs, den
    div, rem = divmod(row, g)
    if not rem and g <= slots.limit and not (div + slots.room) & slots.high:
        return div, rhs // g, den // g
    g = gcd(g, *slots.unpack(row))
    return row // g, rhs // g, den // g
