"""Sampling finite weighted distributions with fair coin flips only.

The discrete sampler keeps the distribution as a cumulative list of
integer partial sums dL (length N-1 for N outcomes; the total is carried
separately) plus a half-open active window [low, high) into it.  One fair
flip splits the remaining probability mass in half:

  heads sweeps left to right doubling entries while 2*dL[n] < total,
  then shrinks the window to [low, n);
  tails sweeps right to left replacing entries by 2*dL[n] - total while
  2*dL[n] > total, then shrinks the window to [n+1, high).

An entry with 2*dL[n] == total stops both sweeps: the halved mass splits
exactly at an outcome boundary and the window needs no further trimming on
that side.  The window narrows by at least one entry on at least one side
of every flip, and sampling ends when low == high with outcome low
(reported 1-based).  No arithmetic ever leaves the integers.

Each WeightedDist derives its sampler configurations once.  Its successor
table is a flat list: entry 2*i + bit holds where flipping `bit` at
interior configuration i leads, as 2*j for interior configuration j, as
-outcome for a leaf, or as a code below -N for a successor not yet
derived.  A draw walks the table one lookup per flip and derives a
successor only when it steps onto such a code: it splits the parent,
checks the window invariant of the result, and stores the entry only once
the check has passed, so no configuration is used unchecked and the table
holds only the configurations that draws reach.  sample_discrete walks it
for single traced draws, scripted bit streams and `pgcl sample`;
machine.run_trials walks the same table for bulk trials, and
machine.build_machine reads all of it, deriving what draws have not
reached, and numbers its entries breadth first.  sample_binary keeps its
bias as a pair of integers too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DistError, WindowInvariantError


@dataclass(frozen=True)
class WeightedDist:
    """Positive integer weights; outcome i has probability w_i / total."""

    weights: tuple[int, ...]

    def __post_init__(self):
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise DistError("need at least one outcome")
        for w in ws:
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise DistError(f"weights must be integers >= 1, got {w!r}")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def probability(self, outcome: int) -> Fraction:
        """Exact probability of a 1-based outcome."""
        return Fraction(self.weights[outcome - 1], self.total)

    def _successor_table(self) -> "_SuccessorTable":
        """The successor table that sample_discrete and machine.run_trials
        walk: made on first use, then grown by the draws."""
        try:
            return self._table
        except AttributeError:
            table = _SuccessorTable(self)
            # not a field, so it stays out of __eq__, __hash__ and __repr__
            object.__setattr__(self, "_table", table)
            return table

    @staticmethod
    def parse(text: str) -> "WeightedDist":
        try:
            ws = tuple(int(tok) for tok in text.split())
        except ValueError as exc:
            raise DistError(f"bad weight list {text!r}: {exc}") from None
        return WeightedDist(ws)


@dataclass(frozen=True)
class CumulativeDist:
    """Cumulative partial sums with the active window; see module docstring."""

    dL: tuple[int, ...]
    total: int
    low: int
    high: int

    @staticmethod
    def initial(d: WeightedDist) -> "CumulativeDist":
        sums = []
        acc = 0
        for w in d.weights[:-1]:
            acc += w
            sums.append(acc)
        return CumulativeDist(tuple(sums), d.total, 0, d.size - 1)

    def check_invariant(self):
        """Window entries must be strictly increasing and strictly inside
        (0, total); anything else means the split bookkeeping broke."""
        n = len(self.dL)
        if not (0 <= self.low <= self.high <= n):
            raise WindowInvariantError(
                f"window [{self.low}, {self.high}) outside 0..{n}"
            )
        prev = 0
        for k in range(self.low, self.high):
            v = self.dL[k]
            if v <= prev or v >= self.total:
                raise WindowInvariantError(
                    f"window entry dL[{k}] = {v} not strictly between "
                    f"{prev} and total {self.total}"
                )
            prev = v

    @property
    def support_size(self) -> int:
        """Number of outcomes still possible: window entries plus one."""
        return self.high - self.low + 1

    @property
    def is_terminal(self) -> bool:
        return self.low == self.high

    @property
    def outcome(self) -> int:
        if not self.is_terminal:
            raise WindowInvariantError("outcome read before the window closed")
        return self.low + 1

    def window(self) -> tuple[int, ...]:
        return self.dL[self.low : self.high]

    def key(self) -> tuple:
        """Identity of a configuration in the successor table, and so of a
        machine node: stale entries outside the window are ignored."""
        return (self.low, self.window(), self.high)

    def split_left(self) -> "CumulativeDist":
        """Condition on heads: keep the lower half of the mass."""
        if self.is_terminal:
            raise WindowInvariantError("split of a terminal configuration")
        dL = list(self.dL)
        n = self.low
        while n < self.high and 2 * dL[n] < self.total:
            dL[n] = 2 * dL[n]
            n += 1
        return CumulativeDist(tuple(dL), self.total, self.low, n)

    def split_right(self) -> "CumulativeDist":
        """Condition on tails: keep the upper half of the mass."""
        if self.is_terminal:
            raise WindowInvariantError("split of a terminal configuration")
        dL = list(self.dL)
        n = self.high - 1
        while self.low <= n and 2 * dL[n] > self.total:
            dL[n] = 2 * dL[n] - self.total
            n -= 1
        return CumulativeDist(tuple(dL), self.total, n + 1, self.high)


class _SuccessorTable:
    """The successor table of one WeightedDist; see the module docstring.

    `succ` is the table and `start` the root's entry in the same form.
    Entry e, while not yet derived, holds underived - e, where underived is
    -N - 1; any code at or below underived names the one entry it stands
    for.
    """

    def __init__(self, d: WeightedDist):
        self.underived = -d.size - 1
        self.succ: list[int] = []
        self.configs: list[CumulativeDist] = []  # interior configuration i
        self._positions: dict[tuple, int] = {}  # key() -> 2*i
        root = CumulativeDist.initial(d)
        root.check_invariant()
        self.start = self._entry(root)

    def __len__(self) -> int:
        """Interior configurations derived so far."""
        return len(self.configs)

    def derive(self, code: int) -> int:
        """Derive, check and store the entry that `code` stands for, and
        return it.  Nothing is stored when the check fails."""
        e = self.underived - code
        parent = self.configs[e >> 1]
        c = parent.split_right() if e & 1 else parent.split_left()
        c.check_invariant()
        self.succ[e] = entry = self._entry(c)
        return entry

    def _entry(self, c: CumulativeDist) -> int:
        """The entry that leads to checked configuration `c`; a new
        interior configuration gets two underived entries."""
        if c.is_terminal:
            return -c.outcome
        key = c.key()
        position = self._positions.get(key)
        if position is None:
            position = self._positions[key] = len(self.succ)
            self.configs.append(c)
            self.succ += (self.underived - position, self.underived - position - 1)
        return position


@dataclass(frozen=True)
class SampleTrace:
    """One completed sample: 1-based outcome plus the bits that drove it."""

    outcome: int
    flips: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.flips != len(self.bits):
            raise DistError("flip count disagrees with recorded bits")


def sample_discrete(d: WeightedDist, bits) -> SampleTrace:
    """Draw one outcome from a weighted distribution.

    `bits` is anything with a next_bit() method that returns 0 or 1.  The
    draw walks the successor table of `d`; a configuration it reaches for
    the first time is derived and its window invariant checked, and a
    violation is a bug, not bad input.
    """
    table = d._successor_table()
    succ, underived, next_bit = table.succ, table.underived, bits.next_bit
    consumed: list[int] = []
    node = table.start
    while True:
        while node >= 0:
            b = next_bit()
            consumed.append(b)
            node = succ[node + b]
        if node > underived:  # a leaf, -outcome
            return SampleTrace(-node, len(consumed), tuple(consumed))
        node = table.derive(node)


def sample_binary(p: Fraction, bits) -> SampleTrace:
    """Bernoulli(p) from fair flips: outcome 1 with probability exactly p.

    Keeps a current bias x = a/b, initially p, as two integers.  While
    0 < x < 1 the bias is split into a pair (q, r) averaging to x with
    q = 0 or r = 1, and one flip selects which half to keep: heads (bit 0)
    keeps q, tails keeps r.  Endpoint biases never flip at all.
    """
    if isinstance(p, Fraction):
        x = p
    elif isinstance(p, (float, bool)):
        raise DistError(f"bias {p!r} is not exact; use an int or a Fraction")
    else:
        x = Fraction(p)
    a, b = x.numerator, x.denominator  # b > 0
    if not 0 <= a <= b:
        raise DistError(f"bias {p} outside [0, 1]")
    next_bit = bits.next_bit
    consumed: list[int] = []
    while 0 < a < b:
        if 2 * a <= b:
            q, r = 0, 2 * a
        else:
            q, r = 2 * a - b, b
        bit = next_bit()
        consumed.append(bit)
        a = q if bit == 0 else r
    return SampleTrace(a // b, len(consumed), tuple(consumed))


def _weight_lines(text: str) -> list[str]:
    """The lines of weight input that hold anything once a `#` comment,
    which runs to the end of its line, is cut off."""
    return [ln for ln in (ln.split("#", 1)[0] for ln in text.splitlines()) if ln.strip()]


def read_trials_file(text: str) -> tuple[int, WeightedDist]:
    """First line: run count.  Rest: whitespace-separated integer weights.
    A `#` starts a comment anywhere on a line."""
    lines = _weight_lines(text)
    if not lines:
        raise DistError("empty trials file")
    try:
        runs = int(lines[0].strip())
    except ValueError:
        raise DistError(f"bad run count {lines[0]!r}") from None
    dist = WeightedDist.parse(" ".join(lines[1:]))
    return runs, dist
