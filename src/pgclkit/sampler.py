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

Each WeightedDist derives its sampler configurations once, and this
module is the only reader of the result.  Its successor table is a flat
list: entry 2*i + bit holds where flipping `bit` at interior
configuration i leads, as 2*j for interior configuration j, as -outcome
for a leaf, or as a code below -N for a successor not yet derived.  A
walk looks one entry up per flip and derives a successor only when it
steps onto such a code: it splits the parent, checks the window invariant
of the result, and stores the entry only once the check has passed, so no
configuration is used unchecked and the table holds only the
configurations that walks reach, whichever reaches one first.  The table
identifies configurations by (low, window slice, high), so a revisited
configuration is the same entry.

Three walks read it.  sample_discrete draws one outcome and records its
bits, for single traced draws, scripted bit streams and `pgcl sample`.
run_trials draws in bulk and counts flips instead: every draw of a run
reads one seeded stream, the stream of RandomBitSource(seed), so a run
returns the same outcomes and flip counts as that many sample_discrete
draws from it.  It reads that stream in blocks (bits.random_bit_blocks),
and a draw's first 8 flips as one byte, which it looks up in the table's
root row: per byte, where those flips lead from the root and how many of
them the draw uses, filled by a walk of the table the first time the
byte comes up.  Past them a draw walks the table bit by bit.
build_machine reads the whole table breadth first, deriving what
draws have not reached, and numbers its entries into a machine.Machine:
interior nodes are the configurations, a revisited one is a back-edge,
and every outcome gets a single shared leaf.  sample_binary keeps its
bias as a pair of integers too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .bits import check_count, random_bit_blocks
from .errors import DistError, MachineFormatError, WindowInvariantError
from .machine import Machine, MachineNode

DEFAULT_MAX_NODES = 100_000


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

    @cached_property
    def _successor_table(self) -> "_SuccessorTable":
        """The successor table that sample_discrete, run_trials and
        build_machine walk: made on first use, then grown by the walks.
        Not a field, so it stays out of __eq__, __hash__ and __repr__."""
        return _SuccessorTable(self)

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
    for.  `root_row` is run_trials' lookup of a draw's first 8 flips: see
    root_entry.
    """

    def __init__(self, d: WeightedDist):
        self.underived = -d.size - 1
        self.succ: list[int] = []
        self.configs: list[CumulativeDist] = []  # interior configuration i
        self._positions: dict[tuple, int] = {}  # key() -> 2*i
        self.root_row: list[Optional[tuple[int, int]]] = [None] * 256
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

    def root_entry(self, window: int) -> tuple[int, int]:
        """Fill and return root_row[window]: (entry, bits used) after the
        first flips of a draw, at most 8, whose next bits are `window`,
        first bit lowest.  The walk stops at a leaf, so it derives only
        what the draw reaches, and nothing is stored when a check fails."""
        node, used = self.start, 0
        while node >= 0 and used < 8:
            node = self.succ[node + (window >> used & 1)]
            used += 1
            if node <= self.underived:
                node = self.derive(node)
        self.root_row[window] = entry = (node, used)
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


class SampleTrace(NamedTuple):
    """One completed sample: 1-based outcome plus the bits that drove it."""

    outcome: int
    bits: tuple[int, ...]

    @property
    def flips(self) -> int:
        return len(self.bits)


def sample_discrete(d: WeightedDist, bits) -> SampleTrace:
    """Draw one outcome from a weighted distribution.

    `bits` is anything with a next_bit() method that returns 0 or 1.  The
    draw walks the successor table of `d`; a configuration it reaches for
    the first time is derived and its window invariant checked, and a
    violation is a bug, not bad input.
    """
    table = d._successor_table
    succ, underived, next_bit = table.succ, table.underived, bits.next_bit
    consumed: list[int] = []
    node = table.start
    while True:
        while node >= 0:
            b = next_bit()
            consumed.append(b)
            node = succ[node + b]
        if node > underived:  # a leaf, -outcome
            return tuple.__new__(SampleTrace, (-node, tuple(consumed)))
        node = table.derive(node)


@dataclass(frozen=True)
class TrialsResult:
    """Aggregated tallies of repeated sampling."""

    weights: tuple[int, ...]
    runs: int
    seed: int
    tallies: tuple[int, ...]  # tallies[i] counts outcome i+1
    total_flips: int

    @property
    def avg_flips(self) -> Fraction:
        return Fraction(self.total_flips, self.runs)

    @property
    def rel_freq(self) -> tuple[Fraction, ...]:
        """Per outcome: tally/runs normalised by w_i/total, so near 1."""
        total = sum(self.weights)
        return tuple(
            Fraction(t * total, self.runs * w)
            for t, w in zip(self.tallies, self.weights)
        )

    def format_table(self) -> str:
        lines = ["Relative frequencies of the sampled outcomes:"]
        for i, f in enumerate(self.rel_freq, start=1):
            lines.append(f"  outcome {i}: {float(f):.6f} (tally {self.tallies[i - 1]})")
        lines.append(
            f"realised over {self.runs} runs, using {float(self.avg_flips):.6f} "
            "flips on average."
        )
        return "\n".join(lines)


def run_trials(d: WeightedDist, runs: int, seed: int) -> TrialsResult:
    """Sample `runs` times and tally outcomes and flip counts.

    Every draw reads the one bit stream RandomBitSource(seed), so the
    result equals `runs` successive sample_discrete(d, source) draws and a
    given seed is fully reproducible.  It reads the stream in blocks, and
    a draw's first 8 flips with one lookup (see the module docstring); a
    draw that runs off a block starts again from its first bit in the
    next one, which carries the tail over.
    """
    if isinstance(runs, bool) or not isinstance(runs, int):
        raise DistError(f"run count must be an int, got {runs!r}")
    if runs < 1:
        raise DistError("need at least one run")
    table = d._successor_table
    succ, underived, row = table.succ, table.underived, table.root_row
    tallies = [0] * d.size  # tallies[-k] counts outcome k
    total_flips, left, tail = 0, runs, b""
    for block in random_bit_blocks(seed):
        block = tail + block
        n, x = len(block), int.from_bytes(block, "little")
        # byte i of windows holds bits i..i+7 of the block, bit i lowest:
        # each step adds, shifted past the bits byte i holds, the byte 1,
        # 2 and then 4 places on
        x += x >> 7
        x += x >> 14
        windows = (x + (x >> 28)).to_bytes(n, "little")
        pos, last = 0, n - 8
        while pos <= last:
            node, used = row[windows[pos]] or table.root_entry(windows[pos])
            if node >= 0:  # interior after 8 flips: go on bit by bit
                end = pos + 8
                while True:
                    while node >= 0 and end < n:
                        node = succ[node + block[end]]
                        end += 1
                    if node > underived:  # a leaf, or off the block
                        break
                    node = table.derive(node)
                if node >= 0:  # off the block: start again in the next one
                    break
                used = end - pos
            pos += used
            tallies[node] += 1
            left -= 1
            if not left:
                return TrialsResult(d.weights, runs, seed, tuple(tallies[::-1]),
                                    total_flips + pos)
        total_flips += pos
        tail = block[pos:]


def build_machine(d: WeightedDist, max_nodes: int = DEFAULT_MAX_NODES) -> Machine:
    """The sampler's configurations reachable from the initial one, read
    breadth first from the successor table of `d`; an entry that no draw
    has reached yet is derived, and checked, on the way.

    Node ids are assigned in discovery order (root is 0), so the result is
    reproducible.  Leaves are shared per outcome: the table names a leaf
    by its outcome alone.
    """
    check_count("max_nodes", max_nodes, 1)
    table = d._successor_table
    succ, underived = table.succ, table.underived
    order = [table.start]  # entries in discovery order: node i is order[i]
    ids = {table.start: 0}
    nodes: list[MachineNode] = []
    for entry in order:  # order grows as the walk discovers entries
        if entry < 0:  # a leaf, -outcome
            nodes.append(MachineNode(len(nodes), "leaf", outcome=-entry))
            continue
        succ_ids = []
        for e in (entry, entry + 1):
            nxt = succ[e] if succ[e] > underived else table.derive(succ[e])
            if nxt not in ids:
                if len(ids) >= max_nodes:
                    raise MachineFormatError(
                        f"machine construction exceeded {max_nodes} nodes"
                    )
                ids[nxt] = len(ids)
                order.append(nxt)
            succ_ids.append(ids[nxt])
        c = table.configs[entry >> 1]
        window = " ".join(str(v) for v in c.window())
        nodes.append(MachineNode(len(nodes), "interior", heads=succ_ids[0],
                                 tails=succ_ids[1],
                                 label=f"{c.low} | {window} | {c.high}"))
    return Machine(tuple(nodes), root=0, outcomes=d.size)


def sample_binary(p: Fraction, bits) -> SampleTrace:
    """Bernoulli(p) from fair flips: outcome 1 with probability exactly p.

    Keeps a current bias x = a/b, initially p, as two integers.  While
    0 < x < 1 the bias is split into a pair (q, r) averaging to x with
    q = 0 or r = 1, and one flip selects which half to keep: heads (bit 0)
    keeps q, tails keeps r.  Endpoint biases never flip at all.
    """
    if isinstance(p, Fraction):
        a, b = p.as_integer_ratio()  # b > 0
    elif isinstance(p, (float, bool)):
        raise DistError(f"bias {p!r} is not exact; use an int or a Fraction")
    else:
        a, b = Fraction(p).as_integer_ratio()
    if not 0 <= a <= b:
        raise DistError(f"bias {p} outside [0, 1]")
    next_bit = bits.next_bit
    consumed: list[int] = []
    while 0 < a < b:
        bit = next_bit()
        consumed.append(bit)
        a += a  # 2x, then r = min(2x, 1) on tails, q = max(2x - 1, 0) on heads
        if a > b:
            a = b if bit else a - b
        elif not bit:
            a = 0
    return tuple.__new__(SampleTrace, (a // b, tuple(consumed)))


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


def read_dist(text: str) -> tuple[Optional[int], WeightedDist]:
    """A weight list, or a trials file with its own run count: (runs or
    None, dist).  Text whose first line that holds anything is a single
    token, with more such lines after it, is a trials file.  A `#` starts
    a comment anywhere on a line."""
    lines = _weight_lines(text)
    if len(lines) > 1 and len(lines[0].split()) == 1:
        return read_trials_file(text)
    return None, WeightedDist.parse(" ".join(lines))
