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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import RandomBitSource
from .errors import DistError, WindowInvariantError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# more shards than this would make _shard_seed collide across seeds
MAX_SHARDS = 1_000_003


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
        """Identity for machine construction: stale entries outside the
        window are ignored."""
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

    `bits` is anything with a next_bit() method.  The window invariant is
    re-checked after every flip; a violation is a bug, not bad input.
    """
    c = CumulativeDist.initial(d)
    c.check_invariant()
    consumed: list[int] = []
    while not c.is_terminal:
        b = bits.next_bit()
        consumed.append(b)
        c = c.split_left() if b == 0 else c.split_right()
        c.check_invariant()
    return SampleTrace(c.outcome, len(consumed), tuple(consumed))


def sample_binary(p: Fraction, bits) -> SampleTrace:
    """Bernoulli(p) from fair flips: outcome 1 with probability exactly p.

    Keeps a current bias x, initially p.  While 0 < x < 1 the bias is split
    into a pair (q, r) averaging to x with q = 0 or r = 1, and one flip
    selects which half to keep: heads (bit 0) keeps q, tails keeps r.
    Endpoint biases never flip at all.
    """
    x = Fraction(p)
    if not 0 <= x <= 1:
        raise DistError(f"bias {p} outside [0, 1]")
    consumed: list[int] = []
    while 0 < x < 1:
        if x <= HALF:
            q, r = ZERO, 2 * x
        else:
            q, r = 2 * x - 1, ONE
        b = bits.next_bit()
        consumed.append(b)
        x = q if b == 0 else r
    return SampleTrace(int(x), len(consumed), tuple(consumed))


@dataclass(frozen=True)
class TrialsResult:
    """Aggregated tallies of repeated sampling."""

    weights: tuple[int, ...]
    runs: int
    seed: int
    tallies: tuple[int, ...]  # tallies[i] counts outcome i+1
    total_flips: int
    total_flips_sq: int  # sum of squared per-run flip counts

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

    def flip_variance(self) -> Fraction:
        mean = self.avg_flips
        return Fraction(self.total_flips_sq, self.runs) - mean * mean

    def format_table(self) -> str:
        lines = ["Relative frequencies of the sampled outcomes:"]
        for i, f in enumerate(self.rel_freq, start=1):
            lines.append(f"  outcome {i}: {float(f):.6f} (tally {self.tallies[i - 1]})")
        lines.append(
            f"realised over {self.runs} runs, using {float(self.avg_flips):.6f} "
            "flips on average."
        )
        return "\n".join(lines)


def run_trials(d: WeightedDist, runs: int, seed: int, shards: int = 1) -> TrialsResult:
    """Sample `runs` times and tally outcomes and flip counts.

    Work is split into shards with bit streams derived from (seed, shard),
    so the aggregate is independent of evaluation order and a given
    (seed, shards) pair is fully reproducible.
    """
    if runs < 1:
        raise DistError("need at least one run")
    if shards < 1 or shards > runs:
        raise DistError("shards must be between 1 and the run count")
    if shards > MAX_SHARDS:
        raise DistError(f"at most {MAX_SHARDS} shards keep shard seeds distinct")
    tallies = [0] * d.size
    total_flips = 0
    total_flips_sq = 0
    per_shard = [runs // shards] * shards
    for k in range(runs % shards):
        per_shard[k] += 1
    for shard, count in enumerate(per_shard):
        source = RandomBitSource(_shard_seed(seed, shard))
        for _ in range(count):
            trace = sample_discrete(d, source)
            tallies[trace.outcome - 1] += 1
            total_flips += trace.flips
            total_flips_sq += trace.flips * trace.flips
    return TrialsResult(d.weights, runs, seed, tuple(tallies),
                        total_flips, total_flips_sq)


def _shard_seed(seed: int, shard: int) -> int:
    # fixed affine mix, one-to-one for non-negative seeds while
    # shard < MAX_SHARDS; random.Random seeds must not collide
    return seed * MAX_SHARDS + shard


def read_trials_file(text: str) -> tuple[int, WeightedDist]:
    """First line: run count.  Rest: whitespace-separated integer weights."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise DistError("empty trials file")
    try:
        runs = int(lines[0].strip())
    except ValueError:
        raise DistError(f"bad run count {lines[0]!r}") from None
    dist = WeightedDist.parse(" ".join(lines[1:]))
    return runs, dist
