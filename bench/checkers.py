"""Reference computations the benchmark checks pgclkit's outputs against.

Nothing here imports pgclkit: every value is derived from the mathematics
of the workload (closed forms, entropy, the interval view of fair-coin
sampling, floating-point value iteration, chi-square tail probabilities).
Each check_* function returns None when the output is right, or raises
Wrong with a description; loop_gap_problem reports an operation that
failed rather than a wrong answer.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Wrong(Exception):
    """An output contradicts its reference value or a required property."""


# --- closed forms of the loops workload ------------------------------------


def ruin_value(i: int, n: int, up: Fraction) -> Fraction:
    """Probability that a walk on 0..n stepping up with probability `up`
    reaches n before 0, starting from i."""
    up = Fraction(up)
    if i <= 0:
        return Fraction(0)
    if i >= n:
        return Fraction(1)
    if up == Fraction(1, 2):
        return Fraction(i, n)
    r = (1 - up) / up
    return (1 - r**i) / (1 - r**n)


def demonic_ruin_value(i: int, n: int, ups) -> Fraction:
    """The demon minimising the chance of reaching n always picks the
    smallest up-probability, since ruin_value is increasing in it."""
    return ruin_value(i, n, min(Fraction(u) for u in ups))


def check_pre_below(returned: dict, closed: dict, label: str):
    """The least fixpoint is approached from below: no returned value may
    exceed the exact one."""
    for state, exact in closed.items():
        if returned[state] > exact:
            raise Wrong(f"{label}: wp = {returned[state]} exceeds the exact "
                        f"value {exact} at {state}")


def loop_gap_problem(returned: dict, closed: dict, residual: Fraction,
                     label: str):
    """None when every exact value lies within the reported residual of the
    returned one, else a description of the largest gap."""
    worst_state = max(closed, key=lambda s: closed[s] - returned[s])
    gap = closed[worst_state] - returned[worst_state]
    if gap <= residual:
        return None
    return (f"{label}: exact value is {float(gap):.3g} above wp at "
            f"{worst_state}, reported loop_residual is {float(residual):.3g}")


# --- verdicts of the derivation workload -----------------------------------


def check_verdict(status: str, allowed, label: str):
    if status not in allowed:
        raise Wrong(f"{label}: verdict {status!r}, expected one of "
                    f"{', '.join(sorted(allowed))}")


# --- sampling --------------------------------------------------------------


def entropy_bits(weights) -> float:
    total = sum(weights)
    return -sum(w / total * math.log2(w / total) for w in weights)


def _cumulative(weights):
    acc, out = 0, []
    for w in weights:
        acc += w
        out.append(acc)
    return out


def interval_outcome(weights, bits):
    """The outcome that the interval algorithm assigns to a bit string, or
    None if the string does not end exactly where the algorithm stops.

    Reading heads as 0, the bits b1..bk pick the dyadic interval
    [x / 2^k, (x + 1) / 2^k).  Sampling stops at the first k where no
    boundary C_j / T of the cumulative weights lies strictly inside it, and
    the outcome is the weight interval that contains it.
    """
    total = sum(weights)
    bounds = _cumulative(weights)[:-1]
    x = 0
    for k, b in enumerate(bits):
        if not _splits(bounds, total, x, k):
            return None  # stopped before consuming every bit
        x = 2 * x + b
    k = len(bits)
    if _splits(bounds, total, x, k):
        return None  # the algorithm needs more bits
    scale = 1 << k
    lo = 0
    for outcome, hi in enumerate(_cumulative(weights), start=1):
        if lo * scale <= x * total and (x + 1) * total <= hi * scale:
            return outcome
        lo = hi
    return None


def _splits(bounds, total, x, k) -> bool:
    scale = 1 << k
    return any(x * total < c * scale < (x + 1) * total for c in bounds)


def flip_moments(weights, tail: float = 1e-18) -> tuple[float, float]:
    """Mean and variance of the interval algorithm's flip count.

    P(flips > k) is the share of dyadic intervals of length 2^-k that still
    hold a boundary strictly inside; there is at most one per boundary, so
    the tail decays like 2^-k and the sums converge fast.
    """
    total = sum(weights)
    bounds = _cumulative(weights)[:-1]
    mean = second = 0.0
    k = 0
    while True:
        scale = 1 << k
        cells = {c * scale // total for c in bounds if (c * scale) % total}
        p_more = len(cells) / scale
        if p_more < tail and k > 0:
            break
        mean += p_more
        second += (2 * k + 1) * p_more
        k += 1
    return mean, second - mean * mean


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution: Q(dof / 2, x / 2)."""
    if x <= 0:
        return 1.0
    a, z = dof / 2.0, x / 2.0
    if z < a + 1:  # series for the lower regularised gamma
        term = total = 1.0 / a
        n = a
        while term > total * 1e-16:
            n += 1
            term *= z / n
            total += term
        return max(0.0, 1.0 - total * math.exp(-z + a * math.log(z) - math.lgamma(a)))
    # Lentz's continued fraction for the upper regularised gamma
    tiny = 1e-300
    b = z + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-16:
            break
    return math.exp(-z + a * math.log(z) - math.lgamma(a)) * h


def chi2_goodness(tallies, weights) -> float:
    runs = sum(tallies)
    total = sum(weights)
    stat = 0.0
    for t, w in zip(tallies, weights):
        expected = runs * w / total
        stat += (t - expected) ** 2 / expected
    return chi2_sf(stat, len(weights) - 1)


def chi2_two_samples(a, b) -> float:
    """Contingency test that two tally vectors come from one law."""
    na, nb = sum(a), sum(b)
    stat = 0.0
    for ta, tb in zip(a, b):
        col = ta + tb
        for t, n in ((ta, na), (tb, nb)):
            expected = n * col / (na + nb)
            stat += (t - expected) ** 2 / expected
    return chi2_sf(stat, len(a) - 1)


P_MIN = 0.001
SE_LIMIT = 4.0


def check_tallies(tallies, weights, runs, label):
    if len(tallies) != len(weights):
        raise Wrong(f"{label}: {len(tallies)} tallies for {len(weights)} outcomes")
    if sum(tallies) != runs:
        raise Wrong(f"{label}: tallies sum to {sum(tallies)}, not {runs}")
    p = chi2_goodness(tallies, weights)
    if not p > P_MIN:
        raise Wrong(f"{label}: chi-square p = {p:.2e} against w_i/total")


def check_mean_flips(total_flips, runs, weights, label, exact=None):
    """Mean flips at least the entropy minus SE_LIMIT standard errors, and
    within SE_LIMIT standard errors of `exact` when one is given."""
    mean, var = flip_moments(weights)
    se = math.sqrt(var / runs)
    got = total_flips / runs
    floor = entropy_bits(weights) - SE_LIMIT * se
    if got < floor:
        raise Wrong(f"{label}: {got:.4f} flips per sample, below the "
                    f"entropy bound {floor:.4f}")
    if exact is not None and abs(got - exact) > SE_LIMIT * se:
        raise Wrong(f"{label}: {got:.4f} flips per sample, more than "
                    f"{SE_LIMIT:g} standard errors from {exact}")


# --- machines --------------------------------------------------------------


def value_iteration(nodes, root, outcomes, tol: float = 1e-15):
    """Outcome probabilities and expected flips by floating-point iteration.

    `nodes` maps an id to ("leaf", outcome) or ("interior", heads, tails).
    Iterates the absorption equations from 0 until the mass not yet
    absorbed from the root is below `tol`.
    """
    interior = {n: v for n, v in nodes.items() if v[0] == "interior"}
    flips = dict.fromkeys(nodes, 0.0)
    alive = {n: 1.0 if n in interior else 0.0 for n in nodes}
    probs = {n: [0.0] * outcomes for n in nodes}
    for n, v in nodes.items():
        if v[0] == "leaf":
            probs[n][v[1] - 1] = 1.0
    while alive[root] > tol:
        flips = {n: (1 + (flips[v[1]] + flips[v[2]]) / 2 if n in interior else 0.0)
                 for n, v in nodes.items()}
        probs = {n: ([(a + b) / 2 for a, b in zip(probs[v[1]], probs[v[2]])]
                     if n in interior else probs[n])
                 for n, v in nodes.items()}
        alive = {n: ((alive[v[1]] + alive[v[2]]) / 2 if n in interior else 0.0)
                 for n, v in nodes.items()}
    return probs[root], flips[root]


def check_machine(nodes, root, weights, probs, flips, label,
                  expect_nodes=None, expect_flips=None):
    """Exact probabilities w_i/total, the entropy bound, and agreement with
    value iteration over the same node graph to 1e-9 relative."""
    total = sum(weights)
    want = tuple(Fraction(w, total) for w in weights)
    if tuple(probs) != want:
        raise Wrong(f"{label}: outcome probabilities {probs} are not {want}")
    if float(flips) < entropy_bits(weights) - 1e-12:
        raise Wrong(f"{label}: {flips} expected flips is below the entropy "
                    f"{entropy_bits(weights):.6f}")
    it_probs, it_flips = value_iteration(nodes, root, len(weights))
    if abs(it_flips - float(flips)) > 1e-9 * max(1.0, it_flips):
        raise Wrong(f"{label}: value iteration gives {it_flips!r} flips, "
                    f"analysis gives {flips}")
    for i, (a, b) in enumerate(zip(it_probs, want), start=1):
        if abs(a - float(b)) > 1e-9:
            raise Wrong(f"{label}: value iteration gives P({i}) = {a!r}")
    if expect_nodes is not None and len(nodes) != expect_nodes:
        raise Wrong(f"{label}: {len(nodes)} nodes, expected {expect_nodes}")
    if expect_flips is not None and flips != expect_flips:
        raise Wrong(f"{label}: {flips} expected flips, expected {expect_flips}")
