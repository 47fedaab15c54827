"""The one exact linear solver: absorption values of a sparse chain.

Both the loop solver in wp.py and the machine analysis solve systems of
the same shape, one row (den, r) per transient node s,

    x_s = sum_k r[k] * x_k / den,

where a key k with no row of its own is absorbing and stays a free
variable.  The answer gives every x_s as a combination of absorbing keys
only, so one solve serves every assignment of values to them.

The elimination is fraction-free: rows come in and go out as ints, each
row over one denominator of its own while it is worked on, brought back
to lowest terms on the way in, after every substitution and on the way
out, and the answer over one denominator common to every row.
"""

from __future__ import annotations

from math import gcd, lcm


def absorb(rows: dict) -> tuple:
    """(d, per row key its value as {absorbing key: int}), every value an
    int over the one common denominator d.

    Each row is given as (den, {key: int}), its coefficients over den; the
    input is not changed.  Eliminates the rows in order, substituting each
    into the not yet eliminated rows that mention it, then back-substitutes
    in reverse.  The rows of a loop or a machine are substochastic, so a
    vanishing pivot means some node is never absorbed: that raises
    ZeroDivisionError.
    """
    work = {s: _reduced([den, dict(r)]) for s, (den, r) in rows.items()}
    users: dict = {s: set() for s in work}  # uneliminated key -> rows mentioning it
    for s, (_, r) in work.items():
        for k in r:
            if k in users and k != s:
                users[k].add(s)
    for s, row in work.items():
        # x_s * den = sum_k r_k x_k, so x_s = sum_{k != s} r_k x_k / (den - r_s)
        row[0] -= row[1].pop(s, 0)
        if row[0] == 0:
            raise ZeroDivisionError("singular system: absorption is not almost sure")
        for u in users.pop(s):
            if u not in users:  # eliminated already: back-substitution covers it
                continue
            _substitute(work[u], s, row)
            for k in row[1]:
                if k in users:
                    users[k].add(u)
    for s in reversed(list(work)):
        row = work[s]
        for k in [k for k in row[1] if k in work]:
            _substitute(row, k, work[k])
    d = lcm(*(_reduced(row)[0] for row in work.values()))
    return d, {s: {k: c * (d // den) for k, c in r.items()} for s, (den, r) in work.items()}


def _substitute(target: list, key, source: list):
    """Replace x_key in the row `target` by the row `source`, in place."""
    r = target[1]
    c = r.pop(key)
    if source[0] != 1:
        for k in r:
            r[k] *= source[0]
    for k, w in source[1].items():
        r[k] = r.get(k, 0) + c * w
    target[0] *= source[0]
    _reduced(target)


def _reduced(row: list) -> list:
    """The row [den, {key: int}] brought to lowest terms, in place."""
    den, r = row
    g = gcd(den, *r.values())
    if g != 1:
        row[0] = den // g
        for k in r:
            r[k] //= g
    return row
