"""The one exact linear solver: absorption values of a sparse chain.

Both the loop solver in wp.py and the machine analysis solve systems of
the same shape, one row per transient node,

    x_s = sum_k rows[s][k] * x_k,

where a key k with no row of its own is absorbing and stays a free
variable.  The answer gives every x_s as a combination of absorbing keys
only, so one solve serves every assignment of values to them.
"""

from __future__ import annotations

from fractions import Fraction

ONE = Fraction(1)


def absorb(rows: dict) -> dict:
    """Per row key, its value as {absorbing key: coefficient}.

    Eliminates the rows in order, substituting each into the not yet
    eliminated rows that mention it, then back-substitutes in reverse.
    The rows of a loop or a machine are substochastic, so a vanishing
    pivot means some node is never absorbed: that raises
    ZeroDivisionError.
    """
    rows = {s: dict(r) for s, r in rows.items()}
    users: dict = {s: set() for s in rows}  # uneliminated key -> rows mentioning it
    for s, r in rows.items():
        for k in r:
            if k in users and k != s:
                users[k].add(s)
    for s, r in rows.items():
        pivot = ONE - r.pop(s, 0)
        if pivot == 0:
            raise ZeroDivisionError("singular system: absorption is not almost sure")
        if pivot != 1:
            for k in r:
                r[k] /= pivot
        for u in users.pop(s):
            if u not in users:  # eliminated already: back-substitution covers it
                continue
            ru = rows[u]
            c = ru.pop(s)
            for k, w in r.items():
                ru[k] = ru.get(k, 0) + c * w
                if k in users:
                    users[k].add(u)
    for s in reversed(list(rows)):
        r = rows[s]
        for k in [k for k in r if k in rows]:
            c = r.pop(k)
            for a, w in rows[k].items():
                r[a] = r.get(a, 0) + c * w
    return rows
