"""Finite flip machines: graphs of fair flips that end in outcomes.

An interior node consumes one fair flip and routes to its heads/tails
successors; a leaf emits an outcome.  A machine comes from the line format
(load_machine) or from a distribution (sampler.build_machine, which reads
the sampler's reachable configurations).  Cycles are expected: a machine
need not be a tree, only absorbing.

Analysis solves the absorption equations exactly over the rationals:

    P_o(leaf)      = [leaf outcome = o]
    P_o(interior)  = (P_o(heads) + P_o(tails)) / 2
    E(leaf)        = 0
    E(interior)    = 1 + (E(heads) + E(tails)) / 2

with the sparse elimination of linear.absorb, the solver the loop fixpoints
of wp.py use too; each row has at most two successors, which keeps the
elimination sparse.  A vanishing pivot means some interior node is never
absorbed; the machine is rejected loudly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MachineAnalysisError, MachineFormatError
from .linear import absorb

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class MachineNode:
    id: int
    kind: str  # "interior" | "leaf"
    heads: Optional[int] = None
    tails: Optional[int] = None
    outcome: Optional[int] = None  # 1-based
    label: str = ""

    def __post_init__(self):
        if self.kind == "interior":
            if self.heads is None or self.tails is None:
                raise MachineFormatError(f"interior node {self.id} missing successors")
        elif self.kind == "leaf":
            if self.outcome is None or self.outcome < 1:
                raise MachineFormatError(f"leaf node {self.id} needs a 1-based outcome")
        else:
            raise MachineFormatError(f"node {self.id} has unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Machine:
    nodes: tuple[MachineNode, ...]
    root: int
    outcomes: int

    def __post_init__(self):
        by_id = {}
        for node in self.nodes:
            if node.id in by_id:
                raise MachineFormatError(f"duplicate node id {node.id}")
            by_id[node.id] = node
        if self.root not in by_id:
            raise MachineFormatError(f"root {self.root} is not a node")
        for node in self.nodes:
            if node.kind == "interior":
                for succ in (node.heads, node.tails):
                    if succ not in by_id:
                        raise MachineFormatError(
                            f"node {node.id} points at missing node {succ}"
                        )
            else:
                if node.outcome > self.outcomes:
                    raise MachineFormatError(
                        f"leaf outcome {node.outcome} exceeds declared "
                        f"outcome count {self.outcomes}"
                    )
        object.__setattr__(self, "_by_id", by_id)

    def node(self, node_id: int) -> MachineNode:
        return self._by_id[node_id]

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class MachineAnalysis:
    outcome_prob: tuple[Fraction, ...]  # index i holds P(outcome i+1)
    expected_flips: Fraction
    node_count: int

    def probability(self, outcome: int) -> Fraction:
        return self.outcome_prob[outcome - 1]


def analyze(m: Machine) -> MachineAnalysis:
    """Exact outcome probabilities and expected flips from the root."""
    # interior nodes are keyed by their int id; the absorbing keys are
    # ("leaf", outcome) and "flips", which counts one flip per visit;
    # every row is over 2
    rows = {}
    for node in m.nodes:
        if node.kind == "interior":
            row = {"flips": 2}
            rows[node.id] = (2, row)
            for succ_id in (node.heads, node.tails):
                succ = m.node(succ_id)
                key = succ_id if succ.kind == "interior" else ("leaf", succ.outcome)
                row[key] = row.get(key, 0) + 1
    root = m.node(m.root)
    if root.kind == "leaf":
        solved = {("leaf", root.outcome): ONE}
    else:
        try:
            d, solved = absorb(rows)
        except ZeroDivisionError as exc:
            raise MachineAnalysisError(str(exc)) from None
        solved = {k: Fraction(c, d) for k, c in solved[m.root].items()}
    probs = tuple(solved.get(("leaf", o), ZERO) for o in range(1, m.outcomes + 1))
    if sum(probs, ZERO) != ONE:
        raise MachineAnalysisError(
            f"outcome probabilities sum to {sum(probs, ZERO)}, not 1"
        )
    return MachineAnalysis(probs, solved.get("flips", ZERO), m.size)


def load_machine(text: str) -> Machine:
    """Parse the line-oriented machine format.

    node <id> interior <heads-id> <tails-id> [label...]
    node <id> leaf <outcome>
    root <id>
    outcomes <N>

    Blank lines and lines starting with '#' are ignored.  Nodes that cannot
    be reached from the root are dropped with a warning.
    """
    nodes: list[MachineNode] = []
    root: Optional[int] = None
    outcomes: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "root" and len(parts) == 2:
                root = int(parts[1])
            elif parts[0] == "outcomes" and len(parts) == 2:
                outcomes = int(parts[1])
            elif parts[0] == "node" and parts[2] == "leaf" and len(parts) == 4:
                nodes.append(MachineNode(int(parts[1]), "leaf", outcome=int(parts[3])))
            elif parts[0] == "node" and parts[2] == "interior" and len(parts) >= 5:
                nodes.append(MachineNode(
                    int(parts[1]), "interior",
                    heads=int(parts[3]), tails=int(parts[4]),
                    label=" ".join(parts[5:]),
                ))
            else:
                raise ValueError("unrecognised line")
        except (ValueError, IndexError) as exc:
            raise MachineFormatError(f"line {lineno}: {exc}: {raw!r}") from None
    if root is None:
        raise MachineFormatError("missing 'root' line")
    if outcomes is None:
        raise MachineFormatError("missing 'outcomes' line")
    machine = Machine(tuple(nodes), root=root, outcomes=outcomes)

    reachable = set()
    todo = [root]
    while todo:
        node_id = todo.pop()
        if node_id in reachable:
            continue
        reachable.add(node_id)
        node = machine.node(node_id)
        if node.kind == "interior":
            todo.extend((node.heads, node.tails))
    if len(reachable) != machine.size:
        dropped = sorted(n.id for n in machine.nodes if n.id not in reachable)
        warnings.warn(f"pruning unreachable machine nodes {dropped}")
        machine = Machine(
            tuple(n for n in machine.nodes if n.id in reachable),
            root=root, outcomes=outcomes,
        )
    return machine


def machine_to_text(m: Machine) -> str:
    lines = [f"outcomes {m.outcomes}", f"root {m.root}"]
    for node in m.nodes:
        if node.kind == "leaf":
            lines.append(f"node {node.id} leaf {node.outcome}")
        else:
            label = f" {node.label}" if node.label else ""
            lines.append(f"node {node.id} interior {node.heads} {node.tails}{label}")
    return "\n".join(lines) + "\n"


def to_dot(m: Machine) -> str:
    """Deterministic GraphViz rendering: interior nodes show their window
    label, edges carry H/T, leaves show the outcome."""
    lines = [
        "digraph flip_machine {",
        "  rankdir=TB;",
        "  node [fontname=\"Helvetica\"];",
    ]
    for node in sorted(m.nodes, key=lambda n: n.id):
        if node.kind == "interior":
            label = node.label or f"n{node.id}"
            lines.append(f"  n{node.id} [shape=box, label=\"{label}\"];")
        else:
            lines.append(f"  n{node.id} [shape=circle, label=\"{node.outcome}\"];")
    for node in sorted(m.nodes, key=lambda n: n.id):
        if node.kind == "interior":
            lines.append(f"  n{node.id} -> n{node.heads} [label=\"H\"];")
            lines.append(f"  n{node.id} -> n{node.tails} [label=\"T\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
