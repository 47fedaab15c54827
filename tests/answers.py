"""Dump the toolkit's answers on a fixed corpus, one record a line, so that
two versions of the code can be compared with diff.

    PYTHONPATH=src python tests/answers.py --count 300 > answers.txt

The corpus is the loop-free and loop corpora of tests/helpers.py plus
`count` seeded random programs and `count` seeded random loops over
helpers.random_space().  The records are:

- each post built from an expression over the random space, or the error;
- per program and post, in both undefined modes: the pre-expectation and
  the undefined states, or the error's type and message;
- check_equal and check_refines of each program against the next one on
  the same space, with the default probes, in both modes;
- check_variant of each random loop for several variants, bounds and
  epsilons.

Every record is computed independently, so an error ends only its own
record.  The script never fails on an answer: it only prints them.
"""

import argparse
import random
import sys
from fractions import Fraction

import helpers
from pgclkit import (
    Expectation,
    ProbeFamily,
    VariantSpec,
    WpConfig,
    check_equal,
    check_refines,
    check_variant,
    constant,
    from_expr,
    indicator,
    parse_expression,
    wp,
)

MODES = (("raise", None), ("mask", WpConfig(undefined="mask")))

POST_EXPRS = ("x", "y + 1/2", "x = y", "1/x", "2 - 2*x")
VARIANTS = ("x", "y", "2 - x", "x + y", "1/x", "2/x", "x/2", "3", "2*x - 1")
BOUNDS = (1, 3)
EPSILONS = (Fraction(1, 3), Fraction(1, 2), Fraction(1))
LOOP_GUARDS = ("x > 0", "x < 2", "y = 1", "x = y", "1/x = 1", "x + y > 1")


def answer(fn) -> str:
    """fn()'s result as one line, or the type and message of its error."""
    try:
        return str(fn())
    except Exception as exc:  # a record, not a crash: the dump goes on
        return f"{type(exc).__name__}: {exc}".replace("\n", " | ")


def pre_of(prog, post, space, cfg) -> str:
    result = wp(prog, post, space, cfg)
    return (" ".join(map(str, result.pre.values))
            + " undefined=" + ",".join(map(str, result.undefined_states)))


def posts_for(space, rng) -> list:
    """Five posts: the constant 1, the indicators of the first and the
    last state, and two seeded random ones."""
    return [constant(space, 1), indicator(space, 0), indicator(space, space.size - 1)] + [
        Expectation(space, tuple(Fraction(rng.randrange(0, 9), 4) for _ in range(space.size)),
                    label=f"random post {k}") for k in range(2)]


def dump(count: int, out) -> None:
    rng = random.Random(2026)
    space = helpers.random_space()

    def emit(key, value):
        out.write(f"{key}\t{value}\n")

    for text in POST_EXPRS:
        emit(f"post {text}", answer(
            lambda: from_expr(space, parse_expression(text, space)).values))

    programs = [(f"corpus {k}", p, s)
                for k, (p, s) in enumerate(helpers.corpus() + helpers.loop_corpus())]
    gen = random.Random(20261018)
    for k in range(count):
        text = helpers.random_program(gen)
        programs.append((f"random {k}: {text}", helpers.prog(text, space), space))

    for name, prog, sp in programs:
        for post in posts_for(sp, rng):
            for mode, cfg in MODES:
                emit(f"wp {name} | {post} | {mode}",
                     answer(lambda: pre_of(prog, post, sp, cfg)))

    for (a_name, a, sp), (b_name, b, sp_b) in zip(programs, programs[1:]):
        if sp_b != sp:
            continue
        for mode, cfg in MODES:
            for check in (check_equal, check_refines):
                emit(f"{check.__name__} {a_name} | {b_name} | {mode}", answer(
                    lambda: check(a, b, ProbeFamily.default(sp, (a, b)), sp, cfg)))

    gen = random.Random(20261019)
    for k in range(count):
        text = (f"WHILE {gen.choice(LOOP_GUARDS)} DO "
                f"{helpers.random_program(gen, depth=2, loops=1)} OD")
        loop = helpers.prog(text, space)
        for variant in VARIANTS:
            expr = parse_expression(variant, space)
            for bound in BOUNDS:
                for eps in EPSILONS:
                    emit(f"check_variant loop {k}: {text} | {variant} | {bound} | {eps}",
                         answer(lambda: check_variant(
                             loop, VariantSpec(expr, bound, eps), space)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=300,
                        help="random programs and random loops (default 300)")
    args = parser.parse_args(argv)
    dump(args.count, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
