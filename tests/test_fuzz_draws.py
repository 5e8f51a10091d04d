"""Golden draws of the fuzz generators: `tests/golden/fuzz_draws.txt`.

A fuzz report prints only counts and falsified instances, so a generator
that drew its random numbers in another order would still pass every
report test.  This file pins the draws themselves.  Each line is
tab-separated: what was drawn and from which seed, the printed formula (or
the error the draw raised), and the `random()` the generator's RNG returns
next, which shows that the draw consumed exactly the numbers it should.

Instances are drawn the way `fuzz_soundness` draws them: index ix of seed
s gets `random.Random(f"{s}:fuzz:{ix}")`, and schema `names[ix % len(names)]`.

Regenerate (only when the draws are meant to change):

    PYTHONPATH=src python tests/test_fuzz_draws.py
"""

import random
from fractions import Fraction
from pathlib import Path

import pckfo.axioms as ax
from pckfo.errors import PckfoError
from pckfo.oracle import (
    DEFAULT_GRID, FUZZ_AXIOMS, random_axiom_instance, random_formula,
)
from pckfo.parser import print_formula

GOLDEN = Path(__file__).resolve().parent / "golden" / "fuzz_draws.txt"
AGENT_SETS = (("a",), ("a", "b"), ("a", "b", "c"))
GRIDS = (DEFAULT_GRID, (Fraction(1, 3), Fraction(2, 3), Fraction(1)))
NAMES = FUZZ_AXIOMS + ax.CLASS_AXIOMS
SEEDS = (0, 7)
VARS = ((), ("x",), ("x", "y"))
DRAWS_PER_SHAPE = 8


def _grid_text(grid) -> str:
    return ",".join(str(w) for w in grid)


def draw_lines() -> list:
    out = []
    for agents in AGENT_SETS:
        for grid in GRIDS:
            for seed in SEEDS:
                for ix in range(2 * len(NAMES)):
                    name = NAMES[ix % len(NAMES)]
                    rng = random.Random(f"{seed}:fuzz:{ix}")
                    try:
                        text = print_formula(random_axiom_instance(
                            name, rng, agents, grid).formula)
                    except PckfoError as exc:
                        text = f"{type(exc).__name__}: {exc}"
                    out.append(f"instance {','.join(agents)} {_grid_text(grid)}"
                               f" {seed}:fuzz:{ix} {name}\t{text}"
                               f"\t{rng.random()!r}")
        for depth in range(5):
            for vars_allowed in VARS:
                tag = f"{','.join(agents)}:{depth}:{','.join(vars_allowed)}"
                rng = random.Random(f"fuzz-draws:{tag}")
                for k in range(DRAWS_PER_SHAPE):
                    f = random_formula(rng, agents, depth, vars_allowed)
                    out.append(f"formula {tag} {k}\t{print_formula(f)}"
                               f"\t{rng.random()!r}")
    return out


def test_fuzz_draws_agree_with_golden():
    want = GOLDEN.read_text().splitlines()
    got = draw_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    lines = draw_lines()
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} draws written to {GOLDEN}")
