"""Seeded instance generators for the wsc benchmark, one per workload.

Every generator is a pure function of its seed.  It returns Instance
records holding the rendered `.wsc` statements the engine will parse,
the verdict the instance was built to have, and what the independent
checks in checks.py need to confirm that verdict without the engine.

Print a workload's inputs with

    python3 bench/generators.py chains --seed 1
"""

from __future__ import annotations

import argparse
import random
import re
from dataclasses import dataclass, field

# A sat chain's solution: every chain variable is the infinite f tree.
F_OMEGA = "rec X. f(X)"


@dataclass(frozen=True)
class Instance:
    """One benchmark input.

    lines    the `.wsc` statements, one atom each, in the order the
             engine receives them (assertion order on chains-incremental)
    expect   the verdict of the whole conjunction, by construction
    size     the atom count, the x axis of the growth fit
    witness  for a sat instance (or the sat prefixes of an incremental
             one): term texts that satisfy it, taken from its definition
    """

    name: str
    lines: tuple[str, ...]
    expect: str
    witness: dict[str, str] | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.lines)

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


# --- chains and chains-incremental --------------------------------------------

# Copies per pool round.  Sorted by time, a round's 25 instances put the
# five C(6) at ranks 10-14 and the three C(8) at ranks 21-23, so the 50th
# and 90th percentiles of per-verdict time fall in the middle of one
# size's samples, never on the edge between two sizes, whatever the
# number of rounds.  Four rounds give the 100 verdicts a 90th percentile
# needs in about 15 s.
CHAIN_SAT_COPIES = {3: 2, 4: 3, 5: 2, 6: 5, 7: 6, 8: 3, 9: 1}
CHAIN_UNSAT_SIZES = (5, 7, 9)
# Incremental sat copies per round, plus one unsat instance per size.
# Sorted by cost, a round's costly asserts come in steps: the first
# subsumption of each C(4) makes about 1,000 determinations() calls, the
# next step (in C(6) and C(7)) about 1,500.  The twelve cheap C(3) put the
# 90th percentile inside the 1,000 step for every seed tried, not on the
# edge between the two.
INCREMENTAL_SAT_COPIES = {3: 12, 4: 5, 5: 2, 6: 2, 7: 2}


def chain_atoms(n: int, names: list[str]) -> list[str]:
    """C(n) = {x_i <= x_(i+1) : i < n-1} + {x_i = f(x_((i+1) mod n))}."""
    out = [f"{names[i]} <= {names[i + 1]}" for i in range(n - 1)]
    out += [f"{names[i]} = f({names[(i + 1) % n]})" for i in range(n)]
    return out


def _chain_instance(rng: random.Random, n: int, unsat: bool, incremental: bool,
                    tag: str) -> Instance:
    names = [f"x{j}" for j in rng.sample(range(10 * n), n)]
    lines = chain_atoms(n, names)
    if incremental:
        # The chain's own order, x_i = f(x_(i+1)) then x_i <= x_(i+1),
        # rotated to start at a seeded i.  Fully shuffled orders made an
        # instance's incremental cost vary by 50% from seed to seed;
        # rotations by 2%.  The work still spreads over many asserts.
        start = rng.randrange(n)
        lines = []
        for i in ((start + j) % n for j in range(n)):
            lines.append(f"{names[i]} = f({names[(i + 1) % n]})")
            if i < n - 1:
                lines.append(f"{names[i]} <= {names[i + 1]}")
    else:
        rng.shuffle(lines)
    witness = {x: F_OMEGA for x in names}
    if unsat:
        # An f-rooted bound over a() on some x_k: x_k = f(x_(k+1)) makes
        # x_(k+1) <= a(), which clashes with x_(k+1) = f(...).
        k = rng.randrange(n)
        y = f"y{rng.randrange(100)}"
        bound, base = f"{names[k]} <= f({y})", f"{y} = a()"
        if not incremental:
            lines.insert(rng.randrange(len(lines) + 1), bound)
            lines.insert(rng.randrange(len(lines) + 1), base)
        else:
            # y = a() first and the bound last: every earlier prefix is
            # sat, with y = a(), and only the full conjunction is unsat.
            lines = [base] + lines + [bound]
        witness[y] = "a()"
    kind = "unsat" if unsat else "sat"
    return Instance(f"C{n}-{kind}-{tag}", tuple(lines), kind,
                    witness if incremental or not unsat else None)


def chains(seed: int) -> list[Instance]:
    """Batch chain instances: CHAIN_SAT_COPIES and CHAIN_UNSAT_SIZES."""
    rng = random.Random(f"chains-{seed}")
    out = []
    for n, copies in CHAIN_SAT_COPIES.items():
        out += [_chain_instance(rng, n, False, False, str(c)) for c in range(copies)]
    out += [_chain_instance(rng, n, True, False, "0") for n in CHAIN_UNSAT_SIZES]
    return out


def chains_incremental(seed: int) -> list[Instance]:
    """C(n) in seeded orders and its unsat variant, asserted one atom at
    a time."""
    rng = random.Random(f"chains-incremental-{seed}")
    out = []
    for n, copies in INCREMENTAL_SAT_COPIES.items():
        out += [_chain_instance(rng, n, False, True, str(c)) for c in range(copies)]
        out.append(_chain_instance(rng, n, True, True, "0"))
    return out


# --- unify ------------------------------------------------------------------------

# Five size classes of about 15, 30, 60, 120 and 240 atoms, five
# instances each: two sat cycles, an unsat cycle, a sat and an unsat
# tree.  25 instances put the percentiles mid-class (see CHAIN_SAT_COPIES).
UNIFY_CYCLE_SIZES = (12, 24, 48, 96, 192)
UNIFY_TREE_DEPTHS = (2, 3, 4, 5, 6)


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{j}" for j in rng.sample(range(10 * n), n)]


# The unify instances keep their atoms in construction order: with a
# shuffled order the step at which the engine meets an unsat instance's
# clash varied from 10% to 100% of the sat instance's steps from seed
# to seed, and so did the run time.  The seed still picks the names,
# the chords and the attachment point.

def _cycle_instance(rng: random.Random, n: int, unsat: bool, tag: str = "0") -> Instance:
    """An f-cycle of length n with n/4 seeded chords x_i = x_j.  The
    unsat variant hangs u = f(w), w = g(w, w) off the cycle through
    u = x_k, so the clash needs Elim and then Decom to surface."""
    x = _names(rng, "x", n)
    lines = [f"{x[i]} = f({x[(i + 1) % n]})" for i in range(n)]
    for i in sorted(rng.sample(range(n), n // 4)):
        lines.append(f"{x[i]} = {x[(i + rng.randrange(1, n)) % n]}")
    if unsat:
        lines += [f"u = {x[rng.randrange(n)]}", "u = f(w)", "w = g(w, w)"]
    kind = "unsat" if unsat else "sat"
    return Instance(f"cycle{n}-{kind}-{tag}", tuple(lines), kind)


def _tree_instance(rng: random.Random, depth: int, unsat: bool) -> Instance:
    """Two complete g-trees of the given depth whose leaves point back at
    their roots through f, joined at the roots.  Decom walks down both
    trees in step; the unsat variant has a() at the last leaf of the
    second tree, which Decom reaches last."""
    size = 2 ** (depth + 1) - 1
    x, y = _names(rng, "p", size), _names(rng, "q", size)
    lines = [f"{x[0]} = {y[0]}"]
    for t in range(size):
        for v in (x, y):
            if t < size // 2:
                lines.append(f"{v[t]} = g({v[2 * t + 1]}, {v[2 * t + 2]})")
            elif unsat and v is y and t == size - 1:
                lines.append(f"{v[t]} = a()")
            else:
                lines.append(f"{v[t]} = f({v[0]})")
    kind = "unsat" if unsat else "sat"
    return Instance(f"tree{depth}-{kind}", tuple(lines), kind)


def unify(seed: int) -> list[Instance]:
    """Equation-only instances: cycles with chords and joined g-trees."""
    rng = random.Random(f"unify-{seed}")
    out = []
    for n, d in zip(UNIFY_CYCLE_SIZES, UNIFY_TREE_DEPTHS):
        out += [_cycle_instance(rng, n, False), _cycle_instance(rng, n, False, "1"),
                _cycle_instance(rng, n, True),
                _tree_instance(rng, d, False), _tree_instance(rng, d, True)]
    return out


# --- oracle-check -----------------------------------------------------------------

# The criterion-3 parameters: 6 variables, the symbols a/0, f/1, g/2,
# and 1 to 12 atoms of the four kinds.
ORACLE_VARS = 6
ORACLE_SYMBOLS = (("a", 0), ("f", 1), ("g", 2))
ORACLE_MAX_ATOMS = 12
ORACLE_POOL = 35
# Random instances have a heavy-tailed cost: a 96-instance pool drawn
# afresh per seed took from 4.7 s to 10.8 s to check.  So the conjunctions
# are one fixed draw, and the seed only renames the variables (keeping
# their sorted order, which the engine and the oracles iterate in).
ORACLE_DRAW = "criterion-3"


def _random_atom(rng: random.Random) -> str:
    names = [f"x{i}" for i in range(ORACLE_VARS)]
    kind = rng.choice(("eq", "eqapp", "sub", "subapp"))
    lhs = rng.choice(names)
    op = "=" if kind.startswith("eq") else "<="
    if kind in ("eq", "sub"):
        return f"{lhs} {op} {rng.choice(names)}"
    sym, arity = rng.choice(ORACLE_SYMBOLS)
    args = ", ".join(rng.choice(names) for _ in range(arity))
    return f"{lhs} {op} {sym}({args})"


def oracle_check(seed: int) -> list[Instance]:
    """Random flat conjunctions; their verdicts come from the oracles.
    Atom counts cycle through 1..12 instead of being drawn."""
    draw = random.Random(ORACLE_DRAW)
    rng = random.Random(f"oracle-check-{seed}")
    out = []
    for i in range(ORACLE_POOL):
        count = 1 + i % ORACLE_MAX_ATOMS
        lines = [_random_atom(draw) for _ in range(count)]
        names = sorted(rng.sample(range(100, 1000), ORACLE_VARS))
        lines = [re.sub(r"x(\d)", lambda m: f"v{names[int(m.group(1))]}", line)
                 for line in lines]
        out.append(Instance(f"rand{count}-{i}", tuple(lines), "oracle"))
    return out


GENERATORS = {
    "chains": chains,
    "chains-incremental": chains_incremental,
    "unify": unify,
    "oracle-check": oracle_check,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    for inst in GENERATORS[args.workload](args.seed):
        print(f"# {inst.name}  expect: {inst.expect}")
        print(inst.text)


if __name__ == "__main__":
    main()
