"""Text format, random instance generator, and the `wsc` command line.

The input format is line-oriented: one atom per statement, statements
separated by newlines or `.`, comments from `#` to end of line.  Atoms:

    x = y           equality of variables
    x = f(y, z)     equality with an applied constructor (always
                    parenthesized, even for constants: x = a())
    x <= y          x is subsumed by y
    x <= f(y, z)    applied form of subsumption

A `# expect: sat` or `# expect: unsat` comment records the intended
verdict; the solve and corpus commands verify it when present.

Intersection variables (`x&y`) appear in solver output; they are only
accepted on input under allow_intersection=True, which exists so that
printed stores can be read back.

Exit codes of run_cli: 0 satisfiable (or command succeeded), 1
unsatisfiable, 2 usage or parse error, 3 a recorded expectation or an
independent oracle disagrees with the engine.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .constraints import Atom, Eq, EqApp, Store, Sub, SubApp, Var, format_atom, var
from .engine import Solver, SolveResult, Verdict, solve
from .oracles import NaiveResult, naive_solve, rational_unify, witness_search
from .terms import Symbol


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class ProblemFile:
    name: str
    atoms: tuple[Atom, ...]
    expect: Optional[str]  # "sat", "unsat", or None


_TOKEN = re.compile(r"[ \t]*(<=|[A-Za-z_][A-Za-z0-9_]*|[=()&,.])")


def _tokenize_line(text: str, lineno: int) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs for one source line."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip(" \t")
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", lineno, col)
        out.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return out


def parse(text: str, *, name: str = "<input>", allow_intersection: bool = False) -> ProblemFile:
    """Parse constraint text into an ordered atom list plus the
    optional expected verdict."""
    atoms: list[Atom] = []
    expect: Optional[str] = None
    arities: dict[str, tuple[int, int, int]] = {}  # name -> (arity, line, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        directive = comment.strip()
        if directive.startswith("expect:"):
            value = directive[len("expect:"):].strip()
            if value not in ("sat", "unsat"):
                raise ParseError(f"expect directive must say sat or unsat, not {value!r}",
                                 lineno, len(line) + 2)
            if expect is not None and expect != value:
                raise ParseError("conflicting expect directives", lineno, len(line) + 2)
            expect = value
        tokens = _tokenize_line(line, lineno)
        group: list[tuple[str, int]] = []
        for tok in tokens + [(".", len(line) + 1)]:
            if tok[0] == ".":
                if group:
                    atoms.append(_parse_atom(group, lineno, arities, allow_intersection))
                    group = []
            else:
                group.append(tok)
    return ProblemFile(name=name, atoms=tuple(atoms), expect=expect)


def _parse_atom(
    tokens: list[tuple[str, int]],
    lineno: int,
    arities: dict[str, tuple[int, int, int]],
    allow_intersection: bool,
) -> Atom:
    pos = 0

    def peek(offset: int = 0) -> Optional[str]:
        i = pos + offset
        return tokens[i][0] if i < len(tokens) else None

    def take(expected: Optional[str] = None) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            last_col = tokens[-1][1] + len(tokens[-1][0]) if tokens else 1
            raise ParseError(
                f"statement ends early{f', expected {expected!r}' if expected else ''}",
                lineno, last_col)
        tok = tokens[pos]
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected!r}, found {tok[0]!r}", lineno, tok[1])
        pos += 1
        return tok

    def is_name(s: Optional[str]) -> bool:
        return s is not None and (s[0].isalpha() or s[0] == "_")

    def parse_var() -> Var:
        names = []
        tok, col = take()
        if not is_name(tok):
            raise ParseError(f"expected a variable, found {tok!r}", lineno, col)
        names.append(tok)
        while peek() == "&":
            amp_col = take("&")[1]
            if not allow_intersection:
                raise ParseError("intersection variables are not allowed in input",
                                 lineno, amp_col)
            tok, col = take()
            if not is_name(tok):
                raise ParseError(f"expected a variable, found {tok!r}", lineno, col)
            names.append(tok)
        return var(*names)

    def parse_application() -> tuple[Symbol, tuple[Var, ...]]:
        fname, fcol = take()
        take("(")
        args: list[Var] = []
        if peek() != ")":
            args.append(parse_var())
            while peek() == ",":
                take(",")
                args.append(parse_var())
        take(")")
        seen = arities.get(fname)
        if seen is not None and seen[0] != len(args):
            raise ParseError(
                f"symbol {fname} takes {seen[0]} argument(s) at line {seen[1]}, "
                f"col {seen[2]}, but {len(args)} here", lineno, fcol)
        if seen is None:
            arities[fname] = (len(args), lineno, fcol)
        return Symbol(fname, len(args)), tuple(args)

    lhs = parse_var()
    op, op_col = take()
    if op not in ("=", "<="):
        raise ParseError(f"expected '=' or '<=', found {op!r}", lineno, op_col)
    applied = is_name(peek()) and peek(1) == "("
    if applied:
        sym, args = parse_application()
        atom: Atom = EqApp(lhs, sym, args) if op == "=" else SubApp(lhs, sym, args)
    else:
        rhs = parse_var()
        atom = Eq(lhs, rhs) if op == "=" else Sub(lhs, rhs)
    if pos < len(tokens):
        raise ParseError(f"unexpected {tokens[pos][0]!r} after statement",
                         lineno, tokens[pos][1])
    return atom


# --- random instances ---------------------------------------------------------


SYMBOL_POOL = (Symbol("a", 0), Symbol("f", 1), Symbol("g", 2))

ATOM_KINDS = ("eq", "eqapp", "sub", "subapp")


def random_atoms(
    rng: random.Random,
    n_vars: int = 5,
    n_symbols: int = 3,
    n_atoms: int = 8,
    kinds: Sequence[str] = ATOM_KINDS,
) -> list[Atom]:
    """A random flat conjunction: up to n_atoms atoms of the given
    kinds over x0..x{n_vars-1} and a prefix of a/0, f/1, g/2."""
    if n_vars < 1 or n_atoms < 1:
        raise ValueError("n_vars and n_atoms must be at least 1")
    if not 1 <= n_symbols <= len(SYMBOL_POOL):
        raise ValueError(f"n_symbols must be in 1..{len(SYMBOL_POOL)}")
    unknown = set(kinds) - set(ATOM_KINDS)
    if unknown or not kinds:
        raise ValueError(f"kinds must be a non-empty subset of {ATOM_KINDS}")
    names = [f"x{i}" for i in range(n_vars)]
    syms = SYMBOL_POOL[:n_symbols]
    out: list[Atom] = []
    for _ in range(rng.randint(1, n_atoms)):
        kind = rng.choice(list(kinds))
        a = var(rng.choice(names))
        if kind in ("eq", "sub"):
            b = var(rng.choice(names))
            out.append(Eq(a, b) if kind == "eq" else Sub(a, b))
        else:
            sym = rng.choice(syms)
            args = tuple(var(rng.choice(names)) for _ in range(sym.arity))
            out.append(EqApp(a, sym, args) if kind == "eqapp" else SubApp(a, sym, args))
    return out


# --- result reporting ------------------------------------------------------------


def solved_classes(store: Store) -> list[dict]:
    """Variable classes implied by the store's equations (including the
    solved ones) and its elimination record, each with the constructor
    the class is bound to, if any."""
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        parent.setdefault(a, a)
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    names = set(store.base_vars()) | set(store.elim) | set(store.elim.values())
    for aid, a in store.atoms():
        if isinstance(a, Eq):
            parent[find(a.lhs.parts[0])] = find(a.rhs.parts[0])
    for gone, kept in store.elim.items():
        parent[find(gone)] = find(kept)

    classes: dict[str, dict] = {}
    for n in sorted(names):
        classes.setdefault(find(n), {"vars": [], "constructor": None})["vars"].append(n)
    for aid, a in sorted(store.atoms()):
        if isinstance(a, EqApp) and a.lhs.is_base:
            cls = classes.get(find(a.lhs.parts[0]))
            if cls is not None and cls["constructor"] is None:
                cls["constructor"] = str(a.sym)
    return sorted(classes.values(), key=lambda c: c["vars"][0])


def report(result: SolveResult, *, include_trace: bool = False) -> dict:
    """JSON-ready summary of a solver run."""
    data = {
        "status": result.verdict.value,
        "steps": result.steps,
        "atoms": [format_atom(a) for _, a in result.store.atoms()],
        "classes": solved_classes(result.store),
    }
    if include_trace:
        data["trace"] = [str(e) for e in result.trace]
    return data


# --- oracle cross-checking ---------------------------------------------------------


def oracle_check(atoms: Sequence[Atom], verdict: Verdict) -> Optional[str]:
    """Compare a verdict against the independent oracles; a message
    describes the first disagreement, None means all consistent."""
    if naive_solve(atoms, budget=300) == NaiveResult.UNSAT and verdict == Verdict.SAT:
        return "naive rewriting refutes an input judged satisfiable"
    if not any(isinstance(a, (Sub, SubApp)) for a in atoms):
        if rational_unify(atoms) != verdict:
            return "rational-tree unification disagrees on an equation-only input"
    if verdict == Verdict.UNSAT:
        found = witness_search(atoms, max_depth=2, max_holes=1, budget=20_000)
        if found.witness is not None:
            return "witness search satisfied an input judged unsatisfiable"
    return None


# --- command line ---------------------------------------------------------------------


def _read_source(path: str) -> str:
    """The text of the file at path, or of stdin for "-", as strict UTF-8."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_result(result: SolveResult, *, as_json: bool, with_trace: bool) -> None:
    if as_json:
        print(json.dumps(report(result, include_trace=with_trace), indent=2, sort_keys=True))
        return
    if with_trace:
        for entry in result.trace:
            print(str(entry))
    print(f"{result.verdict.value} after {result.steps} step(s)")
    if result.verdict == Verdict.SAT:
        for _, a in result.store.atoms():
            print(f"  {format_atom(a)}")


def _solve_command(args: argparse.Namespace) -> int:
    name = "<stdin>" if args.file == "-" else args.file
    try:
        text = _read_source(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {name}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 2
    try:
        problem = parse(text, name=name)
    except ParseError as exc:
        print(f"{name}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 2
    if args.incremental:
        solver = Solver()
        for a in problem.atoms:
            solver.assert_atom(a)
        result = SolveResult(solver.verdict, solver.store, solver.step_count,
                             list(solver.trace), solver)
    else:
        result = solve(problem.atoms)
    _print_result(result, as_json=args.json, with_trace=args.trace)
    if problem.expect is not None and problem.expect != result.verdict.value:
        print(f"error: verdict {result.verdict.value} but file expects {problem.expect}",
              file=sys.stderr)
        return 3
    if args.oracle_check:
        msg = oracle_check(problem.atoms, result.verdict)
        if msg is not None:
            print(f"error: {msg}", file=sys.stderr)
            return 3
    return 0 if result.verdict == Verdict.SAT else 1


def _random_command(args: argparse.Namespace) -> int:
    if args.count < 0:
        print("error: --count must not be negative", file=sys.stderr)
        return 2
    kinds = ATOM_KINDS if not args.no_sub else ("eq", "eqapp")
    for i in range(args.count):
        rng = random.Random(f"{args.seed}-{i}")
        try:
            atoms = random_atoms(rng, n_vars=args.vars, n_symbols=args.symbols,
                                 n_atoms=args.atoms, kinds=kinds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = solve(atoms)
        print(f"{args.seed}-{i}: {result.verdict.value} after {result.steps} step(s), "
              f"{len(atoms)} atom(s)")
        if args.oracle_check:
            msg = oracle_check(atoms, result.verdict)
            if msg is not None:
                for a in atoms:
                    print(f"  {format_atom(a)}", file=sys.stderr)
                print(f"error: {msg}", file=sys.stderr)
                return 3
    return 0


def corpus_problems() -> list[ProblemFile]:
    """The packaged example constraints, parsed, sorted by file name."""
    out = []
    root = resources.files("wsc") / "corpus"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".wsc"):
            out.append(parse(entry.read_text(encoding="utf-8"), name=entry.name))
    return out


def _corpus_command(args: argparse.Namespace) -> int:
    failures = 0
    for problem in corpus_problems():
        result = solve(problem.atoms)
        ok = problem.expect is None or problem.expect == result.verdict.value
        mark = "ok" if ok else "MISMATCH"
        failures += 0 if ok else 1
        expected = problem.expect or "?"
        print(f"{problem.name}: {result.verdict.value} after {result.steps} step(s) "
              f"[expected {expected}] {mark}")
    return 3 if failures else 0


def run_cli(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="wsc",
        description="Decide conjunctions of equations and weak subsumption "
                    "constraints over rational constructor trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a constraint file ('-' for stdin)")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("--trace", action="store_true", help="print every rule firing")
    p_solve.add_argument("--oracle-check", action="store_true",
                         help="cross-check the verdict against the oracles")
    p_solve.add_argument("--incremental", action="store_true",
                         help="assert atoms one at a time instead of batch solving")

    p_random = sub.add_parser("random", help="solve randomly generated instances")
    p_random.add_argument("--seed", default="0")
    p_random.add_argument("--count", type=int, default=10)
    p_random.add_argument("--vars", type=int, default=5)
    p_random.add_argument("--atoms", type=int, default=8)
    p_random.add_argument("--symbols", type=int, default=3)
    p_random.add_argument("--no-sub", action="store_true",
                          help="equations only (the unification fragment)")
    p_random.add_argument("--oracle-check", action="store_true",
                          help="cross-check every verdict against the oracles")

    sub.add_parser("corpus", help="solve the packaged examples and verify expectations")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "solve":
        return _solve_command(args)
    if args.command == "random":
        return _random_command(args)
    return _corpus_command(args)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
