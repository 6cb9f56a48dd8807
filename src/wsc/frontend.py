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

Intersection variables (`x&y`) appear in solver output only; in input
a `&` is a parse error.

Names are ASCII identifiers, and only spaces and tabs separate tokens.
One regular expression reads each statement, and each name's variable
is built once per parse.  A token scan runs only on a line that the
expression refuses or whose symbol arities conflict: it locates the
error and raises it, with its line and column.

Exit codes of run_cli: 0 satisfiable (or command succeeded), 1
unsatisfiable, 2 usage or parse error, 3 a recorded expectation or an
independent oracle disagrees with the engine.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import string
import sys
from dataclasses import dataclass
from importlib import resources
from typing import NoReturn, Optional, Sequence

from .constraints import Atom, Eq, EqApp, Store, Sub, SubApp, Var, format_atom, var
from .engine import Solver, SolveResult, Verdict, format_trace, solve, witness
from .oracles import NaiveResult, dump_witness, naive_solve, rational_unify, witness_search
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


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# One statement, or blanks only: a name, the operator, and a name or a
# symbol with its parenthesised arguments, with spaces and tabs between
# any two tokens, as _TOKEN reads them.
_STATEMENT = re.compile(
    rf"[ \t]*(?:({_NAME})[ \t]*(<?=)[ \t]*({_NAME})"
    rf"(?:[ \t]*\([ \t]*((?:{_NAME}(?:[ \t]*,[ \t]*{_NAME})*)?)[ \t]*\))?[ \t]*)?")
# A token of the format, or any other single character: a stray one.
_TOKEN = re.compile(rf"[ \t]*(<=|{_NAME}|[=()&,.]|[^ \t])")
_ONE_CHARACTER_TOKENS = frozenset("=()&,._" + string.ascii_letters)


class _Variables(dict):
    """The variable of each name read so far in one parse, each built
    once."""

    def __missing__(self, name: str) -> Var:
        v = self[name] = Var((name,))
        return v


def parse(text: str, *, name: str = "<input>") -> ProblemFile:
    """Parse constraint text into an ordered atom list plus the
    optional expected verdict.

    Each `.`-separated statement of a line is read by one match of
    _STATEMENT, and every statement of a line is matched before any of
    its atoms is built.  The token scan (_locate_error) reads only a
    line that _STATEMENT refuses or whose symbol arities conflict, to
    raise the ParseError that says where."""
    atoms: list[Atom] = []
    expect: Optional[str] = None
    symbols: dict[str, tuple[Symbol, int, int]] = {}  # name -> (symbol, line, col)
    variables = _Variables()

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
        matches = [_STATEMENT.fullmatch(s) for s in line.split(".")]
        if not all(matches):
            _locate_error(line, lineno, symbols)
        col = 1  # the column at which the statement starts
        for m in matches:
            lhs, op, rhs, args = m.groups()
            if lhs is not None:
                if args is None:
                    atoms.append((Eq if op == "=" else Sub)(variables[lhs], variables[rhs]))
                else:
                    names = [n.strip(" \t") for n in args.split(",")] if args else ()
                    seen = symbols.get(rhs)
                    if seen is None:
                        seen = symbols[rhs] = (Symbol(rhs, len(names)), lineno, col + m.start(3))
                    elif seen[0].arity != len(names):
                        _locate_error(line, lineno, symbols)
                    atoms.append((EqApp if op == "=" else SubApp)(
                        variables[lhs], seen[0], tuple(variables[n] for n in names)))
            col += len(m.string) + 1
    return ProblemFile(name=name, atoms=tuple(atoms), expect=expect)


def _locate_error(line: str, lineno: int, symbols: dict[str, tuple[Symbol, int, int]]
                  ) -> NoReturn:
    """Raise the ParseError of a line that _STATEMENT refuses or whose
    arities conflict, read token by token: a stray character anywhere
    on the line first, then the first statement that is malformed or
    gives a symbol another arity."""
    # The whole line is tokenized before any statement on it is read.
    statements: list[list[tuple[str, int]]] = [[]]
    pos = 0
    while m := _TOKEN.match(line, pos):
        tok, pos = m[1], m.end()
        if len(tok) == 1 and tok not in _ONE_CHARACTER_TOKENS:
            raise ParseError(f"unexpected character {tok!r}", lineno, m.start(1) + 1)
        if tok == ".":
            statements.append([])
        else:
            statements[-1].append((tok, m.start(1) + 1))
    for tokens in statements:
        if tokens:
            _check_statement(tokens, lineno, symbols)
    raise AssertionError(f"_STATEMENT refuses a line the token scan reads: {line!r}")


def _check_statement(
    tokens: list[tuple[str, int]],
    lineno: int,
    symbols: dict[str, tuple[Symbol, int, int]],
) -> None:
    """Raise the ParseError of one statement, if it has one, and record
    its symbol with the place of its first use.  It is read by
    position: a variable at 0 and the operator at 1, then a variable at
    2, or a symbol at 2 with `(` at 3, arguments at 4, 6, ... separated
    by commas, and a closing `)`."""
    n = len(tokens)
    end = tokens[-1][1] + len(tokens[-1][0])  # the column a missing token reports
    _check_var_at(tokens, 0, lineno, end)
    if n < 2:
        raise ParseError("statement ends early", lineno, end)
    op, op_col = tokens[1]
    if op not in ("=", "<="):
        raise ParseError(f"expected '=' or '<=', found {op!r}", lineno, op_col)
    if n > 3 and tokens[3][0] == "(" and tokens[2][0].isidentifier():
        fname, fcol = tokens[2]
        arity = 0
        i = 4
        if i >= n or tokens[i][0] != ")":
            _check_var_at(tokens, i, lineno, end)
            arity, i = 1, i + 1
            while i < n and tokens[i][0] == ",":
                _check_var_at(tokens, i + 1, lineno, end)
                arity, i = arity + 1, i + 2
        if i >= n:
            raise ParseError("statement ends early, expected ')'", lineno, end)
        if tokens[i][0] != ")":
            raise ParseError(f"expected ')', found {tokens[i][0]!r}", lineno, tokens[i][1])
        i += 1
        seen = symbols.get(fname)
        if seen is None:
            symbols[fname] = (Symbol(fname, arity), lineno, fcol)
        elif seen[0].arity != arity:
            raise ParseError(
                f"symbol {fname} takes {seen[0].arity} argument(s) at line {seen[1]}, "
                f"col {seen[2]}, but {arity} here", lineno, fcol)
    else:
        _check_var_at(tokens, 2, lineno, end)
        i = 3
    if i < n:
        raise ParseError(f"unexpected {tokens[i][0]!r} after statement", lineno, tokens[i][1])


def _check_var_at(tokens: list[tuple[str, int]], i: int, lineno: int, end: int) -> None:
    """Raise the ParseError of a statement whose position i holds no
    input variable.  Stray characters are rejected before a statement
    is read, so a token is a name exactly when it is an identifier."""
    if i >= len(tokens):
        raise ParseError("statement ends early", lineno, end)
    tok, col = tokens[i]
    if not tok.isidentifier():
        raise ParseError(f"expected a variable, found {tok!r}", lineno, col)
    if i + 1 < len(tokens) and tokens[i + 1][0] == "&":
        raise ParseError("intersection variables are not allowed in input",
                         lineno, tokens[i + 1][1])


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
    """Variable classes implied by the store's equations (the solved
    ones, which keep each eliminated name, among them), each with the
    constructor the class is bound to, if any.  They come from a
    union-find over the x = y atoms, since a store that Clash stopped
    can hold equations Elim has not used, whose classes Store.current
    does not show."""
    parent: dict[str, str] = {}

    def find(n: str) -> str:
        while n in parent:
            parent[n] = n = parent.get(parent[n], parent[n])  # path halving
        return n

    for aid in store.ids(Eq):
        a = store.atom(aid)
        x, y = find(a.lhs.parts[0]), find(a.rhs.parts[0])
        if x != y:
            parent[x] = y
    classes: dict[str, dict] = {}
    for n in sorted(store.base_vars()):
        classes.setdefault(find(n), {"vars": [], "constructor": None})["vars"].append(n)
    for _, a in store.atoms():
        if isinstance(a, EqApp):
            cls = classes[find(a.lhs.parts[0])]
            if cls["constructor"] is None:
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
    if verdict == Verdict.SAT and naive_solve(atoms, budget=300) == NaiveResult.UNSAT:
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


def _print_result(result: SolveResult, *, as_json: bool, with_trace: bool,
                  with_witness: bool) -> None:
    """Print the verdict and the solved store; with_witness, also the
    model read off a sat store as `name := term` lines (in JSON, a
    string under "witness", null for unsat)."""
    model = None
    if with_witness and result.verdict == Verdict.SAT:
        model = dump_witness(witness(result.store))
    if as_json:
        data = report(result, include_trace=with_trace)
        if with_witness:
            data["witness"] = model
        print(json.dumps(data, indent=2, sort_keys=True))
        return
    if with_trace and result.trace:
        print(format_trace(result.trace))
    print(f"{result.verdict.value} after {result.steps} step(s)")
    if result.verdict == Verdict.SAT:
        for _, a in result.store.atoms():
            print(f"  {format_atom(a)}")
    if model is not None:
        print(model, end="")


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
        result = SolveResult(solver.verdict, solver.store, solver.step_count, list(solver.trace))
    else:
        result = solve(problem.atoms)
    _print_result(result, as_json=args.json, with_trace=args.trace, with_witness=args.witness)
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
    p_solve.add_argument("--witness", action="store_true",
                         help="print a model of a sat verdict, one `name := term` line per name")
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
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`wsc random | head -1`).  Point
        # stdout at the null device, so that the flush at interpreter
        # exit writes nowhere instead of failing again, and report an
        # output error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
