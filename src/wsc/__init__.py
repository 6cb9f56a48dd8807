"""Incremental decision procedure for weak subsumption constraints
over rational constructor trees.

The public API in one place:

  terms        Symbol, TermGraph, TermSyntaxError, hole, app,
               parse_term, format_term, weak_subsumes, graph_equal
  constraints  Atom, Var, var, Eq, EqApp, Sub, SubApp,
               Store, format_atom
  engine       Solver, solve, SolveResult, Verdict, RuleId,
               DEFAULT_PRIORITY, TraceEntry, format_trace,
               witness (a model read off a solved store)
  oracles      naive_solve, NaiveResult, rational_unify, check_witness,
               witness_search, SearchResult, dump_witness
  frontend     parse, ParseError, ProblemFile, random_atoms, report,
               run_cli
"""

from .constraints import (
    Atom,
    Eq,
    EqApp,
    Store,
    Sub,
    SubApp,
    Var,
    format_atom,
    var,
)
from .engine import (
    DEFAULT_PRIORITY,
    RuleId,
    SolveResult,
    Solver,
    TraceEntry,
    Verdict,
    format_trace,
    solve,
    witness,
)
from .frontend import ParseError, ProblemFile, parse, random_atoms, report, run_cli
from .oracles import (
    NaiveResult,
    SearchResult,
    check_witness,
    dump_witness,
    naive_solve,
    rational_unify,
    witness_search,
)
from .terms import (
    Symbol,
    TermGraph,
    TermSyntaxError,
    app,
    format_term,
    graph_equal,
    hole,
    parse_term,
    weak_subsumes,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Eq", "EqApp", "Store", "Sub", "SubApp", "Var",
    "format_atom", "var",
    "DEFAULT_PRIORITY", "RuleId", "SolveResult", "Solver", "TraceEntry",
    "Verdict", "format_trace", "solve", "witness",
    "ParseError", "ProblemFile", "parse", "random_atoms", "report", "run_cli",
    "NaiveResult", "SearchResult", "check_witness", "dump_witness",
    "naive_solve", "rational_unify", "witness_search",
    "Symbol", "TermGraph", "TermSyntaxError", "app", "format_term",
    "graph_equal", "hole", "parse_term", "weak_subsumes",
    "__version__",
]
