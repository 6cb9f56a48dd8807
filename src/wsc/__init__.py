"""Incremental decision procedure for weak subsumption constraints
over rational constructor trees.

The public API in one place:

  terms        Symbol, TermGraph, hole, app, parse_term, format_term,
               weak_subsumes, graph_equal, instance_member
  constraints  Var, var, components, Eq, EqApp, Sub, SubApp,
               Store, determinations, format_atom
  engine       Solver, solve, Verdict, RuleId, DEFAULT_PRIORITY, traces
  oracles      naive_solve, rational_unify, check_witness,
               witness_search, merge_graphs, witness files
  frontend     parse, random_atoms, report, run_cli
"""

from .constraints import (
    Atom,
    Eq,
    EqApp,
    Store,
    Sub,
    SubApp,
    Var,
    components,
    determinations,
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
)
from .frontend import ParseError, ProblemFile, parse, random_atoms, report, run_cli
from .oracles import (
    NaiveResult,
    SearchResult,
    check_witness,
    dump_witness,
    enumerate_graphs,
    load_witness,
    merge_graphs,
    naive_solve,
    rational_unify,
    witness_search,
)
from .terms import (
    Symbol,
    TermGraph,
    TermSyntaxError,
    app,
    bisimulation_relation,
    format_term,
    graph_equal,
    hole,
    instance_member,
    parse_term,
    simulation_relation,
    weak_subsumes,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Eq", "EqApp", "Store", "Sub", "SubApp", "Var",
    "components", "determinations", "format_atom", "var",
    "DEFAULT_PRIORITY", "RuleId", "SolveResult", "Solver", "TraceEntry",
    "Verdict", "format_trace", "solve",
    "ParseError", "ProblemFile", "parse", "random_atoms", "report", "run_cli",
    "NaiveResult", "SearchResult", "check_witness", "dump_witness",
    "enumerate_graphs", "load_witness", "merge_graphs", "naive_solve",
    "rational_unify", "witness_search",
    "Symbol", "TermGraph", "TermSyntaxError", "app", "bisimulation_relation",
    "format_term", "graph_equal", "hole", "instance_member", "parse_term",
    "simulation_relation", "weak_subsumes",
    "__version__",
]
