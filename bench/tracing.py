"""Timing wrappers for the traced run, installed from outside `src/`.

Each wrapper replaces a function at the name its callers resolve (a
module global, a Store method, an entry of the engine's rule table)
and records a span: name, start, end, parent span and verdict id.
Self time is a span's duration minus the time its child spans cover,
accumulated as the spans close, so only a capped prefix of raw spans
needs to stay in memory for the span file.

Everything runs in one thread, so a single span stack is exact and no
layer ever waits on another.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

# The solver's own code (step loop, trace building, _normalize) counts
# as one span name; these are the Solver methods that hold it.
SOLVER_METHODS = ("insert", "step", "run", "assert_atom")
STORE_METHODS = ("add", "remove", "rewrite", "subst_all")
ORACLES = ("naive_solve", "rational_unify", "witness_search")
RELATIONS = ("simulation_relation", "bisimulation_relation")
# Raw spans kept for the span file; counts and self times cover every span.
SPAN_CAP = 200_000


class Tracer:
    """Span and count collection over a set of installed wrappers."""

    def __init__(self, wsc):
        self.wsc = wsc
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.verdict_id = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches = self._plan()
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Wrap fn so that each call records a span called name."""
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, name, start, end, parent, self.verdict_id))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_only(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _search_result(self, res) -> None:
        self.counts["oracles.witness_search.checked"] += res.checked
        self.counts["oracles.witness_search.exhausted"] += int(res.exhausted)

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every name that is patched."""
        w = self.wsc
        eng, con, fe, orc, trm = w.engine, w.constraints, w.frontend, w.oracles, w.terms
        plan = [
            (fe, "parse", self.span("frontend.parse", fe.parse)),
            (fe, "oracle_check", self.span("frontend.oracle_check", fe.oracle_check)),
            (eng, "solve", self.span("engine.solver", eng.solve)),
            (eng, "determinations",
             self.span("constraints.determinations", eng.determinations)),
            (con.Var, "__post_init__",
             self._count_only("constraints.var.created", con.Var.__post_init__)),
        ]
        plan += [(eng.Solver, m, self.span("engine.solver", getattr(eng.Solver, m)))
                 for m in SOLVER_METHODS]
        plan += [(eng._RULES, rid, self.span(f"engine.rule.{rid.value}", fn))
                 for rid, fn in eng._RULES.items()]
        plan += [(con.Store, m, self.span(f"constraints.store.{m}", getattr(con.Store, m)))
                 for m in STORE_METHODS]
        for name in ORACLES:
            hook = self._search_result if name == "witness_search" else None
            plan.append((fe, name, self.span(f"oracles.{name}", getattr(fe, name), hook)))
        plan.append((orc, "check_witness",
                     self.span("oracles.check_witness", orc.check_witness)))
        for mod in (orc, trm):
            plan += [(mod, name, self.span(f"terms.{name}", getattr(mod, name)))
                     for name in RELATIONS]
        return plan

    def install(self) -> None:
        for owner, attr, wrapper in self._patches:
            if isinstance(owner, dict):
                self._saved.append((owner, attr, owner[attr], True))
                owner[attr] = wrapper
            else:
                self._saved.append((owner, attr, owner.__dict__[attr], False))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, is_dict = self._saved.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent
        id (-1 for a root), verdict id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tverdict\n")
            for sid, name, start, end, parent, vid in sorted(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{vid}\n")
