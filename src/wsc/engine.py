"""The terminating rule engine for equations and subsumption constraints.

Eight rewrite rules act on a Store.  Each rule function either fires
once — mutating the store in place and returning the firing as (on,
removed, added) atom tuples — or returns None when it is inapplicable.
Every rule fires its first instance in a fixed order: ascending atom
id (ascending variable for Clash and Descend2), then components in
sorted order.  So every firing is deterministic.  Propagate1,
Propagate2 and Collapse grow one atom, and one firing takes every
current partner of it: on is the atom, then each partner in the order
it was joined.  Such a firing is the run of fine firings, one partner
each, that the paper's rule would make on that atom in a row, so
soundness and termination carry over.

Only Elim and Descend2 scan the store.  Clash, Decom, Propagate1,
Propagate2, Collapse and Descend1 each keep an agenda in the store: a
pair of sets, the ids of the atoms the store added or rewrote since the
rule last looked, and the keys (variables for Clash, atom ids for the
others) of the instances that may be enabled.  On its next look the
rule adds the keys whose instances those atoms can enable, checks keys
in ascending order and drops each one that does not fire.  Clash,
Propagate2 and Descend1 share one map from an atom to the left sides
whose determinations it takes part in: Clash keys those left sides,
Propagate2 the x <= f(ū) on them and Descend1 the x = f(ū) on the base
ones.  Decom keys the x = f(ū) on the left side of a new x = f(ū).
Propagate1 and Collapse key the x <= r atoms an x <= u on a base x
reaches.  Removals need not be reported: they only shrink
determinations, the x = f(ū) partners Decom reads and the subsumptions
Propagate1 and Collapse read, and the subsumptions whose absence
Descend1 needs are never taken away, only grown, renamed along with the
rest of the store, or merged into an equal atom.  A key that fires
stays, so the agenda never lacks an enabled instance, and the smallest
key that fires is the instance the ascending scan would have found
first: traces are the same as with a whole-store scan.  Elim scans the
unused equations.  Descend2 scans the intersection variables in use: an
agenda would have to map every determination change on a base x to
each intersection variable with x as a component, which costs more
than the scan.

The rules:

  Clash       two incompatible constructors determined for a variable
              and one of its component carriers: contradiction.
  Elim        use an equation x = y to substitute one side away
              everywhere else (deep, inside intersection variables);
              each equation is used at most once.
  Decom       two equations x = f(ū), x = f(v̄): replace the first by
              the pairwise argument equations.
  Propagate1  x <= u propagates into the right side of w <= z when x
              is a component of w: z grows to z & u, for every current
              such x <= u at once.
  Propagate2  like Propagate1 for the applied form: w <= f(ū) absorbs
              a determination x <= f(v̄) of a component x of w,
              intersecting argumentwise, for every current one that
              grows ū at once.
  Collapse    w <= r absorbs y <= z for a component y of r: r grows to
              r & z, for every current such y <= z, and again for the
              components that adds, until none adds more (chains of
              subsumptions collapse into the right side in one firing).
  Descend2    an intersection variable occurring anywhere whose
              component is determined gets its own applied constraint.
  Descend1    an equation x = f(ū) whose left side is also determined
              as f(v̄) by the *rest* of the store (a determination whose
              determining atom is the equation itself is skipped) pushes
              subsumptions ū <= v̄ down to the arguments (positions
              already covered by an existing subsumption are skipped).

A Solver owns a store and drives the rules to a fixpoint under a
total rule priority; the default order fires Clash first and the
store-growing Descend rules last.  The verdict is sat iff a
non-contradictory fixpoint is reached — which priority is used does not
change the verdict, only the route.

Inputs must mention base variables only (intersection variables are
solver-internal); solve() and assert_atom() enforce this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .constraints import (
    Atom,
    Determination,
    Eq,
    EqApp,
    Store,
    Sub,
    SubApp,
    Var,
    components,
    determinations,
    format_atom,
    is_base_only,
    map_vars,
)


class Verdict(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


class RuleId(enum.Enum):
    CLASH = "Clash"
    ELIM = "Elim"
    DECOM = "Decom"
    PROPAGATE1 = "Propagate1"
    PROPAGATE2 = "Propagate2"
    COLLAPSE = "Collapse"
    DESCEND1 = "Descend1"
    DESCEND2 = "Descend2"

    def __str__(self) -> str:
        return self.value


DEFAULT_PRIORITY: tuple[RuleId, ...] = (
    RuleId.CLASH,
    RuleId.ELIM,
    RuleId.DECOM,
    RuleId.PROPAGATE1,
    RuleId.PROPAGATE2,
    RuleId.COLLAPSE,
    RuleId.DESCEND2,
    RuleId.DESCEND1,
)


# --- rules --------------------------------------------------------------------

# What a rule firing looked at, removed and added.
Firing = tuple[tuple[Atom, ...], tuple[Atom, ...], tuple[Atom, ...]]


def _sources(store: Store, d: Determination) -> tuple[Atom, ...]:
    """The atoms behind a determination: the routing atom, if any, then
    the determining one."""
    at = store.atom(d.at)
    return (at,) if d.via is None else (store.atom(d.via), at)


def _fire_enabled(
    store: Store,
    rule: RuleId,
    seed: Callable[[Store], Iterable],
    keys: Callable[[Store, int, Atom], Iterable],
    fire_at: Callable[[Store, Any], Firing | None],
) -> Firing | None:
    """Fire `rule` at the smallest key of its agenda that fires.

    The agenda is the rule's (changed, enabled) pair in store.agendas:
    the ids of the atoms indexed since the rule last looked, and the
    keys of the instances that may be enabled.  On the rule's first
    look every instance in the store (`seed`) is a candidate; after
    that, only the keys that the changed atoms can enable are added (an
    atom gone since is skipped: whatever it enabled that is still
    enabled rests on atoms that are present, and so on keys already
    kept or added).  The keys checked before the one that fires do not
    fire and leave the agenda.  Ascending order is the order of the
    whole-store scan the agenda replaces, so the same instance fires."""
    if store.contradiction:
        return None
    agenda = store.agendas.get(rule.value)
    if agenda is None:
        agenda = store.agendas[rule.value] = (set(), set(seed(store)))
    changed, enabled = agenda
    for aid in changed:
        a = store.get(aid)
        if a is not None:
            enabled.update(keys(store, aid, a))
    changed.clear()
    for k in sorted(enabled):
        fired = fire_at(store, k)
        if fired is not None:
            return fired
        enabled.discard(k)
    return None


def _lhs_determined_by(store: Store, aid: int, a: Atom) -> set[Var]:
    """The left sides whose determinations atom a takes part in, itself
    or through a component: each variable v whose own determinations it
    is in, and for a base v every left side with v as a component (only
    a left side can have determinations).  These are the variables
    whose Clash status a can change."""
    out: set[Var] = set()
    for v in store.determined_vars(a):
        if v.is_base:
            out.update(store.atom(i).lhs for i in store.lhs_ids(v.parts[0]))
        else:
            out.add(v)
    return out


def _clash_at(store: Store, w: Var) -> Firing | None:
    dw = determinations(store, w)
    if not dw:
        return None
    # determinations() sorts by symbol first, so the first and the last
    # of each list span all of its symbols: x and w carry two symbols
    # unless these four are one.
    first_w, last_w = dw[0].sym, dw[-1].sym
    base = w.is_base
    for xname in w.parts:
        dx = dw if base else determinations(store, store.base_var(xname))
        if not dx or first_w == last_w == dx[0].sym == dx[-1].sym:
            continue
        d1, d2 = next((p, q) for p in dx for q in dw if p.sym != q.sym)
        store.contradiction = True
        on = _sources(store, d1) + _sources(store, d2)
        return tuple(dict.fromkeys(on)), (), ()
    return None


def rule_clash(store: Store) -> Firing | None:
    """Fire when some variable w and a component x of w carry two
    different determined constructors (w = x included: a doubly
    determined variable clashes with itself).  The smallest such w
    fires."""
    return _fire_enabled(store, RuleId.CLASH, Store.left_sides, _lhs_determined_by, _clash_at)


def rule_elim(store: Store) -> Firing | None:
    """Use an equation to substitute one side away from the rest of the
    store.  The equation is kept but marked used; the substitution is
    recorded in store.elim.  Preference: eliminate the smaller name."""
    if store.contradiction:
        return None
    for aid in store.ids(Eq):
        if aid in store.solved_eqs:
            continue
        a = store.atom(aid)
        if a.lhs == a.rhs:
            continue
        xn, yn = a.lhs.parts[0], a.rhs.parts[0]
        if store.occurs_elsewhere(xn, aid):
            gone, kept = xn, yn
        elif store.occurs_elsewhere(yn, aid):
            gone, kept = yn, xn
        else:
            continue
        store.subst_all(gone, kept, skip={aid})
        store.solved_eqs.add(aid)
        store.elim[gone] = kept
        return (a,), (), ()
    return None


def _decom_keys(store: Store, aid: int, a: Atom) -> Iterable[int]:
    """The x = f(ū) atoms whose Decom status a new or rewritten atom can
    change: for an x = f(ū), those on its left side (a among them)."""
    return store.ids(EqApp, a.lhs) if isinstance(a, EqApp) else ()


def _decom_at(store: Store, aid: int) -> Firing | None:
    a = store.get(aid)
    if a is None:
        return None
    for bid in store.ids(EqApp, a.lhs):
        b = store.atom(bid)
        if bid == aid or b.sym != a.sym:
            continue
        store.remove(aid)
        added = tuple(Eq(u, v) for u, v in zip(a.args, b.args))
        for na in added:
            store.add(na)
        return (a, b), (a,), added
    return None


def rule_decom(store: Store) -> Firing | None:
    """Two equations x = f(ū) and x = f(v̄): drop the first, add the
    argumentwise equations ū = v̄.  The first is the smallest id that
    has such a partner, the second its smallest partner."""
    return _fire_enabled(store, RuleId.DECOM, lambda s: s.ids(EqApp), _decom_keys, _decom_at)


def _grow_rhs_at(store: Store, aid: int, names: Callable[[Sub], tuple[str, ...]],
                 follow: bool) -> Firing | None:
    """Grow the right side of the x <= r at aid by the right side of
    every y <= z, y a base variable in names(x <= r), that adds a
    component to it, in one firing.  With `follow`, the components
    added are names too, until none adds more."""
    a = store.get(aid)
    if a is None:
        return None
    on = [a]
    parts = set(a.rhs.parts)
    todo = list(names(a))
    for name in todo:  # grows while it is walked when `follow` is set
        for bid in store.ids(Sub, store.base_var(name)):
            b = store.atom(bid)
            new = [p for p in b.rhs.parts if p not in parts]
            if new:
                on.append(b)
                parts.update(new)
                if follow:
                    todo.extend(new)
    if len(on) == 1:
        return None
    na = Sub(a.lhs, Var(tuple(parts)))
    store.rewrite(aid, na)
    return tuple(on), (a,), (na,)


def _propagate1_keys(store: Store, aid: int, a: Atom) -> Iterable[int]:
    """The w <= z atoms whose Propagate1 status a new or rewritten atom
    can change: a itself, and for an x <= u on a base x each w <= z
    with x a component of w (a among them)."""
    if not isinstance(a, Sub):
        return ()
    if not a.lhs.is_base:
        return (aid,)
    return (i for i in store.lhs_ids(a.lhs.parts[0]) if isinstance(store.atom(i), Sub))


def _propagate1_at(store: Store, aid: int) -> Firing | None:
    return _grow_rhs_at(store, aid, lambda a: a.lhs.parts, follow=False)


def rule_propagate1(store: Store) -> Firing | None:
    """w <= z and x <= u for a component x of w: grow z to z & u, for
    every current partner x <= u in one firing.  The atom with the
    smallest id fires."""
    return _fire_enabled(
        store, RuleId.PROPAGATE1, lambda s: s.ids(Sub), _propagate1_keys, _propagate1_at
    )


def _propagate2_keys(store: Store, aid: int, a: Atom) -> Iterable[int]:
    """The x <= f(ū) atoms whose Propagate2 status a new or rewritten
    atom can change: those on a left side whose determinations it takes
    part in, itself or through a component."""
    return [i for w in _lhs_determined_by(store, aid, a) for i in store.ids(SubApp, w)]


def _propagate2_at(store: Store, aid: int) -> Firing | None:
    a = store.get(aid)
    if a is None:
        return None
    on = [a]
    args = [set(u.parts) for u in a.args]
    # The same determining atom reached again, through another component
    # or routing atom, brings the same arguments: joined or not the
    # first time, they add nothing now.
    tested = set()
    for xname in a.lhs.parts:
        for d in determinations(store, store.base_var(xname)):
            if d.at in tested or d.sym != a.sym:
                continue
            tested.add(d.at)
            if all(parts.issuperset(v.parts) for parts, v in zip(args, d.args)):
                continue
            for parts, v in zip(args, d.args):
                parts.update(v.parts)
            on.extend(_sources(store, d))
    if len(on) == 1:
        return None
    na = SubApp(a.lhs, a.sym, tuple(Var(tuple(parts)) for parts in args))
    store.rewrite(aid, na)
    return tuple(dict.fromkeys(on)), (a,), (na,)


def rule_propagate2(store: Store) -> Firing | None:
    """w <= f(ū) and a determination f(v̄) of a component x of w:
    intersect the arguments, position by position, with every current
    partner determination that grows them, in one firing.  The atom
    with the smallest id fires."""
    return _fire_enabled(
        store, RuleId.PROPAGATE2, lambda s: s.ids(SubApp), _propagate2_keys, _propagate2_at
    )


def _collapse_keys(store: Store, aid: int, a: Atom) -> Iterable[int]:
    """The x <= r atoms whose Collapse status a new or rewritten atom
    can change: a itself, and for a y <= z on a base y each x <= r
    with y a component of r."""
    if not isinstance(a, Sub):
        return ()
    if not a.lhs.is_base:
        return (aid,)
    return [aid] + store.routing_ids(a.lhs.parts[0])


def _collapse_at(store: Store, aid: int) -> Firing | None:
    return _grow_rhs_at(store, aid, lambda a: a.rhs.parts, follow=True)


def rule_collapse(store: Store) -> Firing | None:
    """x <= r and y <= z for a component y of r: grow r to r & z, for
    every current partner y <= z and then for those of the components
    that adds, until none adds more: the transitive closure in one
    firing.  The atom with the smallest id fires."""
    return _fire_enabled(store, RuleId.COLLAPSE, lambda s: s.ids(Sub), _collapse_keys, _collapse_at)


def rule_descend2(store: Store) -> Firing | None:
    """An intersection variable w in use whose component is determined,
    while w itself has no applied constraint yet: give it one."""
    if store.contradiction:
        return None
    for w in store.intersection_vars():
        if store.ids(SubApp, w):
            continue
        for xname in w.parts:
            dets = determinations(store, store.base_var(xname))
            if not dets:
                continue
            d = dets[0]
            na = SubApp(w, d.sym, d.args)
            store.add(na)
            return _sources(store, d), (), (na,)
    return None


def _descend1_keys(store: Store, aid: int, a: Atom) -> Iterable[int]:
    """The x = f(ū) atoms whose Descend1 status a new or rewritten atom
    can change: those on a base left side whose determinations it takes
    part in."""
    return [
        i for w in _lhs_determined_by(store, aid, a) if w.is_base for i in store.ids(EqApp, w)
    ]


def _descend1_at(store: Store, aid: int) -> Firing | None:
    a = store.get(aid)
    if a is None:
        return None
    for d in determinations(store, a.lhs):
        if d.at == aid or d.sym != a.sym:
            continue
        missing = []
        for u, v in zip(a.args, d.args):
            covered = any(
                components(v) <= components(store.atom(bid).rhs)
                for bid in store.ids(Sub, u)
            )
            if not covered:
                missing.append((u, v))
        if not missing:
            continue
        added = tuple(Sub(u, v) for u, v in missing)
        for na in added:
            store.add(na)
        return tuple(dict.fromkeys((a,) + _sources(store, d))), (), added
    return None


def rule_descend1(store: Store) -> Firing | None:
    """x = f(ū) where the rest of the store also determines x as f(v̄):
    push subsumption down to the arguments, adding ū_i <= v̄_i for every
    position not already covered by a subsumption on ū_i whose right
    side includes all components of v̄_i.  The atom with the smallest
    id fires.

    Determinations made by this equation itself, immediate or routed
    back to x through some x <= r, are skipped, so an equation never
    descends on account of itself."""
    return _fire_enabled(
        store, RuleId.DESCEND1, lambda s: s.ids(EqApp), _descend1_keys, _descend1_at
    )


_RULES: dict[RuleId, Callable[[Store], Firing | None]] = {
    RuleId.CLASH: rule_clash,
    RuleId.ELIM: rule_elim,
    RuleId.DECOM: rule_decom,
    RuleId.PROPAGATE1: rule_propagate1,
    RuleId.PROPAGATE2: rule_propagate2,
    RuleId.COLLAPSE: rule_collapse,
    RuleId.DESCEND2: rule_descend2,
    RuleId.DESCEND1: rule_descend1,
}


# --- solver -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One rule firing: which rule, the atoms it looked at, and what
    it removed and added."""

    step: int
    rule: RuleId
    on: tuple[Atom, ...]
    removed: tuple[Atom, ...]
    added: tuple[Atom, ...]
    contradiction: bool = False

    def __str__(self) -> str:
        ons = ", ".join(format_atom(a) for a in self.on)
        if self.contradiction:
            outs = "bottom"
        elif self.added:
            outs = ", ".join(format_atom(a) for a in self.added)
        else:
            outs = "nothing"
        return f"step {self.step}: {self.rule.value} on {ons} => {outs}"


def format_trace(trace: Sequence[TraceEntry]) -> str:
    return "\n".join(str(e) for e in trace)


class Solver:
    """Incremental solver: assert atoms one at a time, read the verdict.

    Asserted atoms are normalized through the record of already-eliminated variables so that stale names in
    later assertions land on their current representatives.
    """

    def __init__(self, *, priority: Sequence[RuleId] = DEFAULT_PRIORITY):
        prio = tuple(priority)
        if sorted(r.value for r in prio) != sorted(r.value for r in RuleId):
            raise ValueError("priority must list every rule exactly once")
        self.priority = prio
        self.store = Store()
        self.trace: list[TraceEntry] = []
        self.step_count = 0
        self.verdict = Verdict.SAT  # the empty conjunction is satisfiable

    def _resolve(self, name: str) -> str:
        chain = []
        elim = self.store.elim
        while name in elim:
            chain.append(name)
            name = elim[name]
        for c in chain:
            elim[c] = name
        return name

    def _normalize(self, a: Atom) -> Atom:
        return map_vars(a, lambda v: self.store.base_var(self._resolve(v.parts[0])))

    def insert(self, a: Atom) -> None:
        """Add one atom without running rules (input validation applies)."""
        if not is_base_only(a):
            raise ValueError(
                f"input atoms must use base variables only: {format_atom(a)}"
            )
        self.store.add(self._normalize(a))
        if self.verdict is not Verdict.UNSAT:
            self.verdict = Verdict.UNKNOWN

    def step(self) -> bool:
        """Fire the first applicable rule by priority; False at fixpoint."""
        if self.store.contradiction:
            self.verdict = Verdict.UNSAT
            return False
        for rule in self.priority:
            fired = _RULES[rule](self.store)
            if fired is not None:
                self.step_count += 1
                self.trace.append(
                    TraceEntry(
                        self.step_count,
                        rule,
                        *fired,
                        contradiction=self.store.contradiction,
                    )
                )
                if self.store.contradiction:
                    self.verdict = Verdict.UNSAT
                return True
        if self.verdict is not Verdict.UNSAT:
            self.verdict = Verdict.SAT
        return False

    def run(self) -> Verdict:
        """Step to a fixpoint and return the verdict."""
        while self.step():
            pass
        return self.verdict

    def assert_atom(self, a: Atom) -> Verdict:
        """Insert one atom and re-solve.  Contradiction is absorbing."""
        if self.verdict is Verdict.UNSAT:
            return Verdict.UNSAT
        self.insert(a)
        return self.run()


@dataclass
class SolveResult:
    verdict: Verdict
    store: Store
    steps: int
    trace: list[TraceEntry]
    solver: Solver


def solve(atoms: Iterable[Atom], *, priority: Sequence[RuleId] = DEFAULT_PRIORITY) -> SolveResult:
    """Decide satisfiability of a conjunction of base-variable atoms."""
    s = Solver(priority=priority)
    for a in atoms:
        s.insert(a)
    s.run()
    return SolveResult(s.verdict, s.store, s.step_count, list(s.trace), s)
