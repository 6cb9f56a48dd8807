"""Independent verdict checks, run at set-up before anything is timed.

For every instance this establishes the verdict each timed verdict
must return, using only the oracles and the definition of the
instance, never the engine:

  sat chain (and each sat prefix on chains-incremental)
      the witness from the instance's definition passes check_witness
  unsat chain
      naive_solve refutes it within NAIVE_BUDGET firings
  unify
      rational_unify agrees with the verdict the instance was built for
  oracle-check
      random inputs have no verdict by construction; their check is
      frontend.oracle_check, made as part of each timed verdict

A verdict that cannot be established raises SetupError: an instance
is never skipped.
"""

from __future__ import annotations

from generators import Instance


class SetupError(RuntimeError):
    """An instance whose expected verdict could not be established."""


NAIVE_BUDGET = 2000


def expected_verdicts(wsc, workload: str, inst: Instance) -> list[str]:
    """The verdicts the engine must return on this instance: one for a
    batch instance, one per asserted atom on chains-incremental."""
    atoms = list(wsc.parse(inst.text, name=inst.name).atoms)
    if len(atoms) != inst.size:
        raise SetupError(f"{inst.name}: rendered {inst.size} atoms, parsed {len(atoms)}")
    if workload == "oracle-check":
        return ["oracle"]
    if workload == "unify":
        got = wsc.rational_unify(atoms).value
        if got != inst.expect:
            raise SetupError(f"{inst.name}: built {inst.expect}, rational_unify says {got}")
        return [got]
    prefixes = range(1, len(atoms) + 1) if workload == "chains-incremental" else [len(atoms)]
    sigma = {v: wsc.parse_term(t) for v, t in (inst.witness or {}).items()}
    out = []
    for k in prefixes:
        part = atoms[:k]
        if k < len(atoms) or inst.expect == "sat":
            names = {n for a in part for v in wsc.constraints.atom_vars(a) for n in v.parts}
            if not names <= sigma.keys() or not wsc.check_witness(
                    {n: sigma[n] for n in names}, part):
                raise SetupError(f"{inst.name}: witness fails on the first {k} atoms")
            out.append("sat")
        else:
            if wsc.naive_solve(part, budget=NAIVE_BUDGET) is not wsc.NaiveResult.UNSAT:
                raise SetupError(f"{inst.name}: naive_solve does not refute it")
            out.append("unsat")
    return out
