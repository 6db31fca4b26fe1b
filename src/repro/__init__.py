"""repro — reproduction of Nisar & Dietz, *Optimal Code Scheduling for
Multiple-Pipeline Processors* (Purdue TR-EE 90-11 / ICPP 1990).

Public API tour
---------------
- :mod:`repro.ir` — the tuple intermediate form, basic blocks, the
  dependence DAG, a reference interpreter, and the paper's linear
  notation (Figure 3).
- :mod:`repro.frontend` — the example source language, lowered to tuples.
- :mod:`repro.opt` — constant folding/propagation, CSE and peephole in one
  forward value-numbering walk; DCE in one backward liveness walk.
- :mod:`repro.machine` — pipeline description tables and presets
  (including the paper's Tables 2-5 machines).
- :mod:`repro.sched` — NOP insertion (Ω), the list-scheduling seed, the
  optimal branch-and-bound search, heuristic and exhaustive baselines,
  and the multi-pipeline / block-splitting extensions.
- :mod:`repro.regalloc` — post-scheduling register assignment and the
  pre-scheduling spill pass.
- :mod:`repro.codegen` — assembly emission in all three delay
  disciplines of section 2.2.
- :mod:`repro.simulator` — a cycle-accurate multi-pipeline simulator.
- :mod:`repro.synth` — the synthetic benchmark generator of section 5.2.
- :mod:`repro.experiments` — one module per paper table/figure.

Quick start
-----------
>>> from repro import compile_source, paper_simulation_machine
>>> result = compile_source("b = 15; a = b * a;", paper_simulation_machine())
>>> result.search.completed
True
>>> print(result.assembly)          # doctest: +SKIP
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"


def _lazy_namespace(namespace, table):
    """PEP 562 lazy namespace: return ``(__all__, __getattr__, __dir__)``
    for the module whose globals are ``namespace``.

    ``table`` maps a relative submodule path to the names it defines (the
    key ``"."`` lists names that are submodules themselves).  A name is
    imported on first access and cached in ``namespace``, so importing a
    package costs only what its callers use.
    """
    owner = {name: sub for sub, names in table.items() for name in names}
    module_name, anchor = namespace["__name__"], namespace["__package__"]

    def __getattr__(name):
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        if sub == ".":
            value = _import_module("." + name, anchor)
        else:
            value = getattr(_import_module(sub, anchor), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__


_exports, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".driver": ("CompilationResult", "ProgramCompilation", "compile_program", "verify_program",
        "VerificationError", "compile_source", "verify_compilation"),
    ".ir": ("BasicBlock", "BlockBuilder", "DependenceDAG", "IRTuple", "Opcode", "format_block",
        "parse_block", "run_block"),
    ".machine": ("MachineDescription", "PipelineDesc", "get_machine", "paper_example_machine",
        "paper_simulation_machine"),
    ".sched": ("InitialConditions", "SearchOptions", "SearchResult", "schedule_sequence",
        "compute_timing", "list_schedule", "schedule_block", "schedule_block_multi",
        "schedule_block_split"),
    ".analysis": ("explain_schedule", "render_timeline"),
})
__all__ = [*_exports, "__version__"]
