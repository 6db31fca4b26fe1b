"""repro.api — the supported programmatic surface, in one flat module.

Downstream code should import from here rather than reaching into
submodules; names in :data:`__all__` are the compatibility contract
(pinned by ``tests/test_api_surface.py``), everything else in the
package is internal and may move without notice.

The groups:

- **Compiling** — :func:`compile_program` drives the whole Figure-2
  back end over a program's ``barrier;``-separated blocks, and
  :func:`compile_source` is its one-block case; a single block is
  verified (:func:`verify_compilation`) as a one-block program
  (:func:`verify_program`).  :func:`compile_block` schedules an
  already-built tuple block; :func:`compile_loop` software-pipelines a
  bounded source loop into a modulo kernel (:class:`LoopCompilation`).
- **IR** — the tuple form (:class:`IRTuple`, :class:`BasicBlock`,
  :class:`DependenceDAG`) and the paper's linear notation
  (:func:`parse_block` / :func:`format_block`).
- **Machines** — :class:`MachineDescription` plus the paper's preset
  tables (:func:`get_machine`, :data:`PRESETS`) and the on-disk format
  (:func:`load_machine` / :func:`save_machine`,
  :func:`machine_to_dict` / :func:`machine_from_dict`).
- **Scheduling** — :func:`schedule_block` (the branch-and-bound search
  behind :class:`SearchOptions` / :class:`SearchResult`),
  :func:`list_schedule` and :func:`compute_timing` (the Ω procedure).
  ``schedule_block(..., backend="ilp")`` runs the time-indexed ILP
  witness instead (:class:`IlpOptions` / :class:`IlpSearchResult`).
  Every scheduling entry point takes the problem as ``(dag, machine,
  options, ...)``; ``options.engine`` picks the search engine.
- **Loop scheduling** — :func:`schedule_loop` (modulo software
  pipelining over :class:`LoopBlock`, producing
  :class:`ModuloScheduleResult`) and :func:`min_initiation_interval`
  (the MII decomposition); :func:`lower_loop` builds the
  :class:`LoopBlock` from a parsed ``for`` statement.
- **Verification** — :func:`check_schedule`, the independent
  certificate checker, and :func:`check_steady_state`, its
  cross-iteration counterpart for modulo kernels.
- **Service** — the canonical-form result cache
  (:class:`ScheduleCache`, :func:`fingerprint_problem`) and the batch
  scheduling daemon's client (:class:`ServiceClient`); see
  :mod:`repro.service`.
- **Telemetry** — :class:`Telemetry`, the counters/phase-timer sink
  every entry point threads through.

Quick start::

    from repro.api import compile_source, get_machine
    result = compile_source("b = 15; a = b * a;", get_machine("paper-simulation"))
    print(result.assembly)

Caching searches::

    from repro.api import ScheduleCache, SearchOptions, get_machine, parse_block
    from repro.ir import DependenceDAG

    cache = ScheduleCache(path="/var/cache/repro-schedules")
    block = parse_block("1: Load #a\\n2: Mul 1, 1\\n3: Store #a, 2")
    result = cache.schedule(DependenceDAG(block), get_machine("paper-simulation"),
                            SearchOptions())
"""

from . import __version__, _lazy_namespace

_exports, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".driver": ("CompilationResult", "LoopCompilation", "ProgramCompilation",
        "VerificationError", "compile_block", "compile_loop", "compile_program",
        "compile_source", "verify_compilation", "verify_program"),
    ".ir": ("BasicBlock", "DependenceDAG", "IRTuple", "LoopBlock", "Opcode", "format_block",
        "parse_block", "run_block"),
    ".frontend.lowering": ("lower_loop",),
    ".machine": ("MachineDescription", "PipelineDesc", "get_machine", "paper_example_machine",
        "paper_simulation_machine"),
    ".machine.presets": ("PRESETS",),
    ".machine.serialize": ("load_machine", "save_machine", "machine_from_dict",
        "machine_to_dict"),
    ".ilp": ("IlpOptions", "IlpSearchResult"),
    ".sched": ("InitialConditions", "ModuloScheduleResult", "SearchOptions", "SearchResult",
        "compute_timing", "list_schedule", "min_initiation_interval", "schedule_block",
        "schedule_loop"),
    ".verify.certificate": ("check_schedule",),
    ".verify.steady_state": ("check_steady_state",),
    ".service": ("CacheIntegrityError", "CanonicalForm", "ScheduleCache", "SchedulingService",
        "ServiceClient", "ServiceClientError", "ServiceError", "create_server",
        "fingerprint_problem"),
    ".telemetry": ("Telemetry",),
})
__all__ = [*_exports, "__version__"]
