"""repro.api is the compatibility contract — snapshot it.

A name leaving this list (or silently failing to import) is an API
break; additions are fine but must be made here deliberately, in the
same change that exports them.
"""

from __future__ import annotations

import pytest

import repro.api as api

EXPECTED_SURFACE = sorted(
    [
        # compiling
        "CompilationResult",
        "LoopCompilation",
        "ProgramCompilation",
        "VerificationError",
        "compile_block",
        "compile_loop",
        "compile_program",
        "compile_source",
        "verify_compilation",
        "verify_program",
        # IR
        "BasicBlock",
        "DependenceDAG",
        "IRTuple",
        "LoopBlock",
        "Opcode",
        "format_block",
        "lower_loop",
        "parse_block",
        "run_block",
        # machines
        "MachineDescription",
        "PipelineDesc",
        "PRESETS",
        "get_machine",
        "paper_example_machine",
        "paper_simulation_machine",
        "load_machine",
        "save_machine",
        "machine_from_dict",
        "machine_to_dict",
        # scheduling
        "IlpOptions",
        "IlpSearchResult",
        "InitialConditions",
        "ModuloScheduleResult",
        "SearchOptions",
        "SearchResult",
        "compute_timing",
        "list_schedule",
        "min_initiation_interval",
        "schedule_block",
        "schedule_loop",
        # verification
        "check_schedule",
        "check_steady_state",
        # service
        "CacheIntegrityError",
        "CanonicalForm",
        "ScheduleCache",
        "SchedulingService",
        "ServiceClient",
        "ServiceClientError",
        "ServiceError",
        "create_server",
        "fingerprint_problem",
        # telemetry
        "Telemetry",
        "__version__",
    ]
)


def test_surface_snapshot():
    assert sorted(api.__all__) == EXPECTED_SURFACE


def test_no_duplicates():
    assert len(api.__all__) == len(set(api.__all__))


@pytest.mark.parametrize("name", EXPECTED_SURFACE)
def test_every_name_resolves(name):
    assert getattr(api, name) is not None


def test_facade_agrees_with_submodules():
    # Spot-check that the facade re-exports the real objects, not copies.
    from repro.sched.pipelining import ModuloScheduleResult, schedule_loop
    from repro.sched.search import schedule_block
    from repro.service.cache import ScheduleCache

    assert api.schedule_block is schedule_block
    assert api.ScheduleCache is ScheduleCache
    assert api.schedule_loop is schedule_loop
    assert api.ModuloScheduleResult is ModuloScheduleResult


def test_star_import_is_bounded():
    namespace: dict = {}
    exec("from repro.api import *", namespace)
    public = {k for k in namespace if not k.startswith("_")}
    assert public == set(EXPECTED_SURFACE) - {"__version__"}
