"""Cycle-accurate multi-pipeline simulator (section 2.2's three delay
disciplines: implicit interlock, explicit interlock, NOP padding)."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".core": ("NOP", "HazardError", "InterlockMode", "PipelineSimulator", "SimulationTrace",
        "simulate_schedule"),
    ".register_machine": ("RegisterHazardError", "RegisterMachine", "RegisterTrace"),
})
