"""Target machine model: pipelines and operation mappings."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".pipeline": ("PipelineDesc",),
    ".machine": ("MachineDescription", "MachineValidationError", "UNPIPELINED_LATENCY"),
    ".presets": ("PRESETS", "deep_memory_machine", "get_machine", "paper_example_machine",
        "paper_simulation_machine", "scalar_machine", "unpipelined_units_machine",
        "asymmetric_units_machine"),
    ".serialize": ("MachineSyntaxError", "format_machine", "load_machine", "machine_from_dict",
        "machine_to_dict", "parse_machine", "save_machine"),
})
