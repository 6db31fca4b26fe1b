"""Synthetic benchmark generation (section 5.2 and the Table 6
statement-frequency substitute)."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".stats": ("DEFAULT_PROFILE", "GeneratorProfile", "OPERATOR_FREQUENCIES",
        "STATEMENT_FREQUENCIES"),
    ".generator": ("GeneratedBlock", "generate_block", "generate_program", "variable_names"),
    ".population": ("BlockParams", "PopulationSpec", "generate_from_params", "sample_population",
        "sample_population_params", "size_histogram"),
    ".kernels": ("KERNELS", "KERNELS_BY_NAME", "Kernel", "get_kernel"),
})
