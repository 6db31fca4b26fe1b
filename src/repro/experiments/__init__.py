"""Experiments reproducing every table and figure of the paper's
evaluation (plus ablations and extensions).  See DESIGN.md §3 for the
index and ``repro experiments --help`` for the CLI."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".": ("ablation", "prepass", "kernels", "loops", "stalls", "machines", "extension", "fig1",
        "fig4", "fig5", "fig6", "fig7", "table1", "table7"),
    ".runner": ("BlockRecord", "DEFAULT_CURTAIL", "PAPER_BLOCKS", "population_size",
        "run_population", "schedule_generated_block"),
    ".parallel": ("default_workers", "run_population_parallel"),
})
