"""Schedulers: NOP insertion (Ω), list-scheduling seed, heuristic
baselines, the optimal branch-and-bound search, and the multi-pipeline
and block-splitting extensions."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".nop_insertion": ("IncrementalTimingState", "InitialConditions", "PipelineAssignment",
        "ScheduleTiming", "SigmaResolver", "carry_out", "compute_timing", "total_nops"),
    "..verify.brute": ("sequential_etas",),
    ".list_scheduler": ("list_schedule", "program_order"),
    ".heuristics": ("greedy_schedule", "gross_schedule"),
    ".exhaustive": ("LEGAL_COUNT_CAP", "LegalSearchResult", "count_legal_orders",
        "exhaustive_search_size", "iter_legal_orders", "legal_only_search"),
    ".search": ("DEFAULT_CURTAIL", "SearchOptions", "SearchResult", "schedule_block",
        "unsupported_backend_option"),
    ".pipelining": ("DEFAULT_PLACEMENT_BUDGET", "MiiReport", "ModuloScheduleResult",
        "min_initiation_interval", "modulo_feasible", "schedule_loop", "steady_state_offsets"),
    ".multi": ("MultiScheduleResult", "round_robin_assignment", "schedule_block_multi"),
    ".splitting": ("DEFAULT_WINDOW", "SplitScheduleResult", "schedule_block_split"),
    ".interblock": ("ScheduledSequence", "schedule_sequence"),
})
