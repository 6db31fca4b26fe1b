"""Schedulers: NOP insertion (Ω), list-scheduling seed, heuristic
baselines, the optimal branch-and-bound search, and the multi-pipeline
and block-splitting extensions."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".nop_insertion": ("IncrementalTimingState", "InitialConditions", "PipelineAssignment",
        "ScheduleTiming", "SigmaResolver", "compute_timing", "sequential_etas", "total_nops"),
    ".list_scheduler": ("list_schedule", "program_order"),
    ".heuristics": ("greedy_schedule", "gross_schedule"),
    ".exhaustive": ("LEGAL_COUNT_CAP", "LegalSearchResult", "count_legal_schedules",
        "exhaustive_search_size", "legal_only_search"),
    ".search": ("DEFAULT_CURTAIL", "ScheduleOutcome", "ScheduleRequest", "SearchOptions",
        "SearchResult", "schedule_block", "unsupported_backend_option"),
    ".pipelining": ("DEFAULT_PLACEMENT_BUDGET", "MiiReport", "ModuloScheduleResult",
        "min_initiation_interval", "modulo_feasible", "schedule_loop", "steady_state_offsets"),
    ".multi": ("MultiScheduleResult", "round_robin_assignment", "schedule_block_multi"),
    ".splitting": ("DEFAULT_WINDOW", "SplitScheduleResult", "schedule_block_split"),
    ".interblock": ("ScheduledSequence", "carry_out", "schedule_sequence"),
})
