"""Schedule analysis: pipeline timelines, stall attribution, utilization."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".timeline": ("StallExplanation", "explain_schedule", "pipeline_utilization",
        "render_timeline", "stall_breakdown"),
})
