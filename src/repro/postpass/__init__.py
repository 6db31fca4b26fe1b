"""Postpass (after-allocation) scheduling — the prior art of sections 1
and 3.4, mechanized for comparison against the paper's prepass design."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".registers": ("PrepassPostpassComparison", "compare_prepass_postpass", "postpass_dag",
        "register_reuse_edges"),
})
