"""Register allocation: liveness, post-scheduling linear scan, and the
pre-scheduling spill pass (sections 3.1 and 3.4)."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".liveness": ("LiveRange", "live_ranges", "max_live", "pressure_profile"),
    ".allocator": ("AllocationError", "RegisterAllocation", "allocate_registers"),
    ".spill": ("SPILL_PREFIX", "SpillReport", "insert_spill_code"),
})
