"""Traditional optimizations applied before scheduling (section 3.1):
constant folding with value propagation, CSE, DCE, peephole."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".fold": ("fold_constants",),
    ".cse": ("eliminate_common_subexpressions",),
    ".dce": ("eliminate_dead_code",),
    ".peephole": ("peephole_optimize",),
    ".manager": ("OptimizationReport", "default_passes", "optimize", "optimize_block"),
})
