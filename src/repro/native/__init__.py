"""``engine="native"``: the branch-and-bound hot core, compiled to C.

This package holds the third search engine of the repository's engine
lattice (``fast`` / ``reference`` / ``native``): a
self-contained C99 port of the flattened DFS in
:mod:`repro.sched.dfs`, compiled at first use from the adjacent
``kernel.c`` with the system C compiler and bound through ``ctypes`` —
no new Python dependency.  The §5.3 windows of
:func:`repro.sched.splitting.schedule_block_split` run on the same DFS.

* :mod:`repro.native.build` — compiler discovery, the sha256-keyed
  on-disk build cache, atomic installs.
* :mod:`repro.native.bindings` — flat ``int64``/CSR marshalling of the
  ``_Flat`` tables, library loading with corruption recovery, and the
  ``native_dfs`` entry point the scheduler dispatch calls.

Results are bit-for-bit identical to every other engine (everything
except wall time); without a C compiler the engine degrades to ``fast``
with a one-line stderr notice.
"""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".build": ("NativeBuildError", "build_kernel", "compiler_info"),
    ".bindings": ("load_kernel", "native_available", "native_dfs", "unavailable_reason"),
})
