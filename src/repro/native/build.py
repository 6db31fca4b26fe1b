"""On-demand compilation of the native search kernel (``kernel.c``).

The ``native`` engine ships as C *source*, not a binary wheel: the
kernel is compiled at first use with whatever C compiler the host
already has, cached on disk, and loaded through ``ctypes`` — no new
Python dependency, no build step at install time, and a clean fallback
to the ``fast`` engine when no compiler exists (see
``repro.sched.core.resolve_engine``).

Compiler discovery
------------------
``REPRO_CC`` (a path or command name) wins when set; otherwise the
``CC`` environment variable; otherwise the first of ``cc``/``gcc``/
``clang`` found on ``PATH``.  Discovery failure is not an error — it is
the signal :func:`native_available` turns into the one-line fallback.

Build cache layout
------------------
Compiled objects live under the user cache dir (``REPRO_NATIVE_CACHE``
overrides; else ``$XDG_CACHE_HOME/repro-native``; else
``~/.cache/repro-native``)::

    <cache root>/
      kernel-<abi>-<sha256[:16]>.so      # the compiled kernel
      kernel-<abi>-<sha256[:16]>.json    # compiler + flags provenance

The digest covers everything the binary depends on: the exact
``kernel.c`` bytes, the resolved compiler path and its ``--version``
banner, the flag list and the ABI version — touching any of them keys a
fresh compile instead of serving a stale object.  Installs are atomic
(temp file + ``os.replace`` in the cache dir, the ``repro.ioutil``
pattern), so concurrent first-use races collapse to one winner and a
reader never observes a torn shared object.

Sanitized builds
----------------
``REPRO_NATIVE_SANITIZE=1`` appends :data:`SANITIZE_FLAGS`
(AddressSanitizer, UBSan, asserts on) to the flags.  The flags are part
of the digest, so a sanitized object never serves a plain build or the
reverse.  The CI job ``native-sanitize`` runs the native test modules
and ``repro verify --kernels`` this way, with the ASan runtime preloaded
into the uninstrumented interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional, Tuple

__all__ = [
    "NativeBuildError",
    "cflags",
    "find_compiler",
    "compiler_info",
    "build_kernel",
    "cache_root",
    "kernel_source_path",
]

#: Must match NATIVE_ABI_VERSION in kernel.c; the loader verifies the
#: compiled object reports the same number through ``repro_abi()``.
ABI_VERSION = 3

#: Compilation flags (order matters: they are part of the cache key).
CFLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared", "-std=c99", "-DNDEBUG")

#: Added by ``REPRO_NATIVE_SANITIZE=1``: AddressSanitizer and UBSan with
#: asserts on.  CPython is not instrumented, so loading such a kernel
#: needs the ASan runtime preloaded
#: (``LD_PRELOAD=$(cc -print-file-name=libasan.so)``).
SANITIZE_FLAGS: Tuple[str, ...] = (
    "-fsanitize=address,undefined", "-fno-omit-frame-pointer", "-UNDEBUG",
)

_CANDIDATES = ("cc", "gcc", "clang")


def cflags() -> Tuple[str, ...]:
    """The flags this process compiles with: :data:`CFLAGS`, plus
    :data:`SANITIZE_FLAGS` when ``REPRO_NATIVE_SANITIZE=1``."""
    if os.environ.get("REPRO_NATIVE_SANITIZE") == "1":
        return CFLAGS + SANITIZE_FLAGS
    return CFLAGS


class NativeBuildError(RuntimeError):
    """The native kernel could not be compiled or loaded.

    Carries a human-readable reason; callers turn it into the one-line
    ``native`` -> ``fast`` fallback notice rather than propagating.
    """


def kernel_source_path() -> str:
    """Absolute path of the adjacent ``kernel.c`` source."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")


def find_compiler() -> Optional[str]:
    """Resolve the C compiler to use, or ``None`` when there is none.

    ``REPRO_CC`` > ``CC`` > first of ``cc``/``gcc``/``clang`` on PATH.
    An explicitly configured compiler that does not resolve yields
    ``None`` (treated as "no compiler", never a crash).
    """
    for env in ("REPRO_CC", "CC"):
        configured = os.environ.get(env)
        if configured:
            return shutil.which(configured)
    for name in _CANDIDATES:
        found = shutil.which(name)
        if found:
            return found
    return None


def _compiler_version(cc: str) -> str:
    """First line of ``cc --version`` (empty string when unqueryable)."""
    try:
        out = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.splitlines()[0].strip() if out else ""


def compiler_info() -> Optional[dict]:
    """``{"path", "version"}`` of the discovered compiler, or ``None``.

    Recorded in a benchmark run's environment record so its ``native``
    numbers document the toolchain they came from.
    """
    cc = find_compiler()
    if cc is None:
        return None
    return {"path": cc, "version": _compiler_version(cc)}


def cache_root() -> str:
    """Directory the compiled kernels are cached in (not yet created)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-native")


def _cache_key(source: bytes, cc: str, version: str) -> str:
    h = hashlib.sha256()
    for part in (
        source,
        cc.encode(),
        version.encode(),
        " ".join(cflags()).encode(),
        str(ABI_VERSION).encode(),
    ):
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()[:16]


def build_kernel(force: bool = False) -> str:
    """Return the path of a compiled, up-to-date kernel shared object.

    Serves the cached object when its digest matches; compiles (and
    atomically installs) otherwise.  ``force=True`` recompiles even on a
    cache hit — the corruption-recovery path in ``bindings.load_kernel``
    uses it when a cached object exists but fails to load.

    Raises :class:`NativeBuildError` when no compiler is available or
    the compile fails.
    """
    cc = find_compiler()
    if cc is None:
        raise NativeBuildError("no C compiler found (cc/gcc/clang)")
    src = kernel_source_path()
    try:
        with open(src, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise NativeBuildError(f"kernel source unreadable: {exc}") from exc
    version = _compiler_version(cc)
    key = _cache_key(source, cc, version)
    root = cache_root()
    lib_path = os.path.join(root, f"kernel-{ABI_VERSION}-{key}.so")
    if not force and os.path.exists(lib_path):
        return lib_path

    os.makedirs(root, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=root, prefix=f"kernel-{ABI_VERSION}-{key}.", suffix=".tmp"
    )
    os.close(fd)
    try:
        cmd: List[str] = [cc, *cflags(), "-o", tmp, src]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=300, check=False
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise NativeBuildError(
                f"C compile failed ({cc}): {detail.splitlines()[0] if detail else 'no output'}"
            )
        # Atomic install: the rename either publishes a complete object
        # or loses the race to an identical one — never a torn file.
        os.replace(tmp, lib_path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"C compile failed ({cc}): {exc}") from exc
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass
    from ..ioutil import atomic_write_json

    atomic_write_json(
        os.path.join(root, f"kernel-{ABI_VERSION}-{key}.json"),
        {
            "abi": ABI_VERSION,
            "compiler": cc,
            "compiler_version": version,
            "cflags": list(cflags()),
            "source_sha256": hashlib.sha256(source).hexdigest(),
        },
    )
    return lib_path
