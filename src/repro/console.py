"""The unified ``repro`` command — one entry point, five subcommands.

::

    repro compile -e "b = 15; a = b * a;"
    repro compile -e "for i in 0..8 { p = a * b; a = a + b; }" --show asm
    repro experiments table7 --blocks 200
    repro verify --kernels --machines all
    repro verify --loops --machines all
    repro bench --blocks 80
    repro serve --port 8123 --cache /var/cache/repro

Each subcommand delegates to the corresponding tool module
(``repro.cli``, ``repro.experiments.cli``, ``repro.verify.cli``,
``repro.bench.cli``, ``repro.service.cli``); the shared flags
(``--engine``, ``--seed``, ``--curtail``, ``--stats-json``, the budget
and timeout knobs) come from one registry in :mod:`repro.cliutil`, so
their names and defaults cannot drift between tools.  Subcommand
modules are imported lazily so ``repro compile`` does not pay for the
experiment suite's imports.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Optional

PROG = "repro"

#: subcommand -> (module path, one-line description).  The module must
#: expose ``main(argv, prog=...) -> int``.
SUBCOMMANDS = {
    "compile": (
        "repro.cli",
        "compile source (or tuple notation) to assembly; bounded loops "
        "are modulo-scheduled into a software-pipelined kernel",
    ),
    "experiments": (
        "repro.experiments.cli",
        "regenerate the paper's tables and figures",
    ),
    "verify": (
        "repro.verify.cli",
        "differential oracle: certify every scheduler against the checker "
        "(--optimality adds the ILP witness, --loops the modulo tier)",
    ),
    "bench": (
        "repro.bench.cli",
        "benchmark the search engines vs the reference, or the serve "
        "daemon under load/chaos (--service)",
    ),
    "serve": (
        "repro.service.cli",
        "batch scheduling daemon: supervised worker pool, result cache, "
        "graceful drain",
    ),
}


def _usage(stream) -> None:
    print(f"usage: {PROG} <subcommand> [options]", file=stream)
    print("\nsubcommands:", file=stream)
    for name, (_, blurb) in SUBCOMMANDS.items():
        print(f"  {name:<12} {blurb}", file=stream)
    print(
        f"\nRun '{PROG} <subcommand> --help' for per-subcommand options.",
        file=stream,
    )


def _resolve(name: str) -> Callable[..., int]:
    import importlib

    module_path, _ = SUBCOMMANDS[name]
    return importlib.import_module(module_path).main


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _usage(sys.stdout)
        return 0
    if argv[0] in ("-V", "--version"):
        from . import __version__

        print(f"{PROG} {__version__}")
        return 0
    name, rest = argv[0], argv[1:]
    if name not in SUBCOMMANDS:
        print(f"{PROG}: unknown subcommand {name!r}\n", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    return _resolve(name)(rest, prog=f"{PROG} {name}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
