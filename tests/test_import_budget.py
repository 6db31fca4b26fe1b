"""Import budgets: what a fresh interpreter loads for each entry point.

The package ``__init__``s are lazy namespaces and cold code (the split
rung, the population sampler, the brute-force oracles, the reference
engine, the fast DFS behind the root bound, the loop certificate, the
driver's straight-line back end) sits in its own modules or loads on
first use, so an entry point pays only for the modules its call
reaches.
Each row runs one entry point in a fresh interpreter and lists the
modules it must not load (``fnmatch`` patterns; a pattern also covers
the module's submodules), minus named exceptions.  A row may also cap
the ``repro`` source lines and module-level dataclasses it loads: with
no bytecode on disk, a cold start compiles every line and execs every
dataclass's generated methods.  Start-up modules declare their records
on ``repro.record.Record`` instead, which builds them with no ``exec``.
A record answers ``dataclasses.is_dataclass`` through a field table it
builds on first use, so only classes with their own
``__dataclass_params__`` count: real ``@dataclass``es, and records a
``dataclasses`` function has already read.  perf's harness calls
``dataclasses.replace`` on ``SearchOptions``, ``SearchResult``,
``ScheduleTiming`` and ``CompilationResult`` and pays that import
itself; no cold start loads ``dataclasses`` or its ``inspect``.  The
first-call rows replay ``perf/workloads.py``'s own ``FIRST_CALL``
script with one payload per workload, so they pin the path ``setup_s``
measures; the daemon row stops at the first 200 from
``/v1/health/ready``.
"""

import ast
import fnmatch
import importlib
import json
import os
import subprocess
import sys
from typing import NamedTuple, Optional, Tuple

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perf_constant(filename: str, name: str):
    """A literal module-level constant of ``perf/<filename>``, read
    without importing it."""
    with open(os.path.join(ROOT, "perf", filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node.value
    raise AssertionError(f"perf/{filename} defines no {name}")


def _first_call(kind: str, payload: dict) -> Tuple[str, str]:
    """perf's first-call script and its stdin for one workload."""
    script = ast.literal_eval(_perf_constant("workloads.py", "FIRST_CALL"))
    return script + "\n_report()\n", json.dumps([kind, payload])


#: Defines ``_report()``: print the modules loaded so far, and the repro
#: source lines and module-level dataclasses among them, as JSON.
_PRELUDE = '''
def _report():
    import sys
    modules = sorted(sys.modules)
    import json
    own = [m for m in modules if m == "repro" or m.startswith("repro.")]
    lines = classes = 0
    for name in own:
        module = sys.modules[name]
        path = getattr(module, "__file__", None) or ""
        if path.endswith(".py"):
            with open(path, encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
        classes += sum(
            1 for v in vars(module).values()
            if isinstance(v, type) and "__dataclass_params__" in vars(v) and v.__module__ == name
        )
    print(json.dumps({"modules": modules, "lines": lines, "dataclasses": classes}), flush=True)
'''

_SEARCH_PATH = """
import repro.service.cache
from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.sched.search import SearchOptions, schedule_block
from repro.sched.splitting import schedule_block_split
dag = DependenceDAG(parse_block(
    "1: Load #a\\n2: Load #b\\n3: Mul 1, 2\\n4: Add 3, 1\\n5: Store #c, 4"
))
machine = get_machine("paper-simulation")
schedule_block(dag, machine, SearchOptions(engine="fast"))
schedule_block_split(dag, machine, window=2)
_report()
"""

#: The ILP backend ignores ``options.engine``, so asking for the native
#: engine must not build or load the C kernel.
_ILP_BACKEND = """
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.sched.search import SearchOptions, schedule_block
schedule_block(parse_block("1: Load #a\\n2: Load #b\\n3: Mul 1, 2\\n4: Store #c, 3"),
               get_machine("paper-simulation"), SearchOptions(engine="native"), backend="ilp")
_report()
"""

#: One job of the daemon's worker pool, run as a worker runs it.
_WORKER_JOB = """
from repro.resilience.pool import JobHandle
from repro.sched.search import SearchOptions
from repro.service.cache import ScheduleCache
from repro.service.jobs import execute_job
args = ("b0", "1: Load #a\\n2: Load #b\\n3: Mul 1, 2\\n4: Store #c, 3",
        "paper-simulation", SearchOptions(), None)
execute_job(ScheduleCache().store_only(), args, JobHandle(None, 0, 0, None))
_report()
"""

#: ``repro serve`` as perf's service workload starts it, reported from a
#: probe thread once ``/v1/health/ready`` answers.  ``--workers 0``
#: keeps every process in this one (the daemon imports the pool either
#: way, and a forked worker would outlive the report).  The probe speaks
#: HTTP on a raw socket, so the report lists what the daemon loads.
_DAEMON_READY = """
import json, os, socket, tempfile, threading, time
ready = os.path.join(tempfile.mkdtemp(), "ready.json")

def _probe():
    while not os.path.exists(ready):
        time.sleep(0.01)
    with open(ready, encoding="utf-8") as fh:
        host, port = json.load(fh)["url"].rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(b"GET /v1/health/ready HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n")
        assert sock.recv(12) == b"HTTP/1.1 200"
    _report()
    os._exit(0)

threading.Thread(target=_probe, daemon=True).start()
import repro.console
repro.console.main(["serve", "--port", "0", "--workers", "0", "--ready-file", ready])
"""

_BLOCK = "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3"

#: Loaded only by a whole-population run (the sampler, the front end,
#: the optimizer), a timed-out block (the split rung), a loop, the
#: multi-pipeline scheduler, the verify oracle or the reference engine.
_COLD = ("repro.frontend.lowering", "repro.opt", "repro.synth.population", "repro.synth.stats",
         "repro.sched.splitting", "repro.sched.multi", "repro.ir.loop", "repro.verify.brute",
         "repro.sched.reference")

#: ``fractions`` loads ``decimal`` and libmpdec; only a ``Div`` that runs
#: needs it.
_FRACTIONS = ("fractions", "decimal", "_decimal")

#: Modules that map a shared library of their own: ``hashlib`` maps
#: OpenSSL's libcrypto, ``fractions`` loads ``decimal`` and libmpdec.
_NATIVE_LIBS = ("hashlib", "_hashlib", *_FRACTIONS)

#: ``dataclasses`` and the ``inspect`` it imports (with ``ast``, ``dis``
#: and ``tokenize``): only a caller of ``dataclasses``' functions needs them.
_DATACLASSES = ("dataclasses", "inspect")

#: The straight-line back end: a loop compilation runs none of it.
_STRAIGHT_LINE = ("repro.codegen", "repro.opt", "repro.regalloc", "repro.simulator",
                  "repro.sched.heuristics")


class Row(NamedTuple):
    script: str
    stdin: str = ""
    forbidden: Tuple[str, ...] = ()
    allowed: Tuple[str, ...] = ()
    #: Ceilings on the repro source lines and dataclasses loaded.
    max_lines: Optional[int] = None
    max_dataclasses: Optional[int] = None


BUDGETS = {
    # The block search is pure Python: the cache layer plus one fast
    # search and one windowed split never pull numpy into the process,
    # nor the reference engine.  The split's windows run on the block
    # search, so the split rung adds little source of its own.
    "search-path-no-numpy": Row(_SEARCH_PATH, forbidden=("numpy", "repro.sched.reference"),
                                max_lines=4_958),
    "import-repro": Row("import repro\n_report()", forbidden=("repro.*",)),
    "ilp-backend": Row(_ILP_BACKEND, forbidden=("repro.native",)),
    "console-help": Row(
        "import repro.console\nrepro.console.main(['--help'])\n_report()",
        forbidden=("repro.*",), allowed=("repro.console",),
    ),
    "console-version": Row(
        "import repro.console\nrepro.console.main(['-V'])\n_report()",
        forbidden=("repro.*",), allowed=("repro.console",),
    ),
    # A straight-line compile pays for neither the experiment suite, the
    # daemon, the loop pipeliner nor the timeline renderer.
    "compile-cli": Row(
        "import repro.console\n"
        "repro.console.main(['compile', '-e', 'b = 15; a = b * a;'])\n_report()",
        forbidden=("repro.experiments", "repro.service", "multiprocessing",
                   "repro.sched.pipelining", "repro.analysis", "repro.sched.reference"),
    ),
    # ``repro serve`` forks its workers before it loads the HTTP front
    # end; the job they run must not pull that stack back in, nor map
    # OpenSSL (``hashlib``) or libmpdec (``fractions`` loads ``decimal``).
    "service-worker-job": Row(
        _WORKER_JOB,
        forbidden=("http", "email", "ssl", "socketserver", "repro.sched.reference",
                   *_NATIVE_LIBS, *_DATACLASSES),
        max_dataclasses=0,
    ),
    # One block's trip down the ladder needs the rung names, not the
    # budgets; a plain compile runs neither the spill pre-pass nor the
    # heuristic baselines; the daemon loads fault injection only under
    # ``--chaos``.  The searches count their prunes without the
    # telemetry registry, a block its root bound closes never loads the
    # DFS, and only a loop loads the loop certificate.
    "population-first-call": Row(
        *_first_call("population",
                     {"text": _BLOCK, "name": "b0", "machine": "paper-simulation"}),
        forbidden=("multiprocessing", "repro.driver", "repro.analysis", "repro.sched.pipelining",
                   "repro.ilp", "repro.native", "repro.service", "numpy", "repro.experiments.*",
                   "repro.ir.interp", *_FRACTIONS, "repro.resilience.budget", "repro.telemetry",
                   "repro.sched.dfs", "repro.verify.steady_state", *_COLD, *_DATACLASSES),
        allowed=("repro.experiments.runner",),
        max_lines=4_730, max_dataclasses=0,
    ),
    # This block's root bound (3 NOPs) leaves its seed (4) open, so the
    # call runs the DFS and loads ``repro.sched.dfs``; no ``Div`` runs.
    "compile-first-call": Row(
        *_first_call("compile", {"source": "a = b * c; d = a + b;", "machine": "paper-simulation",
                                 "barrier": False, "memory": {"b": 2, "c": 3}}),
        forbidden=("repro.experiments", "repro.service", "repro.resilience", "repro.synth",
                   "repro.verify", "repro.sched.pipelining", "repro.sched.interblock",
                   "repro.sched.splitting", "repro.sched.multi", "repro.ir.loop", "repro.ilp",
                   "repro.native", "repro.analysis", "repro.sched.reference", "multiprocessing",
                   "numpy", "repro.regalloc.spill", "repro.sched.heuristics", "repro.telemetry",
                   *_FRACTIONS, *_DATACLASSES),
        max_lines=6_222, max_dataclasses=0,
    ),
    "loops-first-call": Row(
        *_first_call("loops", {"source": "for i in 0..8 { p = a * b; a = a + b; }",
                               "machine": "paper-simulation", "memory": {"a": 3, "b": 2}}),
        forbidden=("repro.experiments", "repro.service", "repro.resilience", "repro.synth",
                   "repro.verify.brute", "repro.verify.oracle", "repro.verify.loops",
                   "repro.sched.splitting", "repro.sched.multi", "repro.sched.interblock",
                   "repro.ilp", "repro.native", "repro.analysis", "repro.sched.reference",
                   "multiprocessing", "numpy", "repro.sched.dfs", "repro.telemetry", *_FRACTIONS,
                   *_STRAIGHT_LINE, *_DATACLASSES),
        max_lines=6_273, max_dataclasses=0,
    ),
    # The daemon speaks its HTTP subset on socketserver: none of
    # http.server's stack (http.client, email, ssl, html, mimetypes).
    # Whatever it maps before fork, each worker maps again.
    "daemon-ready": Row(
        _DAEMON_READY,
        forbidden=("repro.frontend", "repro.driver", "repro.sched.pipelining", "repro.ir.interp",
                   "repro.ilp", "repro.native", "repro.analysis", "repro.synth", "numpy", "http",
                   "email", "ssl", "html", "mimetypes", "repro.resilience.faults", *_NATIVE_LIBS,
                   "repro.verify.steady_state", *_COLD, *_DATACLASSES),
        max_lines=8_097, max_dataclasses=0,
    ),
    # A client of the daemon loads the protocol's payload helpers, not
    # the daemon, its cache, the schedulers or the worker pool.
    "service-client": Row(
        "import repro.service.client\n_report()",
        forbidden=("repro.service.server", "repro.service.cache", "repro.sched", "repro.verify",
                   "repro.resilience"),
    ),
}


def load_report(script: str, stdin: str = "") -> dict:
    """``_report()``'s record from ``script`` run in a fresh interpreter
    without bytecode."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + script],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=src_dir, PYTHONDONTWRITEBYTECODE="1"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def over_budget(modules, forbidden, allowed) -> list:
    return [
        m for m in modules
        if m not in allowed
        and any(fnmatch.fnmatch(m, p) or m.startswith(p + ".") for p in forbidden)
    ]


@pytest.mark.parametrize("row", sorted(BUDGETS))
def test_import_budget(row):
    budget = BUDGETS[row]
    report = load_report(budget.script, budget.stdin)
    assert over_budget(report["modules"], budget.forbidden, budget.allowed) == []
    if budget.max_lines is not None:
        assert report["lines"] <= budget.max_lines
    if budget.max_dataclasses is not None:
        assert report["dataclasses"] <= budget.max_dataclasses


def test_traced_layers_resolve():
    """Every ``(owner, name)`` that perf's traced run wraps still exists
    where ``perf/spans.py`` looks it up: a moved name would make the
    traced run raise, or lose a layer."""
    layers = _perf_constant("spans.py", "LAYERS")
    assert isinstance(layers, ast.Tuple) and layers.elts
    for entry in layers.elts:
        owner, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert hasattr(obj, attr), f"{owner}:{attr}"


def test_loop_certificate_calls_go_through_the_traced_module(monkeypatch):
    """``compile_loop`` reaches the loop certificate, and its replay the
    block certificate, through ``repro.verify.certificate``: wrappers
    installed there, as perf's traced run installs them, see both
    calls although the loop certificate lives in its own module."""
    import repro.verify.certificate as certificate
    from repro.driver import compile_loop
    from repro.machine.presets import get_machine

    calls = []
    for name in ("check_steady_state", "check_schedule"):
        original = getattr(certificate, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(certificate, name, wrapper)
    compile_loop("for i in 0..4 { v = v * d; }", get_machine("paper-simulation"))
    assert calls.count("check_steady_state") == 1
    assert "check_schedule" in calls
