"""Import budgets: what a fresh interpreter loads for each entry point.

The package ``__init__``s are lazy namespaces and cold code (the split
rung, the population sampler, the brute-force oracles) sits in its own
modules, so an entry point pays only for the modules its call reaches.
Each row runs one entry point in a fresh interpreter and lists the
modules it must not load (``fnmatch`` patterns; a pattern also covers
the module's submodules), minus named exceptions.  A row may also cap
the ``repro`` source lines and module-level dataclasses it loads: with
no bytecode on disk, a cold start compiles every line and execs every
dataclass's generated methods.  The first-call rows replay
``perf/workloads.py``'s own ``FIRST_CALL`` script with one payload per
workload, so they pin the path ``setup_s`` measures; the daemon row
stops at the first 200 from ``/v1/health/ready``.
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
    import dataclasses, json
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
            if isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == name
        )
    print(json.dumps({"modules": modules, "lines": lines, "dataclasses": classes}), flush=True)
'''

_SEARCH_PATH = """
import repro.service.cache
from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.sched.search import schedule_block
from repro.sched.splitting import schedule_block_split
dag = DependenceDAG(parse_block(
    "1: Load #a\\n2: Load #b\\n3: Mul 1, 2\\n4: Add 3, 1\\n5: Store #c, 4"
))
machine = get_machine("paper-simulation")
schedule_block(dag, machine, engine="fast")
schedule_block_split(dag, machine, window=2)
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
#: way, and a forked worker would outlive the report).
_DAEMON_READY = """
import http.client, json, os, tempfile, threading, time
ready = os.path.join(tempfile.mkdtemp(), "ready.json")

def _probe():
    while not os.path.exists(ready):
        time.sleep(0.01)
    with open(ready, encoding="utf-8") as fh:
        host, port = json.load(fh)["url"].rsplit("/", 1)[-1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    conn.request("GET", "/v1/health/ready")
    assert conn.getresponse().status == 200
    _report()
    os._exit(0)

threading.Thread(target=_probe, daemon=True).start()
import repro.console
repro.console.main(["serve", "--port", "0", "--workers", "0", "--ready-file", ready])
"""

_BLOCK = "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3"

#: Loaded only by a whole-population run (the sampler, the front end,
#: the optimizer), a timed-out block (the split rung), a loop, the
#: multi-pipeline scheduler or the verify oracle.
_COLD = ("repro.frontend.lowering", "repro.opt", "repro.synth.population", "repro.synth.stats",
         "repro.sched.splitting", "repro.sched.multi", "repro.ir.loop", "repro.verify.brute")


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
    # search and one windowed split never pull numpy into the process.
    "search-path-no-numpy": Row(_SEARCH_PATH, forbidden=("numpy",)),
    "import-repro": Row("import repro\n_report()", forbidden=("repro.*",)),
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
                   "repro.sched.pipelining", "repro.analysis"),
    ),
    # ``repro serve`` forks its workers before it loads the HTTP front
    # end; the job they run must not pull that stack back in.
    "service-worker-job": Row(
        _WORKER_JOB, forbidden=("http", "email", "ssl", "socketserver"),
    ),
    "population-first-call": Row(
        *_first_call("population",
                     {"text": _BLOCK, "name": "b0", "machine": "paper-simulation"}),
        forbidden=("multiprocessing", "repro.driver", "repro.analysis", "repro.sched.pipelining",
                   "repro.ilp", "repro.native", "repro.service", "numpy", "repro.experiments.*",
                   "repro.ir.interp", *_COLD),
        allowed=("repro.experiments.runner",),
        max_lines=6_700, max_dataclasses=30,
    ),
    "compile-first-call": Row(
        *_first_call("compile", {"source": "a = b * c; d = a + b;", "machine": "paper-simulation",
                                 "barrier": False, "memory": {"b": 2, "c": 3}}),
        forbidden=("repro.experiments", "repro.service", "repro.resilience", "repro.synth",
                   "repro.verify", "repro.sched.pipelining", "repro.sched.interblock",
                   "repro.sched.splitting", "repro.sched.multi", "repro.ir.loop", "repro.ilp",
                   "repro.native", "repro.analysis", "multiprocessing", "numpy"),
        max_lines=7_500, max_dataclasses=34,
    ),
    "loops-first-call": Row(
        *_first_call("loops", {"source": "for i in 0..8 { p = a * b; a = a + b; }",
                               "machine": "paper-simulation", "memory": {"a": 3, "b": 2}}),
        forbidden=("repro.experiments", "repro.service", "repro.resilience", "repro.synth",
                   "repro.verify.brute", "repro.verify.oracle", "repro.verify.loops",
                   "repro.sched.splitting", "repro.sched.multi", "repro.ilp", "repro.native",
                   "repro.analysis", "multiprocessing", "numpy"),
        max_lines=9_300, max_dataclasses=42,
    ),
    "daemon-ready": Row(
        _DAEMON_READY,
        forbidden=("repro.frontend", "repro.driver", "repro.sched.pipelining", "repro.ir.interp",
                   "repro.ilp", "repro.native", "repro.analysis", "numpy", *_COLD),
        max_lines=9_800, max_dataclasses=24,
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
