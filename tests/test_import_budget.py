"""Import budgets: what a fresh interpreter loads for each entry point.

The package ``__init__``s are lazy namespaces, so an entry point pays
only for the modules its call reaches.  Each row runs one entry point in
a fresh interpreter and lists the modules it must not load (``fnmatch``
patterns; a pattern also covers the module's submodules), minus named
exceptions.  The population row replays ``perf/run.py``'s own
first-call script, so it pins the path ``setup_s`` measures.
"""

import ast
import fnmatch
import json
import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perf_first_call() -> str:
    """``FIRST_CALL`` from ``perf/workloads.py``, read without importing it."""
    with open(os.path.join(ROOT, "perf", "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FIRST_CALL" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perf/workloads.py defines no FIRST_CALL")


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
"""

_POPULATION_PAYLOAD = json.dumps(
    ["population", {"text": "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3",
                    "name": "b0", "machine": "paper-simulation"}]
)

#: One job of the daemon's worker pool, run as a worker runs it.
_WORKER_JOB = """
from repro.resilience.pool import JobHandle
from repro.sched.search import SearchOptions
from repro.service.cache import ScheduleCache
from repro.service.jobs import execute_job
args = ("b0", "1: Load #a\\n2: Load #b\\n3: Mul 1, 2\\n4: Store #c, 3",
        "paper-simulation", SearchOptions(), None)
execute_job(ScheduleCache().store_only(), args, JobHandle(None, 0, 0, None))
"""

#: id -> (script, stdin, forbidden patterns, allowed exceptions)
BUDGETS = {
    # The block search is pure Python: the cache layer plus one fast
    # search and one windowed split never pull numpy into the process.
    "search-path-no-numpy": (_SEARCH_PATH, "", ("numpy",), ()),
    "import-repro": ("import repro", "", ("repro.*",), ()),
    "console-help": (
        "import repro.console\nrepro.console.main(['--help'])", "",
        ("repro.*",), ("repro.console",),
    ),
    "console-version": (
        "import repro.console\nrepro.console.main(['-V'])", "",
        ("repro.*",), ("repro.console",),
    ),
    # A straight-line compile pays for neither the experiment suite, the
    # daemon, the loop pipeliner nor the timeline renderer.
    "compile-cli": (
        "import repro.console\nrepro.console.main(['compile', '-e', 'b = 15; a = b * a;'])", "",
        ("repro.experiments", "repro.service", "multiprocessing", "repro.sched.pipelining",
         "repro.analysis"), (),
    ),
    # ``repro serve`` forks its workers before it loads the HTTP front
    # end; the job they run must not pull that stack back in.
    "service-worker-job": (
        _WORKER_JOB, "", ("http", "email", "ssl", "socketserver"), (),
    ),
    "population-first-call": (
        _perf_first_call(), _POPULATION_PAYLOAD,
        ("multiprocessing", "repro.driver", "repro.analysis", "repro.sched.pipelining",
         "repro.ilp", "repro.native", "repro.service", "numpy", "repro.experiments.*"),
        ("repro.experiments.runner",),
    ),
}

_REPORT = "\nimport json as _json, sys as _sys\nprint(_json.dumps(sorted(_sys.modules)))\n"


def loaded_modules(script: str, stdin: str = "") -> list:
    """Every module in ``sys.modules`` after ``script`` runs in a fresh
    interpreter."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script + _REPORT],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=src_dir),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
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
    script, stdin, forbidden, allowed = BUDGETS[row]
    modules = loaded_modules(script, stdin)
    assert over_budget(modules, forbidden, allowed) == []

