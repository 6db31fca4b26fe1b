"""Shared libraries the scheduling daemon and its workers map.

``VmHWM`` counts every resident page of a process, shared or not, so a
library the daemon maps before it forks is paid once by the daemon and
once again by each worker.  The service runs nothing from OpenSSL
(``hashlib``) or libmpdec (``decimal``, which ``fractions`` loads).  The
import budgets pin the modules; this test reads ``/proc/<pid>/maps`` of
a real ``repro serve`` after a miss and a hit, so it also catches a
library arriving by a route no budget row runs, such as a lazy stdlib
import inside the pool or the front end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.service.client import ServiceClient

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps"
)

#: Substrings of mapped file names no service process may map.
_UNUSED = ("libcrypto", "libssl", "_hashlib", "_decimal", "libmpdec")

_BLOCK = "1: Load #a\n2: Load #b\n3: Div 1, 2\n4: Store #c, 3"


def _children(pid: int) -> list:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _mapped_files(pid: int) -> set:
    with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
        return {os.path.basename(parts[5]) for parts in map(str.split, fh) if len(parts) >= 6}


def test_daemon_and_worker_map_no_unused_library(tmp_path):
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    ready = tmp_path / "ready.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.console", "serve", "--port", "0", "--workers", "1",
         "--cache", str(tmp_path / "store"), "--ready-file", str(ready)],
        env=dict(os.environ, PYTHONPATH=src_dir),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 30
        while not ready.exists():
            assert proc.poll() is None, proc.stdout.read().decode()
            assert time.monotonic() < deadline, "daemon never became ready"
            time.sleep(0.05)
        client = ServiceClient(json.loads(ready.read_text())["url"], timeout=60.0)
        first = client.schedule([_BLOCK], "paper-simulation")
        second = client.schedule([_BLOCK], "paper-simulation")
        assert (first["stats"]["misses"], second["stats"]["hits"]) == (1, 1)

        workers = _children(proc.pid)
        assert len(workers) == 1
        for pid in [proc.pid, *workers]:
            mapped = _mapped_files(pid)
            assert [f for f in mapped if any(lib in f for lib in _UNUSED)] == [], pid
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
