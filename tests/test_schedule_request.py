"""Unsupported backend/option combinations in a scheduling request.

A request to :func:`repro.sched.search.schedule_block` is a block, a
machine, search options and a backend.  A combination a backend cannot
honor must fail with the uniform structured error of
:func:`repro.sched.search.unsupported_backend_option`
(``error.backend`` / ``error.field``), whatever else the options say.
"""

from __future__ import annotations

import pytest

from repro.ir import DependenceDAG, parse_block
from repro.machine.presets import get_machine
from repro.sched.search import SearchOptions, schedule_block

BLOCK = parse_block(
    "1: Load #a\n"
    "2: Load #b\n"
    "3: Mul 1, 2\n"
    "4: Add 3, 2\n"
    "5: Store #a, 4"
)


@pytest.fixture
def machine():
    return get_machine("paper-simulation")


@pytest.mark.parametrize(
    "kwargs, field",
    [
        # The ILP backend ignores the engine, so a non-default engine
        # must not change how the register budget is refused.
        (dict(options=SearchOptions(max_live=3, engine="reference")), "max_live"),
        (dict(options=SearchOptions(max_live=3)), "max_live"),
    ],
)
def test_ilp_backend_rejects_search_only_fields(machine, kwargs, field):
    with pytest.raises(ValueError) as excinfo:
        schedule_block(
            DependenceDAG(BLOCK), machine, backend="ilp", **kwargs
        )
    assert excinfo.value.backend == "ilp"
    assert excinfo.value.field == field
    assert repr(field) in str(excinfo.value)
