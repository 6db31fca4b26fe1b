"""Pipeline descriptions.

Section 2.1 of the paper identifies the two parameters the compiler must
know per pipeline:

* **latency** — clock ticks between enqueuing an operation and its result
  becoming available (the minimum issue distance between a producer and a
  dependent consumer);
* **enqueue time** — the minimum clock ticks between enqueuing two
  operations into the *same* pipeline (conflict delay).

A classical pipeline has enqueue time 1; a non-pipelined functional unit
that can overlap with other units is modelled by ``enqueue_time ==
latency`` (section 2.1).
"""

from __future__ import annotations

from ..record import Record, setslot


class PipelineDesc(Record):
    """One row of a pipeline description table (paper Tables 2 and 4)."""

    __slots__ = ("function", "ident", "latency", "enqueue_time")

    def __init__(self, function: str, ident: int, latency: int, enqueue_time: int):
        setslot(self, "function", function)
        setslot(self, "ident", ident)
        setslot(self, "latency", latency)
        setslot(self, "enqueue_time", enqueue_time)
        if self.ident < 1:
            raise ValueError("pipeline identifiers start at 1")
        if self.latency < 1:
            raise ValueError("pipeline latency must be at least 1 clock tick")
        if self.enqueue_time < 1:
            raise ValueError("pipeline enqueue time must be at least 1 clock tick")
        if self.enqueue_time > self.latency:
            # An operation's result is available after `latency`; a unit
            # cannot remain busier accepting work than producing results
            # in this model (enqueue == latency is the unpipelined case).
            raise ValueError(
                "enqueue time cannot exceed latency "
                f"({self.enqueue_time} > {self.latency})"
            )

    def __str__(self) -> str:
        return (
            f"pipeline {self.ident} ({self.function}): "
            f"latency={self.latency}, enqueue={self.enqueue_time}"
        )
