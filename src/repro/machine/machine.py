"""Machine descriptions: pipelines plus the operation-to-pipeline mapping.

Section 4.1: a machine is described by two tables — the pipeline
description table (function, identifier, latency, enqueue time) and the
operation-to-pipeline mapping, which associates each operation type with
the *set* of pipelines able to execute it.

Operations mapped to the empty set (``Add`` on the paper's simulation
machine, ``Store`` and ``Const`` everywhere) execute without any pipeline
resource: they cause no enqueue conflicts and their results are available
on the next clock tick (effective latency 1) — exactly step [2] of the
NOP-insertion algorithm, which skips the conflict check when
``sigma(zeta)`` is empty.

The scheduling algorithm of section 4.2 "does not support" choosing among
several pipelines for one operation (footnote 3), so the core scheduler
requires a *deterministic* machine: at most one pipeline per operation
type.  :meth:`MachineDescription.fixed_assignment` converts a
multi-pipeline machine into a deterministic view by round-robin
pre-assignment; the extension scheduler in ``repro.sched.multi`` searches
over the assignment instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..ir.ops import Opcode
from .pipeline import PipelineDesc

if TYPE_CHECKING:
    from ..ir.dag import DependenceDAG

#: Effective latency of operations that use no pipeline: the result is
#: available on the next clock tick.
UNPIPELINED_LATENCY = 1


class MachineValidationError(ValueError):
    """Raised when a machine description is internally inconsistent.

    ``field`` names the offending entry when the error was raised against
    structured input (e.g. ``"pipelines[2].latency"`` for a machine built
    from a dict/JSON payload), so callers can point users at the exact
    datum instead of echoing a whole description.  ``None`` when the
    inconsistency is not attributable to a single field.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class MachineDescription:
    """A pipelined target machine (paper Tables 2+3 or 4+5).

    Parameters
    ----------
    name:
        Human-readable label.
    pipelines:
        The pipeline description table.
    op_map:
        Operation-to-pipeline-set mapping.  Operations absent from the
        mapping use no pipeline (the empty set).
    """

    name: str
    pipelines: Tuple[PipelineDesc, ...]
    op_map: Mapping[Opcode, FrozenSet[int]]

    def __init__(
        self,
        name: str,
        pipelines: Iterable[PipelineDesc],
        op_map: Mapping[Opcode, Iterable[int]],
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pipelines", tuple(pipelines))
        object.__setattr__(
            self,
            "op_map",
            # Empty sets are normalized away: "not mapped" and "mapped to
            # no pipeline" mean the same thing and must compare equal.
            {
                op: frozenset(pids)
                for op, pids in op_map.items()
                if frozenset(pids)
            },
        )
        object.__setattr__(
            self, "_by_ident", {p.ident: p for p in self.pipelines}
        )
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if len(self._by_ident) != len(self.pipelines):
            raise MachineValidationError("duplicate pipeline identifiers")
        for op, pids in self.op_map.items():
            for pid in pids:
                if pid not in self._by_ident:
                    raise MachineValidationError(
                        f"operation {op.value} mapped to unknown pipeline {pid}"
                    )

    # ------------------------------------------------------------------
    # Pipeline lookups
    # ------------------------------------------------------------------
    def pipeline(self, ident: int) -> PipelineDesc:
        try:
            return self._by_ident[ident]
        except KeyError:
            raise KeyError(f"machine {self.name} has no pipeline {ident}") from None

    def pipelines_for(self, op: Opcode) -> FrozenSet[int]:
        """The set of pipeline identifiers able to execute ``op``
        (sigma choices); empty when the operation uses no pipeline."""
        return self.op_map.get(op, frozenset())

    def sigma(self, op: Opcode) -> Optional[int]:
        """Definition 3 for deterministic machines — *the* pipeline used
        by ``op``, or ``None`` for unpipelined operations.

        Raises for operations with more than one viable pipeline: the
        core section-4.2 algorithm does not choose among pipelines
        (footnote 3); use :meth:`fixed_assignment` or the
        ``repro.sched.multi`` extension for those machines.
        """
        choices = self.pipelines_for(op)
        if not choices:
            return None
        if len(choices) > 1:
            raise MachineValidationError(
                f"operation {op.value} maps to pipelines "
                f"{sorted(choices)} on {self.name}; the core scheduler "
                "requires a deterministic machine (see fixed_assignment())"
            )
        return next(iter(choices))

    @property
    def is_deterministic(self) -> bool:
        """True when every operation maps to at most one pipeline."""
        return all(len(pids) <= 1 for pids in self.op_map.values())

    def latency_of(self, op: Opcode, pipeline_ident: Optional[int] = None) -> int:
        """Result latency of ``op`` (on ``pipeline_ident`` when given)."""
        if pipeline_ident is None:
            pipeline_ident = self.sigma(op)
        if pipeline_ident is None:
            return UNPIPELINED_LATENCY
        return self.pipeline(pipeline_ident).latency

    def enqueue_time_of(self, op: Opcode, pipeline_ident: Optional[int] = None) -> int:
        if pipeline_ident is None:
            pipeline_ident = self.sigma(op)
        if pipeline_ident is None:
            return 0
        return self.pipeline(pipeline_ident).enqueue_time

    # ------------------------------------------------------------------
    # Multi-pipeline support
    # ------------------------------------------------------------------
    def fixed_assignment(self) -> "MachineDescription":
        """A deterministic view of this machine.

        Operations with several viable pipelines are pinned to the
        lowest-numbered one.  This is the conservative baseline that the
        multi-pipeline extension scheduler is compared against: it throws
        away the hardware parallelism among same-function pipelines, just
        as a compiler ignorant of the choice would.
        """
        if self.is_deterministic:
            return self
        pinned = {
            op: frozenset([min(pids)]) if pids else frozenset()
            for op, pids in self.op_map.items()
        }
        return MachineDescription(f"{self.name}[pinned]", self.pipelines, pinned)

    @property
    def max_latency(self) -> int:
        return max((p.latency for p in self.pipelines), default=UNPIPELINED_LATENCY)

    @property
    def max_enqueue_time(self) -> int:
        return max((p.enqueue_time for p in self.pipelines), default=0)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Render both tables in the paper's format."""
        lines = [f"Machine: {self.name}", "Pipeline description table:"]
        lines.append("  function      id  latency  enqueue")
        for p in self.pipelines:
            lines.append(
                f"  {p.function:<12}  {p.ident:>2}  {p.latency:>7}  {p.enqueue_time:>7}"
            )
        lines.append("Operation-to-pipeline mapping:")
        for op in Opcode:
            pids = self.pipelines_for(op)
            rendered = "{" + ", ".join(str(i) for i in sorted(pids)) + "}"
            lines.append(f"  {op.value:<6} -> {rendered if pids else '{}'}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"MachineDescription({self.name!r}, {len(self.pipelines)} pipelines)"


def first_pipeline_assignment(
    dag: DependenceDAG, machine: MachineDescription
) -> Dict[int, Optional[int]]:
    """Pin every tuple to the lowest-numbered viable pipeline (the
    per-tuple form of :meth:`MachineDescription.fixed_assignment`)."""
    out: Dict[int, Optional[int]] = {}
    for t in dag.block:
        pids = machine.pipelines_for(t.op)
        out[t.ident] = min(pids) if pids else None
    return out
