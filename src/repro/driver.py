"""End-to-end compiler driver.

Wires the whole prototype back end of Figure 2 together::

    source --> tuples --> optimizer --> (spill pre-pass) --> list schedule
           --> pipeline scheduler --> register allocation --> assembly

and optionally closes the loop by executing the generated NOP-padded
stream on the cycle-accurate simulator and comparing the final memory
against the source-level interpreter.

Two entry points over one compile loop:

* :func:`compile_program` — a multi-block program partitioned by
  ``barrier;`` statements, each block scheduled under its predecessors'
  carry-out pipeline state (footnote 1 / ``repro.sched.nop_insertion.carry_out``);
* :func:`compile_source` — its one-block case (the paper's core case),
  verified by :func:`verify_program` as a one-block program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from . import _lazy_namespace
from .frontend.ast import ForLoop, Program, run_program
from .frontend.lowering import lower_program
from .frontend.parser import parse_program
from .ir.block import BasicBlock
from .ir.dag import DependenceDAG
from .ir.tuples import IRTuple, RefOperand
from .machine.machine import DelayDiscipline, MachineDescription
from .record import Record, setslot
from .sched.list_scheduler import list_schedule, program_order
from .sched.nop_insertion import (
    InitialConditions,
    ScheduleTiming,
    SigmaResolver,
    carry_out,
    compute_timing,
)
from .sched.search import SearchOptions, SearchResult, schedule_block

if TYPE_CHECKING:
    from .codegen.assembly import AssemblyProgram
    from .regalloc.allocator import RegisterAllocation
    from .telemetry import Telemetry

#: The straight-line back end, which a loop compilation never runs: its
#: names load on first use, as module globals, so perf's traced run and
#: ``repro.driver.<name>`` still find them here.
_BACK_END, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".codegen.assembly": ("generate_assembly", "padded_stream"),
    ".opt": ("optimize_block",),
    ".regalloc.allocator": ("allocate_registers",),
    ".regalloc.liveness": ("max_live",),
    ".simulator.core": ("PipelineSimulator",),
    ".simulator.register_machine": ("RegisterMachine",),
})


def _load_back_end() -> None:
    """Bind every back-end global that is still missing (one a traced
    run has already wrapped stays as it is)."""
    for name in _BACK_END:
        if name not in globals():
            __getattr__(name)

#: Scheduler selection for :func:`compile_source`.  "multi" is the
#: pipeline-selection extension (footnote 3) — the only choice that
#: accepts non-deterministic machines like the Tables 2+3 example.
#: "ilp" is the paper search's ILP twin (``repro.ilp``): same optimum,
#: independently derived, with a certified dual bound when curtailed.
SCHEDULERS = ("optimal", "ilp", "multi", "gross", "greedy", "list", "none")


class VerificationError(RuntimeError):
    """The compiled code's simulated behaviour diverged from the source
    semantics — a compiler bug by definition."""


class CompilationResult(Record):
    """Everything the driver produced for one source block: ``block`` after
    optimization and the spill pre-pass, ``search`` (``None`` for heuristic
    schedulers), ``pipeline_assignment`` (scheduler="multi" only) and the
    carry-in ``initial`` the block was scheduled under (footnote 1)."""

    __slots__ = ("program", "raw_block", "block", "dag", "timing", "allocation", "assembly",
                 "search", "machine", "pipeline_assignment", "initial")

    def __init__(self, program: Program, raw_block: BasicBlock, block: BasicBlock,
                 dag: DependenceDAG, timing: ScheduleTiming, allocation: RegisterAllocation,
                 assembly: AssemblyProgram, search: Optional[SearchResult],
                 machine: MachineDescription, pipeline_assignment: Optional[dict] = None,
                 initial: InitialConditions = InitialConditions()):
        for name, value in zip(CompilationResult.__slots__, (
                program, raw_block, block, dag, timing, allocation, assembly, search, machine,
                pipeline_assignment, initial)):
            setslot(self, name, value)

    @property
    def total_nops(self) -> int:
        return self.timing.total_nops

    @property
    def issue_span_cycles(self) -> int:
        return self.timing.issue_span_cycles


def compile_source(
    source: str,
    machine: MachineDescription,
    scheduler: str = "optimal",
    options: SearchOptions = SearchOptions(),
    optimize: bool = True,
    num_registers: Optional[int] = None,
    discipline: DelayDiscipline = DelayDiscipline.NOP_PADDED,
    verify_memory: Optional[Mapping[str, int]] = None,
    name: str = "block",
    telemetry: Optional[Telemetry] = None,
) -> CompilationResult:
    """Compile one straight-line source block end to end: the one-block
    case of :func:`compile_program`, with the block named ``name``.

    Parameters
    ----------
    scheduler:
        ``"optimal"`` (the paper's search), ``"ilp"`` (the declarative
        ILP witness — same optimum, independently derived),
        ``"gross"``/``"greedy"`` (heuristic baselines), ``"list"`` (seed
        schedule only), or ``"none"`` (program order, NOPs inserted but
        nothing moved).
    num_registers:
        When given, the spill pre-pass bounds program-order register
        pressure before scheduling (section 3.1).
    verify_memory:
        When given, the generated code is executed on the simulator from
        this initial memory and checked against source semantics;
        :class:`VerificationError` on mismatch.
    """
    return _compile_straight_line(
        source, machine, scheduler, options, optimize, num_registers,
        discipline, verify_memory, name, telemetry, split=False,
    ).blocks[0]


def verify_compilation(
    result: CompilationResult, memory: Mapping[str, int]
) -> None:
    """Execute the compiled schedule on the simulator and compare every
    source-visible variable against the source interpreter: the
    one-block case of :func:`verify_program`."""
    verify_program(ProgramCompilation(result.program, (result,), result.machine), memory)


def compile_block(
    block: BasicBlock,
    machine: MachineDescription,
    scheduler: str = "optimal",
    options: SearchOptions = SearchOptions(),
    optimize: bool = False,
    num_registers: Optional[int] = None,
    discipline: DelayDiscipline = DelayDiscipline.NOP_PADDED,
    telemetry: Optional[Telemetry] = None,
) -> CompilationResult:
    """Compile hand-written tuple code (no front end).

    The entry point for code already in the linear notation of Figure 3
    (``repro.ir.parse_block``); used by ``repro compile --tuples``.
    ``optimize`` defaults to off — hand-written tuples usually *are* the
    intended code.  Verification against source semantics is not
    available (there is no source program); use the simulator directly.
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; pick from {SCHEDULERS}")
    _load_back_end()
    raw_block = block
    if optimize and len(block):
        block = optimize_block(block)
    return _back_end(
        Program([]), raw_block, block, machine, scheduler, options,
        num_registers, discipline, telemetry, InitialConditions(),
    )


def _back_end(
    program: Program,
    raw_block: BasicBlock,
    block: BasicBlock,
    machine: MachineDescription,
    scheduler: str,
    options: SearchOptions,
    num_registers: Optional[int],
    discipline: DelayDiscipline,
    telemetry: Optional[Telemetry],
    initial: InitialConditions,
) -> CompilationResult:
    """Spill pre-pass, scheduling, register allocation and assembly of
    one optimized block, under carry-in ``initial`` conditions."""
    if num_registers is not None:
        # Section 3.1: create spill code up front so program order fits
        # the register file, then constrain the scheduler to stay within
        # it — post-scheduling allocation then never needs new spills.
        from .regalloc.spill import insert_spill_code

        block = insert_spill_code(block, num_registers).block
        options = options._replace(max_live=num_registers)
    dag = DependenceDAG(block)

    search: Optional[SearchResult] = None
    assignment = None
    if scheduler in ("optimal", "ilp"):
        search = schedule_block(
            dag, machine, options, initial_conditions=initial,
            telemetry=telemetry,
            backend="ilp" if scheduler == "ilp" else "search",
        )
        timing = search.best
    elif scheduler == "multi":
        # The multi-pipeline scheduler only.
        from .sched.multi import schedule_block_multi

        multi = schedule_block_multi(
            dag, machine, options, telemetry=telemetry, initial_conditions=initial
        )
        assignment = dict(multi.assignment)
        timing = compute_timing(
            dag, multi.order, machine, assignment=assignment, initial=initial
        )
    elif scheduler in ("gross", "greedy"):
        # The heuristic baselines only: a default compile never loads them.
        from .sched.heuristics import greedy_schedule, gross_schedule

        heuristic = gross_schedule if scheduler == "gross" else greedy_schedule
        timing = heuristic(dag, machine, initial=initial)
    else:
        order = list_schedule(dag) if scheduler == "list" else program_order(dag)
        timing = compute_timing(dag, order, machine, initial=initial)
    if scheduler not in ("optimal", "ilp", "multi") and num_registers is not None:
        if max_live(block, timing.order) > num_registers:
            # Heuristic orders are pressure-oblivious; program order is
            # the schedule the spill pre-pass guarantees to fit.
            timing = compute_timing(dag, program_order(dag), machine, initial=initial)

    allocation = allocate_registers(block, timing.order, num_registers)
    return CompilationResult(
        program=program,
        raw_block=raw_block,
        block=block,
        dag=dag,
        timing=timing,
        allocation=allocation,
        assembly=generate_assembly(block, timing, allocation, discipline),
        search=search,
        machine=machine,
        pipeline_assignment=assignment,
        initial=initial,
    )


# ----------------------------------------------------------------------
# Straight-line programs: one block, or several split at barrier;
# ----------------------------------------------------------------------
class ProgramCompilation(Record):
    """Compilation of a barrier-partitioned program."""

    __slots__ = ("program", "blocks", "machine")

    def __init__(self, program: Program, blocks: tuple, machine: MachineDescription):
        setslot(self, "program", program)
        setslot(self, "blocks", blocks)  # of CompilationResult, in order
        setslot(self, "machine", machine)

    @property
    def total_nops(self) -> int:
        return sum(b.total_nops for b in self.blocks)

    @property
    def total_cycles(self) -> int:
        return sum(b.issue_span_cycles for b in self.blocks)

    @property
    def all_optimal(self) -> bool:
        return all(
            b.search is not None and b.search.completed for b in self.blocks
        )

    @property
    def assembly_text(self) -> str:
        return "\n\n".join(str(b.assembly) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def compile_program(
    source: str,
    machine: MachineDescription,
    scheduler: str = "optimal",
    options: SearchOptions = SearchOptions(),
    optimize: bool = True,
    num_registers: Optional[int] = None,
    discipline: DelayDiscipline = DelayDiscipline.NOP_PADDED,
    verify_memory: Optional[Mapping[str, int]] = None,
    name: str = "program",
    telemetry: Optional[Telemetry] = None,
) -> ProgramCompilation:
    """Compile a multi-block program (blocks separated by ``barrier;``).

    Each block is compiled like :func:`compile_source` but scheduled under
    the carry-out pipeline conditions of its predecessor (footnote 1), so
    the concatenated instruction stream is hazard-free.  With
    ``verify_memory``, that concatenated stream is simulated and
    compared against source semantics (:func:`verify_program`).
    """
    return _compile_straight_line(
        source, machine, scheduler, options, optimize, num_registers,
        discipline, verify_memory, name, telemetry, split=True,
    )


def _compile_straight_line(
    source, machine, scheduler, options, optimize, num_registers,
    discipline, verify_memory, name, telemetry, split,
) -> ProgramCompilation:
    """Compile ``source`` block by block, each block under the carry-out
    conditions of its predecessor.  ``split`` partitions the program at
    its barriers into blocks ``name.0``, ``name.1``, ...; otherwise the
    whole program is the one block ``name``, and ``lower_program``
    rejects a barrier or loop in it."""
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; pick from {SCHEDULERS}")
    _load_back_end()
    program = parse_program(source)
    if split:
        segments = program.split_blocks() or (Program([]),)
        named = [(f"{name}.{index}", segment) for index, segment in enumerate(segments)]
    else:
        named = [(name, program)]

    results = []
    for block_name, segment in named:
        initial = _carry_out(results[-1], machine) if results else InitialConditions()
        raw_block = lower_program(segment, block_name)
        block = (
            optimize_block(raw_block) if optimize and len(raw_block) else raw_block
        )
        results.append(_back_end(
            segment, raw_block, block, machine, scheduler, options,
            num_registers, discipline, telemetry, initial,
        ))

    compiled = ProgramCompilation(program, tuple(results), machine)
    if verify_memory is not None:
        verify_program(compiled, verify_memory)
    return compiled


def _carry_out(
    result: CompilationResult, machine: MachineDescription
) -> InitialConditions:
    """The carry-in conditions ``result`` leaves, on its own pipelines."""
    resolver = SigmaResolver(result.dag, machine, result.pipeline_assignment)
    return carry_out(result.timing, result.dag, machine, resolver)


def verify_program(
    compiled: ProgramCompilation, memory: Mapping[str, int]
) -> None:
    """Simulate the blocks' padded streams as one concatenated stream and
    compare every written variable against source semantics, the
    stream's cycles against the schedules' spans, and the register
    machine's run of the assembly text against both.

    Each block starts in whatever state its predecessor's tail leaves the
    pipelines and memory in, so the stream checks the carry-out hand-off
    without the conditions the blocks were scheduled under.  A single
    block runs as compiled, on its own DAG and pipeline assignment."""
    _load_back_end()
    if len(compiled.blocks) == 1:
        (only,) = compiled.blocks
        block, dag, assignment = only.block, only.dag, only.pipeline_assignment
        stream = padded_stream(only.timing)
    else:
        def shift(operand, offset):
            return RefOperand(operand.ref + offset) if isinstance(operand, RefOperand) else operand

        tuples, stream, assignment, offset, dag = [], [], {}, 0, None
        for result in compiled.blocks:
            tuples += (IRTuple(t.ident + offset, t.op, shift(t.alpha, offset),
                               shift(t.beta, offset)) for t in result.block)
            stream += (i if i is None else i + offset for i in padded_stream(result.timing))
            pipes = result.pipeline_assignment or {}
            assignment.update((i + offset, p) for i, p in pipes.items())
            offset += max(result.block.idents, default=0)
        block = BasicBlock(tuples, "program")
    trace = PipelineSimulator(
        block, compiled.machine, dag=dag, assignment=assignment or None,
    ).run_padded(stream, memory)
    expected = run_program(compiled.program, dict(memory))
    written = compiled.program.variables_written()
    for var in written:
        got = trace.memory.get(var)
        want = expected[var]
        if got != want:
            raise VerificationError(
                f"variable {var!r}: simulator produced {got}, source "
                f"semantics require {want}"
            )
    if trace.total_cycles != compiled.total_cycles:
        raise VerificationError(
            f"padded stream took {trace.total_cycles} cycles, schedule "
            f"says {compiled.total_cycles}"
        )
    # Text-level cross-check: the emitted assembly, reparsed and executed
    # on the independent register machine, must agree too.  Only possible
    # when the text carries the delays AND the machine is deterministic —
    # a per-tuple pipeline assignment cannot be expressed at the mnemonic
    # level the register machine sees.
    if all(
        r.assembly.discipline is not DelayDiscipline.IMPLICIT_INTERLOCK
        and r.pipeline_assignment is None
        for r in compiled.blocks
    ):
        register_trace = RegisterMachine(compiled.machine).run_text(
            compiled.assembly_text, memory
        )
        if register_trace.total_cycles != compiled.total_cycles:
            raise VerificationError(
                f"assembly text took {register_trace.total_cycles} cycles "
                f"on the register machine, schedule says {compiled.total_cycles}"
            )
        # The simulator matches the source on every written variable, so
        # agreeing with the simulator is agreeing with both.
        last_store = {var: index for index, result in enumerate(compiled.blocks)
                      for var in result.block.stored_variables}
        for var in dict.fromkeys((*last_store, *written)):
            got, want = register_trace.memory.get(var), trace.memory.get(var)
            if got != want:
                where = f"block {last_store[var]}" if var in last_store else "program"
                raise VerificationError(
                    f"{where}: assembly text left {var!r} = {got} "
                    f"on the register machine, the simulator {want}"
                )


# ----------------------------------------------------------------------
# Loops (for i in 0..N { ... })
# ----------------------------------------------------------------------
class LoopCompilation(Record):
    """Everything the driver produced for one source loop."""

    __slots__ = ("program", "loop", "result", "machine", "certificate")

    def __init__(self, program: Program, loop: "LoopBlock", result: "ModuloScheduleResult",
                 machine: MachineDescription, certificate: "LoopCertificateReport"):
        setslot(self, "program", program)
        setslot(self, "loop", loop)  # lowered body + derived carried dependences
        setslot(self, "result", result)
        setslot(self, "machine", machine)
        #: Independent steady-state certificate (always checked; a
        #: compilation with a rejected certificate never leaves the driver).
        setslot(self, "certificate", certificate)

    @property
    def ii(self) -> int:
        return self.result.ii

    @property
    def list_ii(self) -> int:
        return self.result.list_ii

    @property
    def kernel_text(self) -> str:
        return self.result.kernel_text


def compile_loop(
    source: str,
    machine: MachineDescription,
    options: SearchOptions = SearchOptions(),
    verify_memory: Optional[Mapping[str, int]] = None,
    trip_count: Optional[int] = None,
    name: str = "loop",
    telemetry: Optional[Telemetry] = None,
) -> LoopCompilation:
    """Compile one source loop into a certified modulo schedule.

    ``source`` must be a program whose single statement is a ``for``
    loop.  The body is lowered to a :class:`~repro.ir.loop.LoopBlock`
    (tuples plus derived cross-iteration dependences) and scheduled by
    :func:`repro.sched.pipelining.schedule_loop`; the resulting kernel
    is then re-checked by the independent steady-state certificate —
    a rejected certificate raises :class:`VerificationError` rather
    than returning a bad schedule.

    With ``verify_memory``, the flat issue stream of several overlapped
    iterations is additionally *executed* (against an unrolled copy of
    the body) and every written variable compared against source
    semantics; ``trip_count`` overrides the loop bounds for that check
    (useful when a bound is symbolic).
    """
    # Loops only, and looked up in their own modules, where a traced
    # run wraps them.
    from .frontend.lowering import lower_loop
    from .ir.interp import run_block
    from .ir.loop import run_loop
    from .sched.pipelining import schedule_loop
    from .verify.certificate import check_steady_state

    program = parse_program(source)
    loops = [s for s in program.statements if isinstance(s, ForLoop)]
    if len(loops) != 1 or len(program.statements) != 1:
        raise ValueError(
            "compile_loop expects a program whose single statement is a "
            f"for-loop; got {len(program.statements)} statement(s) of "
            f"which {len(loops)} loop(s).  Straight-line programs go "
            "through compile_source/compile_program."
        )
    loop = lower_loop(loops[0], name=name)

    result = schedule_loop(
        loop, machine, options=options, telemetry=telemetry
    )
    certificate = check_steady_state(
        loop.body, machine, result.offsets, result.ii,
        assignment=result.assignment,
    )
    if not certificate.ok:
        raise VerificationError(
            "the modulo schedule failed independent certification:\n"
            + certificate.summary()
        )

    compiled = LoopCompilation(
        program=program,
        loop=loop,
        result=result,
        machine=machine,
        certificate=certificate,
    )
    if verify_memory is not None:
        trips = (
            trip_count
            if trip_count is not None
            else loop.trip_count(dict(verify_memory))
        )
        expected = run_program(program, dict(verify_memory))
        # Execute the *scheduled* overlapped stream: the flat issue
        # order of all iterations against an unrolled body copy.
        memory = dict(verify_memory)
        if loop.loop_var is not None:
            memory[loop.loop_var] = _resolve_bound(loop.start, memory)
        if trips > 0:
            stride = max(loop.body.idents)
            stream_order = [
                z + i * stride for _, i, z in result.stream(trips)
            ]
            final = dict(
                run_block(
                    loop.unrolled(trips), memory=memory, order=stream_order
                ).memory
            )
        else:
            final = dict(memory)
        if loop.loop_var is not None:
            # Scoped binding: the source loop restores/removes it.
            final.pop(loop.loop_var, None)
        sequential = run_loop(
            loop, memory=dict(verify_memory), trip_count=trips
        )
        for var in program.variables_written():
            want = expected.get(var)
            got = final.get(var)
            if got != want:
                raise VerificationError(
                    f"variable {var!r}: the scheduled stream produced "
                    f"{got}, source semantics require {want}"
                )
            if sequential.get(var) != want:
                raise VerificationError(
                    f"variable {var!r}: lowered loop produced "
                    f"{sequential.get(var)}, source semantics require "
                    f"{want}"
                )
    return compiled


def _resolve_bound(bound, env):
    """Resolve a loop bound (int literal or symbolic name) against env."""
    if isinstance(bound, int):
        return bound
    return env[bound]
