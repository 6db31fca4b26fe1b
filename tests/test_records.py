"""The slotted records keep the contract their dataclasses gave.

Every class on :class:`repro.record.Record` was a frozen ``@dataclass``.
Each still takes the same positional and keyword arguments, and keeps
the dataclass's ``repr``, equality and ``hash`` (the hash of the tuple
of its compared fields, so set and dict order, and with them every
schedule, stay the same).  The reference is a frozen dataclass built
from the same field names and values.  A record refuses assignment,
carries no instance ``__dict__``, survives pickling and never equals a
record of another class.  ``dataclasses.replace``, ``fields`` and
``asdict`` still work on every record, and only their callers import
``dataclasses``.
"""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.codegen.asmparser import AsmInstruction
from repro.codegen.assembly import AssemblyProgram
from repro.driver import (
    CompilationResult,
    LoopCompilation,
    ProgramCompilation,
    compile_loop,
    compile_program,
    compile_source,
)
from repro.experiments.runner import BlockRecord, LadderOutcome
from repro.frontend.ast import (
    Assignment,
    Barrier,
    Binary,
    Constant,
    ForLoop,
    Program,
    Unary,
    VarRead,
)
from repro.frontend.lexer import Token, TokenKind
from repro.ilp.backend import IlpSearchResult
from repro.ir.block import BasicBlock
from repro.ir.dag import DependenceEdge
from repro.ir.interp import ExecutionResult
from repro.ir.loop import LoopBlock, LoopCarriedDep
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.ir.tuples import ConstOperand, IRTuple, RefOperand, VarOperand
from repro.machine.machine import DelayDiscipline, MachineDescription
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import get_machine
from repro.record import Record
from repro.regalloc.allocator import RegisterAllocation
from repro.regalloc.liveness import LiveRange
from repro.regalloc.spill import SpillReport
from repro.resilience.budget import BlockBudget
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisorConfig
from repro.sched.core import FastOutcome
from repro.sched.nop_insertion import InitialConditions, ScheduleTiming
from repro.sched.pipelining import MiiReport, ModuloScheduleResult
from repro.sched.search import SearchOptions, SearchResult
from repro.service.fingerprint import CanonicalForm
from repro.simulator.core import InterlockMode, SimulationTrace
from repro.simulator.register_machine import RegisterTrace
from repro.synth.generator import GeneratedBlock
from repro.verify.certificate import CertificateReport, LoopCertificateReport, Violation

MACHINE = get_machine("paper-simulation")
BLOCK = parse_block("1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3", name="b0")
COMPILED = compile_source("a = b * c; d = a + b;", MACHINE)
LOOP = compile_loop("for i in 0..8 { p = a * b; a = a + b; }", MACHINE)
PROGRAM = compile_program("a = b; barrier; c = a;", MACHINE)
ASSIGN = Assignment("a", Binary("+", VarRead("b"), Constant(2)))
SEARCH_FIELDS = ("best", "initial", "omega_calls", "completed", "elapsed_seconds",
                 "improvements", "proved_by_bound", "timed_out", "memo_evicted", "prune_counts")
SEARCH_ARGS = (COMPILED.timing, COMPILED.timing, 9, True, 0.5, 1, True, False, 2, {"bounds": 2})
COMPILED_FIELDS = ("program", "raw_block", "block", "dag", "timing", "allocation", "assembly",
                   "search", "machine", "pipeline_assignment", "initial")
CERT = CertificateReport(True, (Violation("over-padded", 0, 1, "x"),), (1, 2), (0, 1), (0, 1),
                         1, 1)

#: Each record class, the constructor fields of its old dataclass in
#: order, and one argument per field.
CASES = [
    (VarOperand, ("name",), ("a",)),
    (ConstOperand, ("value",), (7,)),
    (RefOperand, ("ref",), (1,)),
    (IRTuple, ("ident", "op", "alpha", "beta"),
     (3, Opcode.MUL, RefOperand(1), RefOperand(2))),
    (BasicBlock, ("tuples", "name"), (BLOCK.tuples, "b0")),
    (DependenceEdge, ("producer", "consumer", "kind"), (1, 3, "flow")),
    (LoopCarriedDep, ("producer", "consumer", "kind", "distance"), (4, 2, "anti", 1)),
    (LoopBlock, ("body", "carried", "loop_var", "start", "stop"),
     (LOOP.loop.body, LOOP.loop.carried, None, 0, 8)),
    (ExecutionResult, ("memory", "tuple_values"), ({"c": 6}, {1: 2, 2: 3})),
    (Constant, ("value",), (2,)),
    (VarRead, ("name",), ("b",)),
    (Unary, ("op", "operand"), ("-", VarRead("b"))),
    (Binary, ("op", "left", "right"), ("+", VarRead("b"), Constant(2))),
    (Assignment, ("target", "value"), ("a", Constant(2))),
    (ForLoop, ("var", "start", "stop", "body"), ("i", 0, "n", (ASSIGN,))),
    (Barrier, (), ()),
    (Program, ("statements",), ((ASSIGN, Barrier()),)),
    (Token, ("kind", "text", "line", "column"), (TokenKind.IDENT, "a", 1, 5)),
    (PipelineDesc, ("function", "ident", "latency", "enqueue_time"), ("loader", 1, 2, 1)),
    (MachineDescription, ("name", "pipelines", "op_map"),
     ("m", (PipelineDesc("adder", 1, 2, 1),), {Opcode.ADD: frozenset({1})})),
    (GeneratedBlock,
     ("block", "source", "statements", "variables", "constants", "seed", "profile"),
     (BLOCK, Program([]), 1, 2, 3, 4, None)),
    (InitialConditions, ("pipe_free", "variable_ready", "tuple_ready"),
     ({1: 2}, {"a": 1}, {3: 4})),
    (ScheduleTiming, ("order", "etas", "issue_times"), ((1, 2, 3), (0, 1, 0), (0, 2, 3))),
    (SearchOptions,
     ("curtail", "alpha_beta", "equivalence_prune", "lower_bound_prune", "dominance_prune",
      "heuristic_seeds", "seed_with_list_schedule", "cheapest_first", "max_memo_entries",
      "time_limit", "max_live", "engine"),
     (7, False, True, False, True, False, True, False, 10, 2.5, 4, "native")),
    (SearchResult, SEARCH_FIELDS, SEARCH_ARGS),
    (IlpSearchResult, (*SEARCH_FIELDS, "lp_relaxation", "lower_bound", "nodes", "lp_pivots"),
     (*SEARCH_ARGS, 1.5, 1, 3, 40)),
    (FastOutcome,
     ("best", "omega_calls", "improvements", "completed", "timed_out", "memo_evicted",
      "prune_counts"),
     (COMPILED.timing, 5, 1, True, False, 0, {"bounds": 2})),
    (MiiReport, ("res_mii", "rec_mii"), (3, 2)),
    (ModuloScheduleResult,
     ("loop", "ii", "mii", "res_mii", "rec_mii", "offsets", "list_ii", "completed",
      "searched", "placements", "omega_calls", "elapsed_seconds", "assignment"),
     tuple(getattr(LOOP.result, n) for n in (
         "loop", "ii", "mii", "res_mii", "rec_mii", "offsets", "list_ii", "completed",
         "searched", "placements", "omega_calls", "elapsed_seconds", "assignment"))),
    (BlockRecord,
     ("index", "size", "statements", "initial_nops", "seed_nops", "final_nops",
      "omega_calls", "completed", "degraded", "ladder", "elapsed_seconds"),
     (0, 4, 2, 3, 1, 1, 9, True, False, "optimal-search", 0.25)),
    (LadderOutcome,
     ("result", "timing", "final_nops", "omega_calls", "ladder", "degraded", "cache_status"),
     (COMPILED.search, COMPILED.timing, 1, 9, "optimal-search", False, "miss")),
    (BlockBudget, ("wall_clock", "omega_cap", "memo_cap"), (1.5, 10, 0)),
    (FaultPlan,
     ("seed", "crash_rate", "hang_rate", "corrupt_rate", "hang_seconds",
      "max_faults_per_chunk"),
     (7, 0.1, 0.05, 0.0, 2.0, 1)),
    (SupervisorConfig,
     ("hang_timeout", "poll_interval", "max_retries", "backoff_base", "backoff_cap"),
     (5.0, 0.01, 2, 0.1, 1.0)),
    (CanonicalForm, ("key", "n", "idents"), ("ab" * 32, 2, (3, 7))),
    (SimulationTrace,
     ("mode", "issue_cycles", "order", "total_cycles", "completion_cycle", "stall_cycles",
      "memory"),
     (InterlockMode.NOP_PADDED, (0, 1), (1, 2), 2, 9, 0, {"a": 1})),
    (RegisterTrace, ("total_cycles", "stall_cycles", "memory", "registers", "issue_cycles"),
     (2, 0, {"a": 1}, {0: 1}, (0, 1))),
    (RegisterAllocation, ("order", "registers", "num_registers_used"), ((1, 2), {1: 0}, 1)),
    (LiveRange, ("ident", "start", "end"), (1, 0, 2)),
    (SpillReport, ("block", "spill_stores", "reloads"), (BLOCK, 0, 0)),
    (AsmInstruction,
     ("opcode", "dest_reg", "src_regs", "variable", "immediate", "wait", "line_no"),
     (Opcode.ADD, 2, (0, 1), None, None, 1, 4)),
    (AssemblyProgram, ("name", "discipline", "lines", "num_registers_used", "nop_count"),
     ("b0", DelayDiscipline.NOP_PADDED, ("LD r0, a",), 1, 0)),
    # A block of PROGRAM: COMPILED's block is named "block", which is also a
    # DependenceDAG attribute name, and unpickling interns that one copy, so
    # a re-pickled COMPILED memoizes the string differently.
    (CompilationResult, COMPILED_FIELDS,
     tuple(getattr(PROGRAM.blocks[0], n) for n in COMPILED_FIELDS)),
    (ProgramCompilation, ("program", "blocks", "machine"),
     (PROGRAM.program, PROGRAM.blocks, MACHINE)),
    (LoopCompilation, ("program", "loop", "result", "machine", "certificate"),
     (LOOP.program, LOOP.loop, LOOP.result, MACHINE, LOOP.certificate)),
    (Violation, ("kind", "position", "ident", "detail"), ("dependence", 2, 3, "too early")),
    (CertificateReport,
     ("ok", "violations", "order", "claimed_etas", "required_etas", "claimed_nops",
      "required_nops"),
     tuple(getattr(CERT, n) for n in CertificateReport._fields)),
    (LoopCertificateReport,
     ("ok", "violations", "ii", "offsets", "ii_lower_bound", "replayed_iterations"),
     (True, (), 3, {"1": 0, "2": 1}, 3, 4)),
]

#: Fields a record leaves out of equality and hashing (``compare=False``).
UNCOMPARED = {BlockRecord: ("elapsed_seconds",)}

#: Records whose fields hold a ``DependenceDAG`` (compared by identity),
#: so no copy of them ever compares equal.
BY_IDENTITY = (CompilationResult, ProgramCompilation)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _twin(record):
    """The frozen dataclass the record was, holding the record's values."""
    cls = type(record)
    skip = UNCOMPARED.get(cls, ())
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(n, object, dataclasses.field(compare=n not in skip)) for n in cls._fields],
        frozen=True,
    )
    return twin(*(getattr(record, n) for n in cls._fields))


IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_class_is_covered():
    assert {cls for cls, _, _ in CASES} == set(_subclasses(Record))
    assert len(CASES) == 48


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_constructor_signature(cls, fields, args):
    positional = cls(*args)
    assert cls._fields == fields
    assert cls(**dict(zip(fields, args))) == positional
    assert positional._asdict() == {n: getattr(positional, n) for n in fields}
    assert positional._replace() == positional


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_repr_equality_and_hash_match_the_dataclass(cls, fields, args):
    record, again = cls(*args), cls(*args)
    twin = _twin(record)
    assert repr(record) == repr(twin)
    assert record == again and not record != again
    compared = tuple(getattr(record, f.name) for f in dataclasses.fields(twin) if f.compare)
    assert record._key(record) == compared
    try:
        expected = hash(twin)
    except TypeError:  # a dict field: the dataclass was unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(compared)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_records_are_frozen_and_slotted(cls, fields, args):
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, args):
    record = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        blob = pickle.dumps(record, protocol)
        copy = pickle.loads(blob)
        assert type(copy) is cls and pickle.dumps(copy, protocol) == blob
        if cls not in BY_IDENTITY:
            assert copy == record and repr(copy) == repr(record)
            assert copy._state(copy) == record._state(record)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_dataclasses_functions_agree_with_the_record(cls, fields, args):
    record = cls(*args)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == record._fields == fields
    for name, value in zip(fields, args):
        replaced = dataclasses.replace(record, **{name: value})
        assert type(replaced) is cls and replaced == record._replace(**{name: value}) == record
    with pytest.raises(TypeError):
        dataclasses.replace(record, no_such_field=1)
    as_dict = dataclasses.asdict(record)
    assert list(as_dict) == list(record._asdict())
    if cls not in BY_IDENTITY:  # asdict deep-copies the DependenceDAG
        assert as_dict == dataclasses.asdict(_twin(record))


def test_records_build_compare_hash_and_pickle_without_dataclasses():
    script = (
        "import pickle, sys\n"
        "from repro.sched.search import SearchOptions\n"
        "options = SearchOptions(curtail=9, engine='reference')\n"
        "assert options == SearchOptions(curtail=9, engine='reference') != SearchOptions()\n"
        "assert hash(options) == hash(SearchOptions(curtail=9, engine='reference'))\n"
        "assert pickle.loads(pickle.dumps(options)) == options\n"
        "assert options._replace(curtail=1).curtail == 1\n"
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_default_search_options_hash_as_the_dataclass_did():
    options = SearchOptions()
    assert hash(options) == hash(_twin(options))


def test_distinct_classes_never_compare_equal():
    assert RefOperand(1) != ConstOperand(1) and not RefOperand(1) == ConstOperand(1)
    assert Constant(1) != ConstOperand(1)
    assert LiveRange(1, 0, 2) != DependenceEdge(1, 0, 2)
    records = [cls(*args) for cls, _, args in CASES]
    for a in records:
        for b in records:
            assert (a == b) is (a is b), (a, b)


def test_uncompared_field_stays_out_of_equality_and_hash():
    record = BlockRecord(0, 4, 2, 3, 1, 1, 9, True)
    later = record._replace(elapsed_seconds=9.5)
    assert later == record and hash(later) == hash(record)
    assert "elapsed_seconds=9.5" in repr(later)
    assert record._replace(final_nops=0) != record


def test_private_slots_stay_out_of_the_contract():
    gapped = parse_block("1: Load #a\n3: Store #b, 1")
    assert gapped._index == {1: 0, 3: 1} and BLOCK._index is None
    assert pickle.loads(pickle.dumps(gapped))._index == {1: 0, 3: 1}
    assert "_by_ident" not in repr(MACHINE) and "_index" not in repr(gapped)


def test_perf_first_call_constructor():
    """``perf/workloads.py``'s first call builds a block positionally."""
    gb = GeneratedBlock(parse_block("1: Load #a", name="b0"), Program([]), 0, 0, 0, 0)
    assert gb.program == Program([]) and gb.profile is None and len(gb) == 1


def test_validation_still_runs_in_the_constructor():
    with pytest.raises(ValueError):
        RefOperand(0)
    with pytest.raises(ValueError):
        VarOperand("")
    with pytest.raises(ValueError):
        IRTuple(1, Opcode.ADD, RefOperand(1))
    with pytest.raises(ValueError):
        LoopCarriedDep(1, 2, "flow", 0)
    with pytest.raises(ValueError):
        PipelineDesc("adder", 1, 1, 2)
    with pytest.raises(ValueError):
        InitialConditions(pipe_free={1: -1})
    with pytest.raises(ValueError):
        FaultPlan(crash_rate=2.0)
    with pytest.raises(ValueError):
        Binary("%", Constant(1), Constant(2))


def test_each_search_result_gets_its_own_prune_counts():
    timing = COMPILED.timing
    first, second = (SearchResult(timing, timing, 0, True, 0.0, 0) for _ in range(2))
    assert first.prune_counts == {} and first.prune_counts is not second.prune_counts
