"""Tuple intermediate form: instructions, blocks, dependence DAG,
reference interpreter, and the paper's linear notation."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".ops": ("Opcode", "parse_opcode", "BINARY_ARITHMETIC", "VALUE_PRODUCING_OPCODES"),
    ".tuples": ("ConstOperand", "IRTuple", "Operand", "RefOperand", "VarOperand", "add", "const",
        "copy", "div", "load", "mul", "neg", "store", "sub"),
    ".block": ("BasicBlock", "BlockBuilder", "BlockValidationError"),
    ".dag": ("COUNT_CAPPED", "DependenceDAG", "DependenceEdge"),
    ".interp": ("ExecutionResult", "UndefinedVariableError", "blocks_equivalent", "run_block"),
    ".loop": ("LoopBlock", "LoopCarriedDep", "concatenate_iterations",
        "derive_carried_dependences", "run_loop"),
    ".textual": ("TupleSyntaxError", "format_block", "format_tuple", "parse_block"),
})
