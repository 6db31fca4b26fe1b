"""Assembly emission for the synthetic target, in all three delay
disciplines of section 2.2."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".assembly": ("AssemblyProgram", "DelayDiscipline", "explicit_stream", "generate_assembly",
        "padded_stream"),
    ".asmparser": ("AsmInstruction", "AsmSyntaxError", "parse_assembly"),
})
