"""Mini front end: the paper's example source language (Figure 3),
lexed, parsed, and lowered to tuple code — plus the bounded counting
loop ``for i in 0..N { ... }``, lowered to a loop body block with
derived cross-iteration dependences."""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".lexer": ("LexError", "Token", "TokenKind", "tokenize"),
    ".ast": ("Assignment", "Binary", "Constant", "Expr", "ForLoop", "Program", "Unary", "VarRead",
        "evaluate_expr", "run_program"),
    ".parser": ("ParseError", "parse_expression", "parse_program"),
    ".lowering": ("lower_loop", "lower_program", "lower_source"),
})
