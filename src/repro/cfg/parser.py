"""Recursive-descent parser for the mini-C subset.

Grammar (types are parsed and discarded — the analyses are untyped)::

    program  := function*
    function := type ident '(' params? ')' block
    params   := type ident (',' type ident)*
    block    := '{' stmt* '}'
    stmt     := block | if | while | for | return | break | continue
              | decl ';' | expr ';' | ';'
    decl     := type ident ('=' expr)?
    expr     := assignment with the usual C precedence levels (binary
                operators by precedence climbing over one {op: level} map)
"""

from __future__ import annotations

from repro.cfg import ast
from repro.cfg.lexer import Token, tokenize


class ParseError(ValueError):
    """Raised when the parser cannot make sense of the token stream."""


_TYPE_KEYWORDS = {"int", "void", "char", "long", "unsigned", "static", "struct", "const"}

# Binary operator precedence, loosest first.
_BINARY_LEVELS = [
    {"||"},
    {"&&"},
    {"|"},
    {"^"},
    {"&"},
    {"==", "!="},
    {"<", ">", "<=", ">="},
    {"<<", ">>"},
    {"+", "-"},
    {"*", "/", "%"},
]

#: Each binary operator's index in ``_BINARY_LEVELS`` (higher binds
#: tighter) — the table precedence climbing reads.
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

_UNARY_OPS = frozenset(("-", "!", "~", "*", "&", "++", "--"))

#: End-of-input sentinel appended to every token list, so lookahead is
#: a plain ``self.tokens[self.pos]`` with no bounds check.  Its kind
#: matches no grammar token and its line is 0, the line the parser
#: reports at end of input.
_EOF = Token("eof", "", 0)


class Parser:
    def __init__(self, source: str):
        self.tokens = list(tokenize(source))
        self.tokens.append(_EOF)
        self.pos = 0

    # -- token plumbing --------------------------------------------------------

    def at(self, kind: str, value: str | None = None, offset: int = 0) -> bool:
        token = self.tokens[self.pos + offset]
        return token.kind == kind and (value is None or token.value == value)

    def take(self, kind: str | None = None, value: str | None = None) -> Token:
        token = self.tokens[self.pos]
        if token is _EOF:
            raise ParseError("unexpected end of input")
        if kind is not None and token.kind != kind:
            raise ParseError(
                f"line {token.line}: expected {kind}, found {token.value!r}"
            )
        if value is not None and token.value != value:
            raise ParseError(
                f"line {token.line}: expected {value!r}, found {token.value!r}"
            )
        self.pos += 1
        return token

    def _take_op(self, value: str) -> Token:
        """``take("op", value)`` with the match tested inline."""
        token = self.tokens[self.pos]
        if token.kind == "op" and token.value == value:
            self.pos += 1
            return token
        return self.take("op", value)  # raises the mismatch error

    def _line(self) -> int:
        return self.tokens[self.pos].line

    # -- declarations ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        functions = []
        while self.tokens[self.pos] is not _EOF:
            functions.append(self.parse_function())
        return ast.Program(tuple(functions))

    def _skip_type(self) -> None:
        took_any = False
        tokens = self.tokens
        while tokens[self.pos].kind == "kw" and tokens[self.pos].value in _TYPE_KEYWORDS:
            keyword = tokens[self.pos].value
            self.pos += 1
            if keyword == "struct" and tokens[self.pos].kind == "ident":
                self.pos += 1
            took_any = True
        while self.at("op", "*"):
            self.pos += 1
        if not took_any:
            token = tokens[self.pos]
            where = (
                "end of input" if token is _EOF
                else f"line {token.line}: {token.value!r}"
            )
            raise ParseError(f"expected a type, found {where}")

    def parse_function(self) -> ast.Function:
        line = self._line()
        self._skip_type()
        name = self.take("ident").value
        self.take("op", "(")
        params: list[str] = []
        if not self.at("op", ")"):
            if self.at("kw", "void") and self.at("op", ")", offset=1):
                self.take("kw", "void")
            else:
                params.append(self._parse_param())
                while self.at("op", ","):
                    self.take("op", ",")
                    params.append(self._parse_param())
        self.take("op", ")")
        body = self.parse_block()
        return ast.Function(name, tuple(params), body, line)

    def _parse_param(self) -> str:
        self._skip_type()
        return self.take("ident").value

    # -- statements ----------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        line = self._line()
        self._take_op("{")
        body: list[ast.Stmt] = []
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind == "op" and token.value == "}":
                break
            body.append(self.parse_stmt())
        self.pos += 1
        return ast.Block(line, tuple(body))

    def parse_stmt(self) -> ast.Stmt:
        token = self.tokens[self.pos]
        line = token.line
        kind = token.kind
        value = token.value
        if kind == "op":
            if value == "{":
                return self.parse_block()
            if value == ";":
                self.pos += 1
                return ast.Block(line, ())
        elif kind == "kw":
            if value == "if":
                return self._parse_if()
            if value == "while":
                return self._parse_while()
            if value == "for":
                return self._parse_for()
            if value == "switch":
                return self._parse_switch()
            if value == "return":
                self.pos += 1
                expr = None
                if not self.at("op", ";"):
                    expr = self.parse_expr()
                self._take_op(";")
                return ast.Return(line, expr)
            if value == "break":
                self.pos += 1
                self._take_op(";")
                return ast.Break(line)
            if value == "continue":
                self.pos += 1
                self._take_op(";")
                return ast.Continue(line)
            if value in _TYPE_KEYWORDS:
                self._skip_type()
                name = self.take("ident").value
                init = None
                if self.at("op", "="):
                    self.pos += 1
                    init = self.parse_expr()
                self._take_op(";")
                return ast.Decl(line, name, init)
        expr = self.parse_expr()
        self._take_op(";")
        return ast.ExprStmt(line, expr)

    def _parse_if(self) -> ast.If:
        line = self._line()
        self.take("kw", "if")
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        then = self.parse_stmt()
        orelse = None
        if self.at("kw", "else"):
            self.take("kw", "else")
            orelse = self.parse_stmt()
        return ast.If(line, cond, then, orelse)

    def _parse_while(self) -> ast.While:
        line = self._line()
        self.take("kw", "while")
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        body = self.parse_stmt()
        return ast.While(line, cond, body)

    def _parse_switch(self) -> ast.Switch:
        line = self._line()
        self.take("kw", "switch")
        self.take("op", "(")
        cond = self.parse_expr()
        self.take("op", ")")
        self.take("op", "{")
        cases: list[ast.Case] = []
        while not self.at("op", "}"):
            if self.at("kw", "case"):
                self.take("kw", "case")
                token = self.take("number")
                value: int | None = int(token.value, 0)
            elif self.at("kw", "default"):
                self.take("kw", "default")
                value = None
            else:
                raise ParseError(
                    f"line {self._line()}: expected 'case' or 'default'"
                )
            self.take("op", ":")
            body: list[ast.Stmt] = []
            while not (
                self.at("op", "}") or self.at("kw", "case") or self.at("kw", "default")
            ):
                body.append(self.parse_stmt())
            cases.append(ast.Case(value, tuple(body)))
        self.take("op", "}")
        return ast.Switch(line, cond, tuple(cases))

    def _parse_for(self) -> ast.Stmt:
        # ``for (init; cond; step) body`` desugars to init; while.
        line = self._line()
        self.take("kw", "for")
        self.take("op", "(")
        init: ast.Stmt | None = None
        if not self.at("op", ";"):
            if self.at("kw") and self.tokens[self.pos].value in _TYPE_KEYWORDS:
                self._skip_type()
                name = self.take("ident").value
                value = None
                if self.at("op", "="):
                    self.take("op", "=")
                    value = self.parse_expr()
                init = ast.Decl(line, name, value)
            else:
                init = ast.ExprStmt(line, self.parse_expr())
        self.take("op", ";")
        cond: ast.Expr | None = None
        if not self.at("op", ";"):
            cond = self.parse_expr()
        self.take("op", ";")
        step: ast.Stmt | None = None
        if not self.at("op", ")"):
            step = ast.ExprStmt(line, self.parse_expr())
        self.take("op", ")")
        body = self.parse_stmt()
        loop_body = ast.Block(line, tuple(s for s in (body, step) if s is not None))
        cond_expr = cond if cond is not None else ast.Number(line, 1)
        loop = ast.While(line, cond_expr, loop_body)
        if init is None:
            return loop
        return ast.Block(line, (init, loop))

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_ternary()
        token = self.tokens[self.pos]
        if token.kind == "op" and token.value == "=":
            self.pos += 1
            value = self._parse_assignment()
            return ast.Assign(token.line, left, value)
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        token = self.tokens[self.pos]
        if token.kind == "op" and token.value == "?":
            self.pos += 1
            line = token.line
            then = self.parse_expr()
            self._take_op(":")
            orelse = self._parse_ternary()
            # Model a ternary as two nested binaries: both sides parsed,
            # condition retained — control flow inside ternaries is not
            # tracked (the analyses treat expressions atomically).
            return ast.Binary(line, "?:", cond, ast.Binary(line, ":", then, orelse))
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: operators of level ``min_level`` or
        tighter, left-associative within a level."""
        left = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind != "op":
                return left
            level = _PRECEDENCE.get(token.value)
            if level is None or level < min_level:
                return left
            self.pos += 1
            right = self._parse_binary(level + 1)
            left = ast.Binary(token.line, token.value, left, right)

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.kind == "op" and token.value in _UNARY_OPS:
            self.pos += 1
            return ast.Unary(token.line, token.value, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind != "op":
                return expr
            value = token.value
            if value == "(":
                if not isinstance(expr, ast.Ident):
                    raise ParseError(
                        f"line {token.line}: only direct calls are supported"
                    )
                self.pos += 1
                args: list[ast.Expr] = []
                if not self.at("op", ")"):
                    args.append(self.parse_expr())
                    while self.at("op", ","):
                        self.pos += 1
                        args.append(self.parse_expr())
                close = self._take_op(")")
                expr = ast.Call(close.line, expr.name, tuple(args))
            elif value == "[":
                self.pos += 1
                index = self.parse_expr()
                bracket = self._take_op("]")
                expr = ast.Binary(bracket.line, "[]", expr, index)
            elif value == "++" or value == "--":
                self.pos += 1
                expr = ast.Unary(token.line, value + "post", expr)
            elif value == "." or value == "->":
                self.pos += 1
                field = self.take("ident")
                expr = ast.Binary(
                    token.line, value, expr, ast.Ident(field.line, field.value)
                )
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "ident":
            self.pos += 1
            return ast.Ident(token.line, token.value)
        if kind == "number":
            self.pos += 1
            return ast.Number(token.line, int(token.value, 0))
        if kind == "string":
            self.pos += 1
            return ast.String(token.line, token.value[1:-1])
        if kind == "char":
            self.pos += 1
            return ast.Number(token.line, 0)
        if kind == "op" and token.value == "(":
            self.pos += 1
            expr = self.parse_expr()
            self._take_op(")")
            return expr
        if token is _EOF:
            raise ParseError("unexpected end of input in expression")
        raise ParseError(f"line {token.line}: unexpected token {token.value!r}")


def parse_program(source: str) -> ast.Program:
    """Parse mini-C source text into a :class:`repro.cfg.ast.Program`."""
    return Parser(source).parse_program()
