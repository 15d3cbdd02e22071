"""Tests for the mini-C lexer, parser, and AST utilities."""

import pytest

from repro.cfg import ast
from repro.cfg.lexer import LexError, Token, tokenize
from repro.cfg.parser import _BINARY_LEVELS, ParseError, parse_program


def _rhs(text: str) -> ast.Expr:
    """The parsed right-hand side of ``x = <text>;`` (all on line 1)."""
    program = parse_program(f"int main() {{ x = {text}; }}")
    assign = program.function("main").body.body[0].expr
    assert isinstance(assign, ast.Assign)
    return assign.value


def _id(name: str) -> ast.Ident:
    return ast.Ident(1, name)


def _num(value: int) -> ast.Number:
    return ast.Number(1, value)


def _bin(op: str, left: ast.Expr, right: ast.Expr) -> ast.Binary:
    return ast.Binary(1, op, left, right)


def _un(op: str, operand: ast.Expr) -> ast.Unary:
    return ast.Unary(1, op, operand)


def _call(name: str, *args: ast.Expr) -> ast.Call:
    return ast.Call(1, name, args)


class TestLexer:
    def test_basic_tokens(self):
        tokens = list(tokenize("int x = 42;"))
        kinds = [t.kind for t in tokens]
        assert kinds == ["kw", "ident", "op", "number", "op"]

    def test_comments_skipped(self):
        tokens = list(tokenize("x; // comment\n/* block\ncomment */ y;"))
        idents = [t.value for t in tokens if t.kind == "ident"]
        assert idents == ["x", "y"]

    def test_preprocessor_skipped(self):
        tokens = list(tokenize("#include <stdio.h>\nint x;"))
        assert tokens[0].value == "int"

    def test_line_numbers(self):
        tokens = list(tokenize("a;\nb;\n\nc;"))
        lines = {t.value: t.line for t in tokens if t.kind == "ident"}
        assert lines == {"a": 1, "b": 2, "c": 4}

    def test_strings_and_chars(self):
        tokens = list(tokenize('f("hi \\"there\\"", \'x\');'))
        kinds = [t.kind for t in tokens]
        assert "string" in kinds and "char" in kinds

    def test_hex_numbers(self):
        tokens = list(tokenize("x = 0xFF;"))
        assert any(t.kind == "number" and t.value == "0xFF" for t in tokens)

    def test_lex_error(self):
        with pytest.raises(LexError):
            list(tokenize("int x = `;"))


class TestParser:
    def test_function_structure(self):
        program = parse_program("int main() { return 0; }")
        assert program.function_names == {"main"}
        main = program.function("main")
        assert main.params == ()

    def test_params(self):
        program = parse_program("void f(int a, char *b) { }")
        assert program.function("f").params == ("a", "b")

    def test_void_param_list(self):
        program = parse_program("void f(void) { }")
        assert program.function("f").params == ()

    def test_if_else(self):
        program = parse_program(
            "int main() { if (x) { a(); } else { b(); } return 0; }"
        )
        body = program.function("main").body.body
        assert isinstance(body[0], ast.If)
        assert body[0].orelse is not None

    def test_while_and_control(self):
        program = parse_program(
            "int main() { while (1) { if (x) break; continue; } }"
        )
        loop = program.function("main").body.body[0]
        assert isinstance(loop, ast.While)

    def test_for_desugars_to_while(self):
        program = parse_program(
            "int main() { for (int i = 0; i < 10; i = i + 1) { f(i); } }"
        )
        outer = program.function("main").body.body[0]
        assert isinstance(outer, ast.Block)
        assert isinstance(outer.body[0], ast.Decl)
        assert isinstance(outer.body[1], ast.While)

    def test_expression_precedence(self):
        program = parse_program("int main() { x = 1 + 2 * 3; }")
        stmt = program.function("main").body.body[0]
        assign = stmt.expr
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.value, ast.Binary)
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"
        # Every pair of adjacent precedence levels, both orders: the
        # tighter operator groups first wherever it appears.
        a, b, c = _id("a"), _id("b"), _id("c")
        for loose, tight in zip(_BINARY_LEVELS, _BINARY_LEVELS[1:]):
            for lo in sorted(loose):
                for hi in sorted(tight):
                    assert _rhs(f"a {lo} b {hi} c") == _bin(lo, a, _bin(hi, b, c))
                    assert _rhs(f"a {hi} b {lo} c") == _bin(lo, _bin(hi, a, b), c)

    def test_binary_operators_associate_left(self):
        a, b, c = _id("a"), _id("b"), _id("c")
        for level in _BINARY_LEVELS:
            for first in sorted(level):
                for second in sorted(level):
                    assert _rhs(f"a {first} b {second} c") == _bin(
                        second, _bin(first, a, b), c
                    )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("-a * b", _bin("*", _un("-", _id("a")), _id("b"))),
            ("!a && b", _bin("&&", _un("!", _id("a")), _id("b"))),
            ("a - -b", _bin("-", _id("a"), _un("-", _id("b")))),
            ("*p++ + 1", _bin("+", _un("*", _un("++post", _id("p"))), _num(1))),
            ("&s->f", _un("&", _bin("->", _id("s"), _id("f")))),
            (
                "a[i] * f(x) - s.g",
                _bin(
                    "-",
                    _bin("*", _bin("[]", _id("a"), _id("i")), _call("f", _id("x"))),
                    _bin(".", _id("s"), _id("g")),
                ),
            ),
            ("-(a + b) * c", _bin("*", _un("-", _bin("+", _id("a"), _id("b"))), _id("c"))),
            (
                "a || b ? c : d",
                _bin("?:", _bin("||", _id("a"), _id("b")), _bin(":", _id("c"), _id("d"))),
            ),
            (
                "c ? a + b : d | e",
                _bin(
                    "?:",
                    _id("c"),
                    _bin(":", _bin("+", _id("a"), _id("b")), _bin("|", _id("d"), _id("e"))),
                ),
            ),
            (
                "a ? b : c ? d : e",
                _bin(
                    "?:",
                    _id("a"),
                    _bin(":", _id("b"), _bin("?:", _id("c"), _bin(":", _id("d"), _id("e")))),
                ),
            ),
            ("!f(a) == ~b", _bin("==", _un("!", _call("f", _id("a"))), _un("~", _id("b")))),
            ("a < b << c", _bin("<", _id("a"), _bin("<<", _id("b"), _id("c")))),
        ],
    )
    def test_unary_postfix_ternary_mixes(self, text, expected):
        assert _rhs(text) == expected

    @pytest.mark.parametrize("op", sorted(op for level in _BINARY_LEVELS for op in level))
    def test_truncated_after_binary_operator(self, op):
        cases = [
            (f"int main() {{\n  x = a {op}\n}}\n", "line 3: unexpected token '}'"),
            (f"int main() {{\n  x = a {op};\n}}\n", "line 2: unexpected token ';'"),
            (f"int main() {{\n  x = a {op}", "unexpected end of input in expression"),
            (
                f"int main() {{\n  f(a {op}\n  , b);\n}}\n",
                "line 3: unexpected token ','",
            ),
        ]
        for source, message in cases:
            with pytest.raises(ParseError) as excinfo:
                parse_program(source)
            assert str(excinfo.value) == message

    def test_calls_with_nested_args(self):
        program = parse_program("int main() { f(g(1), h()); }")
        calls = list(ast.calls_in(program.function("main").body.body[0].expr))
        assert [c.callee for c in calls] == ["g", "h", "f"]

    def test_unary_and_postfix(self):
        parse_program("int main() { x = -y; p = &z; *p = 1; i++; a[i] = 2; }")

    def test_struct_members(self):
        parse_program("int main() { s.field = p->other; }")

    def test_ternary(self):
        parse_program("int main() { x = c ? a : b; }")

    def test_unreachable_code_tolerated(self):
        parse_program("int main() { return 0; x = 1; }")

    @pytest.mark.parametrize(
        "source",
        [
            "int main() { ",
            "main() { }",
            "int main() { x = ; }",
            "int main() { if x { } }",
            "int main() { x[0](); }",  # only direct calls
        ],
    )
    def test_parse_errors(self, source):
        with pytest.raises(ParseError):
            parse_program(source)


class TestCallsIn:
    def test_evaluation_order(self):
        program = parse_program("int main() { x = a(b(), c()) + d(); }")
        stmt = program.function("main").body.body[0]
        calls = [c.callee for c in ast.calls_in(stmt.expr)]
        assert calls == ["b", "c", "a", "d"]
