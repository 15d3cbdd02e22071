"""Tests for the CLI and the DOT renderers."""

import pytest

from repro.cli import main
from repro.render import cfg_to_dot, constraint_graph_to_dot, dfa_to_dot


@pytest.fixture
def vulnerable_c(tmp_path):
    path = tmp_path / "vuln.c"
    path.write_text(
        """
        int main() {
          seteuid(0);
          if (c) { seteuid(getuid()); }
          execl("/bin/sh", 0);
          return 0;
        }
        """
    )
    return str(path)


@pytest.fixture
def clean_c(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(
        "int main() { seteuid(0); seteuid(getuid()); execl(\"/x\", 0); }"
    )
    return str(path)


class TestCheckCommand:
    def test_violation_exit_code(self, vulnerable_c, capsys):
        assert main(["check", vulnerable_c, "--property", "simple-privilege"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_clean_exit_code(self, clean_c, capsys):
        assert main(["check", clean_c, "--property", "simple-privilege"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_both_engines(self, vulnerable_c, capsys):
        assert (
            main(
                [
                    "check",
                    vulnerable_c,
                    "--property",
                    "simple-privilege",
                    "--engine",
                    "both",
                    "--traces",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "[annotated]" in out and "[mops]" in out

    @pytest.mark.parametrize("fixture, code", [("vulnerable_c", 1), ("clean_c", 0)])
    def test_mops_engine_exit_code_comes_from_mops(
        self, fixture, code, request, monkeypatch, capsys
    ):
        path = request.getfixturevalue(fixture)
        argv = ["check", path, "--property", "simple-privilege", "--engine", "mops"]
        assert main(argv) == code
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("--engine mops must not run the annotated solver")

        monkeypatch.setattr("repro.cli.AnnotatedChecker", refuse)
        assert main(argv) == code
        assert capsys.readouterr().out == expected

    def test_traces_need_no_other_flag(self, vulnerable_c, capsys):
        argv = ["check", vulnerable_c, "--property", "simple-privilege"]
        assert main(argv + ["--traces"]) == 1
        out = capsys.readouterr().out
        findings = [line for line in out.splitlines() if line.startswith("  violation")]
        steps = [line for line in out.splitlines() if line.startswith("      ")]
        assert findings and steps

    def test_flat_flag_is_gone(self, vulnerable_c):
        check = ["check", vulnerable_c, "--property", "simple-privilege"]
        for argv in (
            check + ["--flat"],
            check + ["--shards", "2"],
            check + ["--partition", "greedy"],
            ["serve", "--shards", "2"],
            ["serve", "--partition", "greedy"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv

    def test_collapse_cycles_flag(self, vulnerable_c):
        assert (
            main(
                [
                    "check",
                    vulnerable_c,
                    "--property",
                    "simple-privilege",
                    "--collapse-cycles",
                ]
            )
            == 1
        )

    def test_max_findings_caps_output(self, vulnerable_c, capsys):
        main(
            [
                "check",
                vulnerable_c,
                "--property",
                "simple-privilege",
                "--max-findings",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert "more" in out


class TestOtherCommands:
    def test_dataflow(self, vulnerable_c, capsys):
        assert main(["dataflow", vulnerable_c, "--track", "seteuid"]) == 0
        assert "may-hold" in capsys.readouterr().out

    def test_flow_query(self, tmp_path, capsys):
        path = tmp_path / "prog.flow"
        path.write_text(
            "pair(y : int) : b = (1@A, y@Y)@P;\n"
            "main() : int = (pair^i(2@B)).2@V;\n"
        )
        assert main(["flow", str(path), "--query", "B", "V"]) == 0
        assert main(["flow", str(path), "--query", "A", "V"]) == 1
        assert main(["flow", str(path)]) == 0
        assert "B -> V" in capsys.readouterr().out

    def test_machine(self, capsys):
        assert main(["machine", "privilege"]) == 0
        out = capsys.readouterr().out
        assert "|F_M| = 6" in out

    def test_machine_dot(self, capsys):
        assert main(["machine", "one-bit", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_spec(self, tmp_path, capsys):
        path = tmp_path / "prop.spec"
        path.write_text(
            "start state A : | s -> B;\naccept state B;\n"
        )
        assert main(["spec", str(path), "--dot"]) == 0
        out = capsys.readouterr().out
        assert "|F_M|" in out and "digraph" in out


class TestRenderers:
    def test_dfa_dot(self):
        from repro.dfa.gallery import privilege_machine

        dot = dfa_to_dot(privilege_machine(), title="priv")
        assert "digraph" in dot
        assert "doublecircle" in dot  # the accept state
        assert "seteuid_zero" in dot

    def test_dfa_dot_state_names(self):
        from repro.dfa.gallery import privilege_machine

        dot = dfa_to_dot(privilege_machine(), state_names={0: "Unpriv"})
        assert "Unpriv" in dot

    def test_cfg_dot(self):
        from repro.cfg import build_cfg

        cfg = build_cfg("void f() { } int main() { f(); }")
        dot = cfg_to_dot(cfg)
        assert "cluster_main" in dot and "cluster_f" in dot
        assert "style=dashed" in dot  # call/return edges

    def test_constraint_graph_dot(self):
        from repro.core.solver import Solver
        from repro.core.terms import Variable, constant

        solver = Solver()
        solver.add(constant("c"), Variable("X"))
        solver.add(Variable("X"), Variable("Y"))
        dot = constraint_graph_to_dot(solver)
        assert "digraph" in dot and "shape=box" in dot


class TestCLIFlowPN:
    def test_pn_flag_changes_verdict(self, tmp_path):
        path = tmp_path / "prog.flow"
        path.write_text(
            "pair(y : int) : b = (1@A, y@Y)@P;\n"
            "main() : int = (pair^i(2@B)).2@V;\n"
        )
        # matched: B does not flow to the formal Y
        assert main(["flow", str(path), "--query", "B", "Y"]) == 1
        # pn: it does (pending call)
        assert main(["flow", str(path), "--pn", "--query", "B", "Y"]) == 0

    def test_dataflow_lists_facts(self, vulnerable_c, capsys):
        main(["dataflow", vulnerable_c, "--track", "seteuid", "execl"])
        out = capsys.readouterr().out
        assert "facts: seteuid, execl" in out
