"""The `python -m repro.bench` CLI and harness helpers."""

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_float_formatting(self):
        out = format_table(["x"], [[0.123456]])
        assert "0.123" in out


class TestCli:
    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "matrix A" in out and "NOT accessible" in out
        assert "matrix C" in out and "1-cycle accessible" in out

    def test_fig45(self, capsys):
        assert main(["fig45"]) == 0
        out = capsys.readouterr().out
        assert "matrix_form" in out and "vector_form" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "before" in out and "after" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--sizes", "64,16", "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "schedule length" in out
        assert "optimal" in out

    def test_table3_matmul_only(self, capsys):
        assert main(["table3", "--kernels", "matmul", "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "MATMUL" in out

    def test_explore_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_explore.json"
        assert main([
            "explore", "--kernels", "matmul", "--jobs", "2",
            "--timeout", "2", "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep: 1 kernels x 7 profiles, jobs=2" in out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["kernels"] == ["matmul"]
        assert payload["jobs"] == 2
        assert len(payload["points"]) == 7
        # the tinymem cell is certified infeasible by the memory
        # pigeonhole before any cache traffic: 6 cells x 2 solves remain
        assert payload["cache"]["misses"] == 12
        assert payload["cache"]["bound_pruned"] == 1
        assert payload["certified_infeasible"] >= 1
        assert payload["solver"]["nodes"] > 0

    def test_audit_matmul(self, tmp_path, capsys):
        out_file = tmp_path / "AUDIT.json"
        assert main([
            "audit", "--kernels", "matmul", "--timeout", "60",
            "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "AUDIT CLEAN" in out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        assert payload["results"][0]["kernel"] == "matmul"
        assert payload["results"][0]["n_errors"] == 0
        passes = {r["pass"] for r in payload["results"][0]["reports"]}
        assert {"ir-lint", "schedule-audit", "codegen-audit",
                "modulo-audit"} <= passes

    def test_bounds_backsub(self, tmp_path, capsys):
        out_file = tmp_path / "BOUNDS.json"
        assert main([
            "bounds", "--kernels", "backsub", "--timeout", "60",
            "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "ALL CERTIFICATES VERIFIED" in out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        r = payload["results"][0]
        assert r["kernel"] == "backsub"
        assert r["lb"] <= r["makespan"]
        # backsub's steady state meets the resource minimum exactly, so
        # the modulo result must carry a resource-mii certificate
        assert r["modulo_ii"] == r["mii"]
        assert r["modulo_certificate"] is not None

    def test_passes_matmul(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_passes.json"
        assert main([
            "passes", "--kernels", "matmul", "--timeout", "120",
            "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "ALL PASS CERTIFICATES VERIFIED" in out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        r = payload["results"][0]
        assert r["kernel"] == "matmul"
        assert r["nodes_removed"] > 0
        assert r["verify_ok"] is True
        assert r["makespan_opt"] == r["makespan_base"]
        # the optimization's whole point: strictly fewer CP search nodes
        assert r["solver_nodes_opt"] < r["solver_nodes_base"]

    @pytest.mark.parametrize("exp, fn, default", [
        ("audit", "audit_kernels", "qrd,arf,matmul,backsub"),
        ("bounds", "bounds_report", "qrd,arf,matmul,backsub"),
        ("passes", "passes_report", "qrd,arf,matmul,backsub"),
        ("sanitize", "sanitize_report", "qrd,arf,matmul,backsub"),
        ("explore", "explore_bench", "qrd,arf,matmul"),
    ])
    def test_kernels_reach_the_report_unchanged(
        self, monkeypatch, capsys, exp, fn, default
    ):
        # stubbed report: nothing is solved, only the arguments are seen
        import repro.bench.__main__ as cli

        seen = []

        def stub(kernels, **kwargs):
            seen.append(list(kernels))
            return {"ok": True}

        monkeypatch.setattr(cli, fn, stub)
        assert main([exp, "--kernels", "qrd,arf,matmul", "--json"]) == 0
        assert main([exp, "--json"]) == 0
        assert seen == [["qrd", "arf", "matmul"], default.split(",")]

    def test_failing_report_sets_exit_code(self, monkeypatch, tmp_path, capsys):
        import json

        import repro.bench.__main__ as cli

        monkeypatch.setattr(
            cli, "bounds_report", lambda kernels, **kw: {"ok": False}
        )
        out_file = tmp_path / "BOUNDS.json"
        assert main(["bounds", "--json", "--out", str(out_file)]) == 1
        assert json.loads(out_file.read_text()) == {"ok": False}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])
