"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.sptensor import load_npz, read_tns


class TestInfo:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Bluesky" in out and "DGX-1V" in out


class TestGenerate:
    def test_kron_to_tns(self, tmp_path, capsys):
        out = tmp_path / "k.tns"
        rc = main([
            "generate", "--kind", "kron", "--shape", "64", "64", "64",
            "--nnz", "200", "--seed", "1", "-o", str(out),
        ])
        assert rc == 0
        t = read_tns(out)
        assert t.nnz == 200

    def test_pl_to_npz(self, tmp_path):
        out = tmp_path / "p.npz"
        rc = main([
            "generate", "--kind", "pl", "--shape", "300", "300", "8",
            "--nnz", "400", "--dense-modes", "2", "-o", str(out),
        ])
        assert rc == 0
        assert load_npz(out).nnz == 400

    def test_table3_config(self, tmp_path):
        out = tmp_path / "s.npz"
        rc = main([
            "generate", "--kind", "table3", "--name", "irrS",
            "--scale", "5000", "-o", str(out),
        ])
        assert rc == 0
        assert load_npz(out).nmodes == 3

    def test_table2_surrogate(self, tmp_path):
        out = tmp_path / "r.npz"
        rc = main([
            "generate", "--kind", "table2", "--name", "uber4d",
            "--scale", "2000", "-o", str(out),
        ])
        assert rc == 0
        assert load_npz(out).nmodes == 4

    def test_missing_shape_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--kind", "kron", "-o", str(tmp_path / "x.tns")])

    def test_missing_name_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--kind", "table3", "-o", str(tmp_path / "x.tns")])


class TestBench:
    def test_table1(self, capsys):
        assert main(["bench", "--exp", "table1"]) == 0
        assert "mttkrp" in capsys.readouterr().out

    def test_table4_csv(self, tmp_path, capsys):
        csv = tmp_path / "t4.csv"
        assert main(["bench", "--exp", "table4", "--csv", str(csv)]) == 0
        assert csv.exists()

    def test_fig3(self, capsys):
        assert main(["bench", "--exp", "fig3"]) == 0
        assert "Bluesky" in capsys.readouterr().out

    def test_fig4_subset(self, capsys):
        rc = main([
            "bench", "--exp", "fig4", "--scale", "20000",
            "--dataset", "synthetic", "--tensors", "irrS",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "irrS" in out and "mttkrp" in out


class TestSelfcheck:
    def test_generated_tensor_passes(self, capsys):
        rc = main(["selfcheck", "--shape", "20", "18", "16", "--nnz", "300"])
        assert rc == 0
        assert "PASSED" in capsys.readouterr().out

    def test_file_input(self, tmp_path, capsys):
        src = tmp_path / "v.tns"
        main([
            "generate", "--kind", "pl", "--shape", "30", "30", "4",
            "--nnz", "120", "--dense-modes", "2", "-o", str(src),
        ])
        capsys.readouterr()
        assert main(["selfcheck", str(src)]) == 0
        assert "PASSED" in capsys.readouterr().out


class TestChart:
    def test_chart_flag(self, capsys):
        rc = main([
            "bench", "--exp", "fig4", "--scale", "20000",
            "--dataset", "synthetic", "--tensors", "irrS", "--chart",
        ])
        assert rc == 0
        assert "█" in capsys.readouterr().out


class TestConvert:
    def test_convert_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "a.tns"
        main([
            "generate", "--kind", "pl", "--shape", "100", "100", "4",
            "--nnz", "150", "--dense-modes", "2", "-o", str(src),
        ])
        dst = tmp_path / "a.npz"
        assert main(["convert", str(src), "-o", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "HiCOO" in out
        assert load_npz(dst).nnz == 150


class TestObservability:
    def _sweep(self, tmp_path, name):
        store = tmp_path / name
        rc = main([
            "sweep", "--dataset", "synthetic", "--tensors", "regS", "irrS",
            "--scale", "300", "--isolation", "inline", "--measure-host",
            "--store", str(store),
        ])
        assert rc == 0
        return store

    def test_report_from_store(self, tmp_path, capsys):
        store = self._sweep(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Observation 1" in out and "Observation 5" in out
        assert "bound" in out

    def test_report_markdown_and_json(self, tmp_path, capsys):
        import json

        store = self._sweep(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--format", "markdown"]) == 0
        assert "|---|" in capsys.readouterr().out
        assert main(["report", "--store", str(store), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nrecords"] > 0 and len(doc["sections"]) == 5

    def test_report_empty_store_fails(self, tmp_path, capsys):
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        assert main(["report", "--store", str(empty)]) == 1

    def test_regress_self_compare_is_clean(self, tmp_path, capsys):
        store = self._sweep(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["regress", str(store), str(store)]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

    def test_regress_detects_injected_slowdown(self, tmp_path, capsys, monkeypatch):
        a = self._sweep(tmp_path, "a.jsonl")
        monkeypatch.setenv("REPRO_PERF_DRAG", "ttv:0.05")
        b = self._sweep(tmp_path, "b.jsonl")
        monkeypatch.delenv("REPRO_PERF_DRAG")
        capsys.readouterr()
        rc = main(["regress", str(a), str(b), "--threshold", "3.0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ttv/coo" in out and "regressed" in out

    def test_regress_json_output(self, tmp_path, capsys):
        import json

        store = self._sweep(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["regress", str(store), str(store), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        assert all(g["classification"] == "neutral" for g in doc["groups"])

    def test_regress_missing_input_exits_two(self, tmp_path, capsys):
        assert main(["regress", "/nonexistent/a.jsonl", "/nonexistent/b.jsonl"]) == 2

    def test_metrics_from_store(self, tmp_path, capsys):
        import json

        store = self._sweep(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["metrics", "--store", str(store)]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE exec_completed counter" in prom
        assert 'kernel="ttv"' in prom
        assert main(["metrics", "--store", str(store), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "exec.completed" in doc["counters"]

    def test_sweep_writes_metrics_file(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        prom_path = tmp_path / "m.prom"
        rc = main([
            "sweep", "--dataset", "synthetic", "--tensors", "irrS",
            "--scale", "300", "--isolation", "inline",
            "--store", str(store), "--metrics", str(prom_path),
        ])
        assert rc == 0
        text = prom_path.read_text()
        assert "# TYPE exec_completed counter" in text
        assert "exec_case_seconds_bucket" in text

    def test_trace_prints_attribution(self, tmp_path, capsys):
        rc = main([
            "trace", "--kernel", "ttv", "--fmt", "coo",
            "--shape", "60", "40", "10", "--nnz", "600",
            "-o", str(tmp_path / "trace.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "roofline (Bluesky)" in out
        assert "bound fraction" in out and "effective DRAM bw" in out


class TestConfigErrors:
    """A bad option ends in one ``repro: error:`` line and exit status 2."""

    @pytest.mark.parametrize("argv,message", [
        (["ingest-bench", "--workers", "0"], "workers"),
        (["ingest-bench", "--query-every", "-1"], "query_every"),
        (["sweep", "--dataset", "synthetic", "--tensors", "regS",
          "--timeout", "0"], "timeout_s"),
    ])
    def test_config_error_is_one_line(self, argv, message):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ") and message in lines[0]
