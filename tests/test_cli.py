"""Command line behavior: subcommands, flags and exit codes."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from conftest import other_interpreter, raising_on_second_call
from sparkbench import matio, ptr_kernels
from sparkbench.cli import main
from sparkbench.core import ParameterError
from sparkbench.matio import gen_spd, matrix_path, write_matrix_market


def run_cli(args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sparkbench.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def tiny_tree(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    m = gen_spd(30, seed=5)
    write_matrix_market(matrix_path(data, "tiny"), m, symmetry="symmetric")
    return tmp_path


def test_usage_errors_exit_2():
    assert run_cli([]).returncode == 2
    assert run_cli(["nosuchcmd"]).returncode == 2
    assert run_cli(["run", "--bench", "NOSUCH"]).returncode == 2


def test_help_exits_zero():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    for sub in ("run", "aggregate", "report", "verify", "gen", "inspect"):
        assert sub in proc.stdout


def test_gen_writes_standins(tmp_path):
    code = main(["gen", "--data-dir", str(tmp_path / "d")])
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "d").glob("*.mtx"))
    assert names == sorted([
        "add32.mtx", "utm5940.mtx", "sherman3.mtx",
        "codecs4812.dc.mtx", "bcsstk13.mtx"])


def test_gen_extra_generators(tmp_path):
    code = main(["gen", "--data-dir", str(tmp_path), "--spd", "12",
                 "--banded", "10", "--arrow", "8", "--seed", "3",
                 "--mesh", "2", "2"])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"spd12s3.mtx", "banded10s3.mtx", "arrow8s3.mtx",
                     "mesh2x2.txt"}


@pytest.mark.parametrize("n, entries", [(1, [(1, 1)]),
                                        (2, [(1, 1), (1, 2), (2, 1), (2, 2)])])
def test_gen_banded_below_order_3_keeps_the_bands_that_fit(n, entries, tmp_path):
    assert main(["gen", "--data-dir", str(tmp_path), "--banded", str(n)]) == 0
    lines = matrix_path(tmp_path, f"banded{n}s7").read_text().splitlines()
    assert lines[1] == f"{n} {n} {len(entries)}"
    assert [tuple(map(int, line.split()[:2])) for line in lines[2:]] == entries


@pytest.mark.parametrize("flag", ["--spd", "--banded", "--arrow"])
def test_gen_rejects_order_zero(flag, tmp_path, capsys):
    code = main(["gen", "--data-dir", str(tmp_path), flag, "0"])
    assert code == 1
    assert "error: n must be positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.mtx"))


@pytest.mark.parametrize("args, error", [
    (["--banded", "0", "--mesh", "0", "2"], "n must be positive"),
    (["--mesh", "0", "2"], "nx and ny must be at least 1"),
])
def test_gen_writes_nothing_when_an_order_fails(args, error, tmp_path, capsys):
    out = tmp_path / "gm"
    assert main(["gen", "--data-dir", str(out), "--spd", "12", *args]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_a_failing_standin_fails_gen(tmp_path, monkeypatch, capsys):
    def gen_standin(name):
        if name == "sherman3":
            raise ParameterError("no sherman3 today")
        return gen_spd(4, seed=1), "general"

    monkeypatch.setattr(matio, "gen_standin", gen_standin)
    with pytest.raises(ParameterError, match="no sherman3 today"):
        matio.gen_all_standins(tmp_path / "lib")
    assert main(["gen", "--data-dir", str(tmp_path / "cli")]) == 1
    assert "error: no sherman3 today" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_inspect_prints_characteristics(tmp_path, capsys):
    main(["gen", "--data-dir", str(tmp_path)])
    capsys.readouterr()
    code = main(["inspect", str(tmp_path / "add32.mtx")])
    out = capsys.readouterr().out
    assert code == 0
    assert "add32: 4960 x 4960, 23884 entries, symmetry none" in out
    assert "ok" in out


def test_inspect_flags_wrong_characteristics(tmp_path, capsys):
    m = gen_spd(8, seed=1)
    write_matrix_market(matrix_path(tmp_path, "add32"), m)
    code = main(["inspect", str(matrix_path(tmp_path, "add32"))])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_inspect_unknown_name(tmp_path, capsys):
    m = gen_spd(8, seed=1)
    write_matrix_market(matrix_path(tmp_path, "mystery"), m)
    code = main(["inspect", str(matrix_path(tmp_path, "mystery"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "no published characteristics" in out


@pytest.mark.parametrize("args", [["report", "--spark-dat", "nope.dat"],
                                  ["inspect", "nope.mtx"]])
def test_a_missing_input_file_is_one_error_line(tmp_path, args):
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_run_aggregate_report_flow(tiny_tree):
    data = tiny_tree / "data"
    results = tiny_tree / "results"
    code = main(["run", "--bench", "SPMATVEC", "CMCK", "--matrix", "tiny",
                 "--data-dir", str(data), "--results-dir", str(results),
                 "--policy", "0,3,min", "--config", "base", "opt1"])
    assert code == 0
    assert (results / "base" / "SPMATVEC__tiny.time").exists()
    assert (results / "opt1" / "CMCK__tiny.time").exists()

    code = main(["aggregate", "--results-dir", str(results)])
    assert code == 0
    dat = tiny_tree / "exp" / "data" / "spark.dat"
    lines = dat.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("base CMCK tiny ")

    out_dir = tiny_tree / "exp" / "report"
    code = main(["report", "--spark-dat", str(dat), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "speedups.csv").exists()
    assert (out_dir / "tiny.svg").exists()


def test_aggregate_and_report_write_the_same_bytes_without_numpy(tiny_tree):
    exe = other_interpreter(12)
    if exe is None:
        pytest.skip("no pyenv-managed CPython 3.12")
    results = tiny_tree / "results"
    assert main(["run", "--bench", "SPMATVEC", "ASM", "CMCK", "--matrix", "tiny",
                 "--data-dir", str(tiny_tree / "data"), "--results-dir", str(results),
                 "--policy", "0,3,min", "--config", "base", "opt1"]) == 0
    written = []
    for i, python in enumerate([sys.executable, os.fspath(exe)]):
        out = tiny_tree / f"out{i}"
        for args in (["aggregate", "--results-dir", results, "--out", out / "spark.dat"],
                     ["report", "--spark-dat", out / "spark.dat", "--out-dir", out]):
            subprocess.run([python, "-m", "sparkbench.cli", *map(str, args)],
                           check=True, capture_output=True)
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    here, there = written
    assert sorted(here) == ["none.svg", "patterns.csv", "spark.dat", "speedups.csv",
                            "tiny.svg"]
    # the chart groups by family without harness: Benchmark.family reads patterns
    assert b"pointer-traversal kernels" in here["tiny.svg"]
    assert b"indirection-array kernels" in here["tiny.svg"]
    assert there == here


def test_run_rejects_unknown_config(tiny_tree):
    code = main(["run", "--bench", "SPMATVEC", "--matrix", "tiny",
                 "--data-dir", str(tiny_tree / "data"),
                 "--results-dir", str(tiny_tree / "results"),
                 "--config", "nosuch"])
    assert code == 1


def test_run_rejects_missing_matrix(tiny_tree):
    code = main(["run", "--bench", "SPMATVEC", "--matrix", "ghost",
                 "--data-dir", str(tiny_tree / "data"),
                 "--results-dir", str(tiny_tree / "results")])
    assert code == 1


def test_run_rejects_non_integer_policy(tiny_tree):
    proc = run_cli(["run", "--bench", "TRMAT", "--matrix", "tiny",
                    "--data-dir", str(tiny_tree / "data"),
                    "--results-dir", str(tiny_tree / "results"),
                    "--policy", "x,3,median"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, error", [
    (["--bench", "TRMAT", "TRMAT", "--matrix", "tiny"], "duplicate benchmark 'TRMAT'"),
    (["--bench", "TRMAT", "--matrix", "tiny", "tiny"], "duplicate matrix 'tiny'"),
])
def test_run_rejects_a_repeated_name(tiny_tree, args, error):
    results = tiny_tree / "results"
    proc = run_cli(["run", "--config", "base", *args, "--policy", "0,3,min",
                    "--data-dir", str(tiny_tree / "data"),
                    "--results-dir", str(results)])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {error}"]
    assert not results.exists()


@pytest.mark.parametrize("name", ["a&b", "a b", "a,b", "sub/x", ".hidden"])
def test_run_rejects_an_unsafe_matrix_name(tiny_tree, name):
    # the file exists, so only the name can stop the run
    data, results = tiny_tree / "data", tiny_tree / "results"
    matrix_path(data, name).parent.mkdir(exist_ok=True)
    write_matrix_market(matrix_path(data, name), gen_spd(6, seed=1))
    proc = run_cli(["run", "--config", "base", "--bench", "TRMAT",
                    "--matrix", name, "--policy", "0,3,min",
                    "--data-dir", str(data), "--results-dir", str(results)])
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: matrix name {name!r} must be letters")
    assert not results.exists()


@pytest.mark.parametrize("bench, name", [
    ("TRMAT", "codecs4812.dc"), ("TRMAT", "spd2000s7"), ("ASM", "none")])
def test_run_accepts_safe_matrix_names(tiny_tree, bench, name):
    data = tiny_tree / "data"
    write_matrix_market(matrix_path(data, name), gen_spd(6, seed=1))
    code = main(["run", "--config", "base", "--bench", bench,
                 "--matrix", name, "--policy", "0,3,min",
                 "--data-dir", str(data),
                 "--results-dir", str(tiny_tree / "results")])
    assert code == 0
    assert (tiny_tree / "results" / "base" / f"{bench}__{name}.time").exists()


def test_run_with_config_file(tiny_tree):
    cfg = tiny_tree / "grid.cfg"
    cfg.write_text("id base\nid tuned\ncflags -O\n")
    code = main(["run", "--bench", "TRMAT", "--matrix", "tiny",
                 "--data-dir", str(tiny_tree / "data"),
                 "--results-dir", str(tiny_tree / "results"),
                 "--policy", "0,3,min", "--config-file", str(cfg)])
    assert code == 0
    assert (tiny_tree / "results" / "tuned" / "TRMAT__tiny.time").exists()


def test_corrupted_cell_fails_run(tiny_tree, monkeypatch):
    monkeypatch.setenv("SPARKBENCH_CORRUPT", "SPMATVEC")
    results = tiny_tree / "results"
    code = main(["run", "--bench", "SPMATVEC", "--matrix", "tiny",
                 "--data-dir", str(tiny_tree / "data"),
                 "--results-dir", str(results),
                 "--policy", "0,3,min", "--config", "base"])
    assert code == 1
    assert not (results / "base" / "SPMATVEC__tiny.time").exists()
    assert (results / "base" / "SPMATVEC__tiny.err").exists()


def test_aggregate_without_base_fails(tmp_path, capsys):
    (tmp_path / "results" / "opt1").mkdir(parents=True)
    code = main(["aggregate", "--results-dir", str(tmp_path / "results")])
    assert code == 1
    assert "base" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["../../escape", "a&b"])
def test_report_rejects_an_unsafe_name_in_spark_dat(tmp_path, matrix):
    dat = tmp_path / "in" / "spark.dat"
    dat.parent.mkdir()
    dat.write_text("base TRMAT m 0.500000 0.500000\n"
                   f"opt1 TRMAT {matrix} 0.500000 0.250000\n")
    out_dir = tmp_path / "a" / "b" / "report"
    proc = run_cli(["report", "--spark-dat", str(dat), "--out-dir", str(out_dir)])
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: matrix name {matrix!r} must be letters")
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == ["in", "in/spark.dat"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_a_fixture_count_below_one(tmp_path, count):
    proc = run_cli(["verify", "--data-dir", str(tmp_path / "empty"),
                    "--fixtures", count])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: fixture count must be at least 1, got {count}"]


def test_verify_skips_missing_matrices(tmp_path, capsys):
    code = main(["verify", "--data-dir", str(tmp_path / "empty"),
                 "--fixtures", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS spmatvec" in out
    assert "SKIP scale:add32" in out
    assert out.count("FAIL") == 0


def test_verify_continues_past_a_malformed_matrix(tmp_path, capsys):
    args = ["verify", "--data-dir", str(tmp_path), "--fixtures", "4"]
    assert main(args) == 0
    clean = capsys.readouterr().out.splitlines()
    (tmp_path / "add32.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n2 2 1.0\n")
    assert main(args) == 1
    out = capsys.readouterr().out.splitlines()
    i = clean.index("SKIP scale:add32: not generated; skipped")
    assert out[i].startswith("FAIL scale:add32: MatrixMarketError: ")
    assert out[:i] + out[i + 1:-1] == clean[:i] + clean[i + 1:-1]
    assert out[-1].endswith(" passed, 1 failed, 4 skipped")


def test_verify_continues_past_a_matrix_it_cannot_read(tmp_path, capsys):
    args = ["verify", "--data-dir", str(tmp_path), "--fixtures", "4"]
    assert main(args) == 0
    clean = capsys.readouterr().out.splitlines()
    (tmp_path / "add32.mtx").mkdir()
    assert main(args) == 1
    out = capsys.readouterr().out.splitlines()
    i = clean.index("SKIP scale:add32: not generated; skipped")
    assert out[i].startswith("FAIL scale:add32: IsADirectoryError: ")
    assert out[:i] + out[i + 1:-1] == clean[:i] + clean[i + 1:-1]
    assert sum(line.startswith("PASS ") for line in out) == 12
    assert out[-1] == "verify: 12 passed, 1 failed, 4 skipped"


def test_verify_reports_every_line_past_a_raising_kernel(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(ptr_kernels, "spmatmat",
                        raising_on_second_call(ptr_kernels.spmatmat))
    code = main(["verify", "--data-dir", str(tmp_path / "none"), "--fixtures", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "FAIL spmatmat: fixture 1: IndexError: list index out of range" in out
    assert sum(line.startswith("PASS ") for line in out) == 11
    assert [line for line in out if line.startswith("SKIP scale:")] == [
        f"SKIP scale:{name}: not generated; skipped" for name in matio.MATRIX_NAMES]
    assert out[-1] == "verify: 11 passed, 1 failed, 5 skipped"


def test_verify_output_is_deterministic(tmp_path):
    a = run_cli(["verify", "--data-dir", str(tmp_path / "none"),
                 "--fixtures", "4"])
    b = run_cli(["verify", "--data-dir", str(tmp_path / "none"),
                 "--fixtures", "4"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
