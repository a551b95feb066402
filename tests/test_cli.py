import numpy as np
import pytest

from hbvm.cli import STATS_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _csv_rows(text):
    return [line.split(",") for line in text.strip().splitlines()]


def test_tableau_stdout(capsys):
    code, out, _ = run_cli(capsys, "tableau", "-k", "2", "-s", "2")
    assert code == 0
    rows = _csv_rows(out)
    a1 = [float(v) for v in rows[1][2:]]
    r3 = np.sqrt(3.0) / 6.0
    assert a1 == pytest.approx([0.25, 0.25 - r3])
    sections = {r[0] for r in rows[1:]}
    assert sections == {"A", "b", "c", "Xhat"}


def test_tableau_to_file(tmp_path, capsys):
    path = tmp_path / "tab.csv"
    code, out, _ = run_cli(capsys, "tableau", "-k", "6", "-s", "3", "--out", str(path))
    assert code == 0 and out == ""
    rows = _csv_rows(path.read_text())
    assert sum(r[0] == "A" for r in rows) == 6
    assert sum(r[0] == "Xhat" for r in rows) == 4


def test_tableau_rejects_k_less_than_s(capsys):
    code, _, err = run_cli(capsys, "tableau", "-k", "2", "-s", "3")
    assert code == 2
    assert "require" in err


def test_splitting_output(capsys):
    code, out, _ = run_cli(capsys, "splitting", "-s", "3")
    assert code == 0
    rows = {r[0]: r for r in _csv_rows(out)[1:]}
    assert float(rows["d"][2]) == pytest.approx(0.20274006651911334, abs=1e-15)
    res = [float(v) for v in rows["cond_residuals"][2:]]
    assert max(res) < 1e-11


def test_splitting_rejects_out_of_range(capsys):
    code, _, err = run_cli(capsys, "splitting", "-s", "9")
    assert code == 2


@pytest.mark.parametrize("s", ["0", "7"])
def test_splitting_out_of_range_message_gives_the_valid_range(capsys, s):
    code, _, err = run_cli(capsys, "splitting", "-s", s)
    assert code == 2
    assert f"1 <= s <= 6, got {s}" in err


def test_analyze_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-s", "2", "--mu", "1")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["s", "mu", "rho_star", "rho_tilde", "rho_inf"]
    asymptotic = rows[1]
    assert asymptotic[1] == "inf"
    assert float(asymptotic[2]) == pytest.approx(0.1340, abs=5e-4)
    assert float(asymptotic[3]) == pytest.approx(0.0774, abs=5e-4)
    one_sweep = rows[2]
    assert float(one_sweep[4]) == pytest.approx(0.0981, abs=5e-4)


def test_integrate_harmonic_stats_row(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--problem", "harmonic",
                           "-k", "2", "-s", "2", "--h", "0.1", "--t-end", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == STATS_HEADER
    row = lines[1].split(",")
    cols = dict(zip(STATS_HEADER.split(","), row))
    assert cols["method"] == "hbvm"
    assert (cols["k"], cols["s"]) == ("2", "2")
    assert cols["steps"] == "10"
    assert cols["converged"] == "true"
    assert float(cols["sol_err"]) < 1e-6
    assert float(cols["ham_err"]) < 1e-13


def test_integrate_trajectory_file(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "integrate", "--problem", "harmonic",
                         "--h", "0.1", "--t-end", "1.0", "--out", str(path))
    assert code == 0
    rows = _csv_rows(path.read_text())
    assert rows[0] == ["t", "y1", "y2"]
    assert len(rows) == 12  # header + initial state + 10 steps
    assert float(rows[-1][0]) == pytest.approx(1.0)


def test_integrate_usage_error(capsys):
    code, _, err = run_cli(capsys, "integrate", "--problem", "harmonic",
                           "-k", "1", "-s", "2", "--h", "0.1", "--t-end", "1.0")
    assert code == 2


def test_integrate_nonconvergence_is_a_result(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--problem", "fpu",
                           "-k", "4", "-s", "2", "--h", "5e-4", "--t-end", "0.1",
                           "--solver", "fixed-point", "--every", "0")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    cols = dict(zip(STATS_HEADER.split(","), row))
    assert cols["outer_iters"] == "***"
    assert cols["converged"] == "false"


def test_integrate_composition6(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--problem", "harmonic",
                           "--h", "0.1", "--t-end", "1.0",
                           "--solver", "composition6", "--every", "0")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    cols = dict(zip(STATS_HEADER.split(","), row))
    assert cols["method"] == "composition6"
    assert float(cols["sol_err"]) < 1e-6  # order 6 at h = 0.1


@pytest.mark.parametrize("h,t_end", [("0", "1.0"), ("0.1", "-1.0")])
def test_integrate_composition6_rejects_nonpositive_h_and_t_end(capsys, h, t_end):
    code, _, err = run_cli(capsys, "integrate", "--problem", "harmonic",
                           "--h", h, "--t-end", t_end, "--solver", "composition6")
    assert code == 2
    assert "require h > 0 and t_end > 0" in err


SWEEP_SPEC = """\
# two quick runs
[run]
problem = harmonic
k = 2
s = 2
h = 0.1
t_end = 1.0

[run]
problem = harmonic
k = 4
s = 2
h = 0.1
t_end = 1.0
solver = simplified-newton
"""


def test_sweep_runs_all_blocks(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text(SWEEP_SPEC)
    code, out, _ = run_cli(capsys, "sweep", str(spec))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == STATS_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("hbvm,2,2")
    assert lines[2].startswith("hbvm,4,2")


def test_sweep_deterministic(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text(SWEEP_SPEC)
    outputs = [run_cli(capsys, "sweep", str(spec))[1].encode() for _ in range(2)]
    assert outputs[0] == outputs[1]


def test_sweep_malformed_spec(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text("h = 0.1\n")  # key before any [run]
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 2
    assert "malformed" in err


def test_sweep_missing_file(capsys):
    code, _, err = run_cli(capsys, "sweep", "/nonexistent/spec.txt")
    assert code == 3


def test_sweep_unknown_problem(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text("[run]\nproblem = pendulum\nh = 0.1\n")
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 2
    assert "unknown problem" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
