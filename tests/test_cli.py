from pathlib import Path

import numpy as np
import pytest

from hbvm.cli import STATS_HEADER, _solve_options, _sweep_args, build_parser, main
from hbvm.integrator import integrate
from hbvm.nlsolve import SolveOptions


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
    assert f"the splitting requires 1 <= s <= 6, got s = {s}" in err


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


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["analyze"], "analyze.csv"),
    (["tableau", "-k", "6", "-s", "3"], "tableau_k6_s3.csv"),
    (["tableau", "-k", "1", "-s", "1"], "tableau_k1_s1.csv"),
    (["tableau", "-k", "10", "-s", "2"], "tableau_k10_s2.csv"),
    (["splitting", "-s", "1"], "splitting_s1.csv"),
    (["splitting", "-s", "3"], "splitting_s3.csv"),
    (["splitting", "-s", "6"], "splitting_s6.csv"),
])
def test_output_is_byte_identical_to_the_recorded_csv(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


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


def test_integrate_trajectory_to_stdout_sends_the_stats_row_to_stderr(capsys):
    # each stream carries one CSV table: the trajectory, then the stats row
    code, out, err = run_cli(capsys, "integrate", "--problem", "harmonic",
                             "--h", "0.5", "--t-end", "1", "--out", "-")
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["t", "y1", "y2"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.5, 1.0]
    assert all(len(r) == 3 for r in rows)
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0] == STATS_HEADER
    assert lines[1].startswith("hbvm,") and lines[1].endswith(",true")


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


@pytest.mark.parametrize("every", ["0", "1", "3", "1000"])
def test_integrate_and_sweep_print_the_same_row(tmp_path, capsys, every):
    # sol_err included, measured at the run's final state whatever --every stores
    spec = tmp_path / "sweep.txt"
    spec.write_text("[run]\nproblem = harmonic\nk = 4\ns = 2\nh = 0.1\nt_end = 1\n")
    swept = run_cli(capsys, "sweep", str(spec))
    integrated = run_cli(capsys, "integrate", *_HARMONIC, "-k", "4", "-s", "2", "--every", every)
    assert swept == integrated
    assert swept[1].splitlines()[1].split(",")[-2] != ""


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


def test_sweep_unknown_solver(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text("[run]\nsolver = bogus\nh = 0.1\n")
    code, _, err = run_cli(capsys, "sweep", str(spec))
    assert code == 2
    assert "unknown solver 'bogus'" in err


def test_sweep_rejects_unknown_keys(tmp_path, capsys):
    # a misspelt key would otherwise run the default splitting silently
    spec = tmp_path / "bad.txt"
    spec.write_text("[run]\nh = 0.1\nt_end = 0.2\nsolvr = fixed-point\nmax_outr = 1\n")
    code, out, err = run_cli(capsys, "sweep", str(spec))
    assert code == 2
    assert "'solvr'" in err and "'max_outr'" in err
    assert out == ""


def test_sweep_names_a_missing_step_size(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text("[run]\nk = 2\n")
    code, out, err = run_cli(capsys, "sweep", str(spec))
    assert code == 2
    assert err.strip() == ("error: sweep spec [run] block at line 1: "
                           "missing required sweep spec key 'h'")
    assert out == ""


def test_sweep_rejects_a_key_given_twice_in_one_block(tmp_path, capsys):
    # the last value would otherwise win silently: this block would run at h = 0.2
    spec = tmp_path / "bad.txt"
    spec.write_text("[run]\nh = 0.1\nt_end = 0.2\n\n[run]\nh = 0.1\nt_end = 0.2\nh = 0.2\n")
    code, out, err = run_cli(capsys, "sweep", str(spec))
    assert code == 2
    assert err.strip() == ("error: sweep spec key 'h' given twice in one [run] block, "
                           "again at line 8")
    assert out == ""


@pytest.mark.parametrize("bad_block,message", [
    ("k = 2.5\nh = 0.1\n", "sweep spec key 'k' at line 2: '2.5' is not an int"),
    ("k = 4\nh =\n", "sweep spec key 'h' at line 3: '' is not a float"),
    ("h = 0.1\nmu = two\n", "sweep spec key 'mu' at line 3: 'two' is not an int"),
    ("solvr = fixed-point\nh = 0.1\nmax_outr = 1\n",
     "unknown sweep spec key 'solvr' at line 2, 'max_outr' at line 4"),
])
def test_sweep_names_the_key_value_and_line_it_cannot_read(tmp_path, capsys, bad_block,
                                                           message):
    spec = tmp_path / "bad.txt"
    spec.write_text("[run]\n" + bad_block)
    code, out, err = run_cli(capsys, "sweep", str(spec))
    assert (code, out) == (2, "")
    assert err.strip() == "error: " + message


@pytest.mark.parametrize("bad_block,message", [
    ("k = 1\ns = 2\nh = 0.1\n", "require k >= s >= 1, got k = 1, s = 2"),
    ("omega = -1\nh = 0.1\n", "omega must be positive"),
    ("solver = composition6\nh = -0.1\n", "require h > 0 and t_end > 0"),
    ("h = 0.1\nt_end = inf\n", "t_end = inf"),
    ("h = 1e-310\nt_end = 1e300\n", "error: sweep spec [run] block at line 5: require a finite "
                                   "step count t_end / h, got h = 1e-310, t_end = 1e+300\n"),
    ("k = 8\ns = 7\nh = 0.1\n", "the splitting requires 1 <= s <= 6, got s = 7"),
    ("k = 60\nh = 0.1\n", "require 1 <= k <= 50, got k = 60"),
    ("problem = charged-particle\nsolver = composition6\nh = 0.1\n",
     "block at line 5: composition method requires a separable Hamiltonian"),
    ("omega = -1\nh = 0.1\n", "error: sweep spec [run] block at line 5: "
                              "omega must be positive and finite, got omega = -1.0\n"),
])
def test_sweep_checks_every_run_before_the_first_starts(tmp_path, capsys, monkeypatch,
                                                        bad_block, message):
    import hbvm.cli

    calls = []
    monkeypatch.setattr(hbvm.cli, "integrate", lambda cfg: calls.append(cfg) or integrate(cfg))
    spec = tmp_path / "sweep.txt"
    spec.write_text("[run]\nh = 0.1\nt_end = 0.2\n\n[run]\n" + bad_block)
    code, out, err = run_cli(capsys, "sweep", str(spec))
    assert (code, out, len(calls)) == (2, "", 0)
    assert message in err


_HARMONIC = ["--problem", "harmonic", "--h", "0.1", "--t-end", "1"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--problem", "harmonic", "--h", "0.1", "--t-end", "inf"], "t_end = inf",
                 id="t_end-inf"),
    pytest.param(["--problem", "harmonic", "--h", "nan", "--t-end", "1"], "h = nan",
                 id="h-nan"),
    pytest.param(["--problem", "fpu", "--h", "inf", "--t-end", "1"], "h = inf", id="fpu-h-inf"),
    pytest.param(_HARMONIC + ["--tol", "nan"], "tol = nan", id="tol-nan"),
    pytest.param(_HARMONIC + ["--omega", "nan"], "omega = nan", id="omega-nan"),
    pytest.param(_HARMONIC + ["--every", "-1"], "require --every >= 0, got --every = -1",
                 id="every-negative"),
    pytest.param(_HARMONIC + ["--every", "-1", "--solver", "composition6"],
                 "require --every >= 0, got --every = -1", id="composition6-every-negative"),
    pytest.param(_HARMONIC + ["--mu", "0"], "require mu >= 1, got mu = 0", id="mu-0"),
    pytest.param(_HARMONIC + ["--mu", "-2"], "require mu >= 1, got mu = -2", id="mu-negative"),
    pytest.param(_HARMONIC + ["--max-outer", "0"], "require max_outer >= 1, got max_outer = 0",
                 id="max-outer-0"),
])
def test_integrate_rejects_nonfinite_and_negative_parameters(capsys, argv, message):
    code, out, err = run_cli(capsys, "integrate", *argv)
    assert (code, out) == (2, "")
    assert message in err


_HBVM_COLUMNS = ("method", "k", "s", "mu", "tol")


def test_integrate_composition6_row_leaves_k_s_mu_tol_empty(capsys):
    # composition6 has none of them and none is checked for it
    code, out, _ = run_cli(capsys, "integrate", *_HARMONIC, "--solver", "composition6",
                           "--tol", "nan", "--mu", "0", "-k", "1", "-s", "5")
    assert code == 0
    cols = dict(zip(STATS_HEADER.split(","), out.strip().splitlines()[1].split(",")))
    assert [cols[c] for c in _HBVM_COLUMNS] == ["composition6", "", "", "", ""]
    assert cols["converged"] == "true"


def test_sweep_composition6_row_leaves_k_s_mu_tol_empty(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("[run]\nsolver = composition6\nh = 0.1\nt_end = 1\n"
                    "k = 1\ns = 5\nmu = 0\ntol = nan\n\n[run]\nh = 0.1\nt_end = 1\n")
    code, out, _ = run_cli(capsys, "sweep", str(spec))
    assert code == 0
    header, *rows = out.strip().splitlines()
    cols = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [[c[k] for k in _HBVM_COLUMNS] for c in cols] == [
        ["composition6", "", "", "", ""],
        ["hbvm", "2", "2", str(SolveOptions.mu), format(SolveOptions.tol, ".17g")],
    ]


def test_integrate_and_sweep_default_to_solve_options():
    args = build_parser().parse_args(["integrate", "--problem", "harmonic",
                                      "--h", "0.1", "--t-end", "1"])
    assert _solve_options(args) == SolveOptions()
    assert _solve_options(_sweep_args({"h": ("0.1", 2)})) == SolveOptions()


def test_integrate_unwritable_out_exits_3(tmp_path, capsys):
    # --out names a directory: the trajectory cannot be written
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--problem", "harmonic", "--h", "0.1", "--t-end", "0.2",
              "--out", str(tmp_path)])
    assert exc.value.code == 3
    assert "cannot write output" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# runs that end unconverged before their first step: no energy error to report
ZERO_STEP_RUNS = [
    (["--problem", "fpu", "--solver", "composition6", "--h", "0.001", "--t-end", "0.01"],
     "composition6,,,0.001,0.01,composition6,,,0,***,0,,,false"),
    (["--problem", "fpu", "-k", "6", "-s", "3", "--h", "0.1", "--t-end", "1",
      "--solver", "fixed-point", "--max-outer", "1", "--every", "0"],
     "hbvm,6,3,0.10000000000000001,1,fixed-point,2,1e-13,0,***,0,,,false"),
    (["--problem", "harmonic", "--omega", "100", "--h", "0.1", "--t-end", "1",
      "--solver", "composition6"],
     "composition6,,,0.10000000000000001,1,composition6,,,0,***,0,,,false"),
]


@pytest.mark.parametrize("argv,row", ZERO_STEP_RUNS)
def test_integrate_zero_step_row_leaves_ham_err_empty(capsys, argv, row):
    code, out, _ = run_cli(capsys, "integrate", *argv)
    assert (code, out) == (0, STATS_HEADER + "\n" + row + "\n")


def test_sweep_zero_step_rows_leave_ham_err_empty(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("[run]\nproblem = fpu\nsolver = composition6\nh = 0.001\nt_end = 0.01\n\n"
                    "[run]\nproblem = fpu\nk = 6\ns = 3\nh = 0.1\nt_end = 1\n"
                    "solver = fixed-point\nmax_outer = 1\n\n"
                    "[run]\nproblem = harmonic\nomega = 100\nh = 0.1\nt_end = 1\n"
                    "solver = composition6\n")
    code, out, _ = run_cli(capsys, "sweep", str(spec))
    assert (code, out) == (0, "".join(line + "\n" for line in
                                      [STATS_HEADER] + [row for _, row in ZERO_STEP_RUNS]))
