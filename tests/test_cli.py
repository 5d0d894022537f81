import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import hybridsim
from hybridsim import corpus_path
from hybridsim.cli import cli_main
from hybridsim.semantics import outcome_bits

EQ1 = str(corpus_path("eq1"))
EX21 = str(corpus_path("ex21"))
ZENO = str(corpus_path("zeno"))


def test_run_eq1_at_two(capsys):
    code = cli_main(["run", EQ1, "--time", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p = 2" in out and "v = 0" in out


def test_run_eq1_rk4(capsys):
    code = cli_main(["run", EQ1, "--time", "2", "--solver", "rk4"])
    assert code == 0
    assert "p = 2" in capsys.readouterr().out


def test_run_ex21_late_fails(capsys):
    code = cli_main(["run", EX21, "--time", "1.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "the divisor of the division '1/x' is zero" in out


def test_run_ex21_rk4_fails_like_exact(capsys):
    """RK4 drains x' = -1 to exactly 0, so 1/x fails as in exact mode."""
    code = cli_main(["run", EX21, "--time", "2", "--solver", "rk4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "the divisor of the division '1/x' is zero" in out


def test_run_zeno_bound_exit_code(capsys):
    code = cli_main(["run", ZENO, "--time", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert "bound reached (max_iterations)" in out


def test_rlcs_divisor_golden_message(tmp_path, capsys):
    text = corpus_path("rlcs-under").read_text(encoding="utf-8")
    broken = tmp_path / "rlcs-zero.lince"
    broken.write_text(text.replace("c := 0.047", "c := 0"), encoding="utf-8")
    code = cli_main(["run", str(broken), "--time", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "Error: the divisor of the division 'rU/(c)' is zero" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.lince"
    bad.write_text("while tt do { skip }", encoding="utf-8")
    code = cli_main(["run", str(bad), "--time", "1"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_check_all_corpus_programs(capsys):
    for name in ("eq1", "eq2", "ex21", "zeno", "aeb", "aebom",
                 "rlcs-under", "rlcs-over", "pursuit"):
        code = cli_main(["check", str(corpus_path(name))])
        out = capsys.readouterr().out
        assert code == 0, (name, out)
        assert out.startswith("ok:")


def test_check_reports_nonlinear(tmp_path, capsys):
    f = tmp_path / "nl.lince"
    f.write_text("x := 1 ; x' = x*x for 1", encoding="utf-8")
    code = cli_main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert "non-linear" in out


def test_check_leaves_a_statement_reading_a_body_variable_to_run_time(tmp_path, capsys):
    """`a` is set by the body before the statement, not declared: its value
    exists only at run time, where the program runs."""
    f = tmp_path / "later.lince"
    for text, linearized in (("x := 0 ; a := x + 1 ; x' = a for 1", 0),
                             ("x := 0 ; a := x + 1 ; x' = a for 1 ; x' = -x for 1", 1),
                             ("x := 0 ; a := x ; a' = 1 for 1 ; x' = a for 1", 1),
                             ("x := 0 ; if x <= 1 then a := 1 else x := 2 ; x' = a for 1", 0),
                             # set after the statement in the loop body, which
                             # a later iteration sees
                             ("x := 0 ; c := 0 ; while c <= 1 do { if 1 <= c then "
                              "x' = a for 1 else c := c ; a := 1 ; c := c + 1 }", 0)):
        f.write_text(text, encoding="utf-8")
        assert cli_main(["check", str(f)]) == 0
        assert capsys.readouterr().out == (f"ok: {linearized} differential statement(s) "
                                           "linearized, 1 left to run time\n")
        assert cli_main(["run", str(f), "--time", "1"]) == 0
        capsys.readouterr()


def test_check_reports_a_name_the_body_sets_only_after_the_statement(tmp_path, capsys):
    """`a` is set after the statement reads it, so no run can reach the
    statement with `a` set: `check` fails as `run` does."""
    f = tmp_path / "after.lince"
    f.write_text("x := 0 ; x' = a for 1 ; a := 1", encoding="utf-8")
    message = "Error: the variable 'a' is not initialised at 1:15\n"
    assert cli_main(["check", str(f)]) == 1
    assert capsys.readouterr().out == message
    assert cli_main(["run", str(f), "--time", "1"]) == 1
    assert capsys.readouterr().out == message


def test_check_runs_the_leading_assignments_before_it_linearizes(tmp_path, capsys):
    """They take no time, so every run performs them: `check` fails where
    `run` does, on the value `a` reaches or on a failing assignment."""
    f = tmp_path / "leading.lince"
    for text, at in (("a := 1 ; x := 1 ; a := a - 1 ; x' = x / a for 1",
                      "the division 'x / a' is zero at 1:37"),
                     ("x := 0 ; y := 1 / x ; x' = 1 for 1",
                      "the division '1 / x' is zero at 1:15")):
        f.write_text(text, encoding="utf-8")
        message = f"Error: the divisor of {at}\n"
        assert cli_main(["check", str(f)]) == 1
        assert capsys.readouterr().out == message
        assert cli_main(["run", str(f), "--time", "1"]) == 1
        assert capsys.readouterr().out == message


def test_check_reports_a_variable_nothing_declares_or_sets(tmp_path, capsys):
    f = tmp_path / "unset.lince"
    f.write_text("x := 0 ; a := x + 1 ; x' = b for 1", encoding="utf-8")
    assert cli_main(["check", str(f)]) == 1
    assert "the variable 'b' is not initialised" in capsys.readouterr().out


def test_run_has_no_max_time_flag(capsys):
    """`run` stops at --time; the sampling horizon belongs to `simulate`."""
    assert cli_main(["run", EQ1, "--time", "1", "--max-time", "1"]) == 2
    assert "--max-time" in capsys.readouterr().err


def test_simulate_writes_csv(tmp_path, capsys):
    code = cli_main(["simulate", EQ1, "--max-time", "2", "--dt", "0.5",
                     "--out", str(tmp_path)])
    assert code == 0
    data = (tmp_path / "eq1.csv").read_text()
    assert data.splitlines()[0] == "label,time,p,v"
    assert "completed at t=2" in capsys.readouterr().out


def test_simulate_writes_json(tmp_path):
    code = cli_main(["simulate", EQ1, "--max-time", "2", "--dt", "0.5",
                     "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "eq1.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["trajectories"][0]["outcome"]["variant"] == "skip"


def test_simulate_writes_plot_script(tmp_path):
    code = cli_main(["simulate", str(corpus_path("pursuit")), "--solver", "rk4",
                     "--max-time", "50", "--dt", "0.5", "--format", "plot",
                     "--graph", "scatter3d", "--axes", "[(xp,yp,zp),(xe,ye,ze)]",
                     "--out", str(tmp_path)])
    assert code == 0
    script = (tmp_path / "pursuit.gp").read_text()
    assert "splot" in script


def test_simulate_zeno_bound_exit(tmp_path, capsys):
    code = cli_main(["simulate", ZENO, "--max-time", "2", "--dt", "0.25",
                     "--out", str(tmp_path)])
    assert code == 3
    assert "bound reached" in capsys.readouterr().out


def test_simulate_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(hybridsim.cli, "simulate", exhausted)
    code = cli_main(["simulate", EQ1, "--dt", "1e-7", "--out", str(tmp_path)])
    assert code == 2
    assert "larger --dt" in capsys.readouterr().err


def test_simulate_out_of_memory_within_the_sample_budget_is_a_usage_error(
        tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(hybridsim.cli, "simulate", exhausted)
    code = cli_main(["simulate", EQ1, "--dt", "0.1", "--out", str(tmp_path)])
    assert code == 2
    assert "out of memory" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("the work was started")


@pytest.mark.parametrize("argv, flag", [
    (["simulate", EQ1, "--dt", "1e-7", "--max-time", "50"], "--dt"),
    (["simulate", EQ1, "--max-time", "1e300", "--dt", "1e-300"], "--dt"),
    (["simulate", EQ1, "--solver", "rk4", "--rk4-step", "1e-7", "--max-time", "50"],
     "--rk4-step"),
    (["run", EQ1, "--time", "1", "--solver", "rk4", "--rk4-step", "1e-9"], "--rk4-step"),
    # the default step, counted at its 1e-3 cap
    (["run", EQ1, "--time", "1e6", "--solver", "rk4"], "--rk4-step"),
    (["simulate", EQ1, "--solver", "rk4", "--max-time", "1e9", "--dt", "1e3"],
     "--rk4-step"),
    # over the sample and the RK4 step budgets: samples are checked first
    (["simulate", EQ1, "--solver", "rk4", "--max-time", "1e5", "--dt", "1e-3"], "--dt"),
])
def test_work_over_budget_is_refused_before_it_starts(argv, flag, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(hybridsim.cli, "simulate", _never)
    monkeypatch.setattr(hybridsim.cli, "big_step", _never)
    start = time.perf_counter()
    code = cli_main(argv + ["--out", str(tmp_path)] if argv[0] == "simulate" else argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"larger {flag}" in err
    assert "budget" in err and "Traceback" not in err


def test_work_within_budget_runs(tmp_path, capsys):
    assert cli_main(["run", EQ1, "--time", "1", "--solver", "rk4",
                     "--rk4-step", "1e-3"]) == 0
    # an exact run ignores --rk4-step
    assert cli_main(["run", EQ1, "--time", "1", "--rk4-step", "1e-12"]) == 0
    # and an exact run is not held to the RK4 budget's default step
    assert cli_main(["run", EQ1, "--time", "1e6"]) == 0
    assert cli_main(["simulate", EQ1, "--max-time", "2", "--dt", "1e-3",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_an_rk4_run_at_the_step_budget_is_fast(capsys):
    """1e7 RK4 steps, MAX_RK4_STEPS: the state is one propagator, whose
    cost grows with log(steps)."""
    start = time.perf_counter()
    assert cli_main(["run", EQ1, "--time", "10", "--solver", "rk4",
                     "--rk4-step", "1e-6"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "p = " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", ZENO, "--time", "5", "--max-iter", "100000000000000000000"],
    ["simulate", ZENO, "--max-iter", str(hybridsim.cli.MAX_ITERATIONS + 1)],
    # run checks its flags before it reads the file
    ["run", "/nonexistent.lince", "--time", "1", "--max-iter", str(10**20)],
], ids=["run", "simulate", "run-missing-file"])
def test_max_iter_over_budget_is_refused_before_it_starts(argv, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(hybridsim.cli, "simulate", _never)
    monkeypatch.setattr(hybridsim.cli, "big_step", _never)
    start = time.perf_counter()
    code = cli_main(argv + ["--out", str(tmp_path)] if argv[0] == "simulate" else argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "smaller --max-iter" in err
    assert f"budget of {hybridsim.cli.MAX_ITERATIONS}" in err and "Traceback" not in err


@pytest.mark.parametrize("d", ["5e-324", "3e-323", "7e-323"])
def test_rk4_runs_a_duration_whose_sixteenth_underflows(d, tmp_path, capsys):
    """d/16 underflows to 0.0 below 4.4e-323, and the segment is then
    solved in one step; at 7e-323 it rounds up to 5e-324.  Each gives what
    the exact backend gives."""
    src = tmp_path / "tiny.lince"
    src.write_text(f"x := 1 ; x' = x for {d}\n", encoding="utf-8")
    assert cli_main(["run", str(src), "--time", "1", "--solver", "rk4"]) == 0
    assert cli_main(["simulate", str(src), "--solver", "rk4",
                     "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    unit = hybridsim.desugar(hybridsim.parse(src.read_text(encoding="utf-8")))
    for t in (0.0, float(d), 1.0):
        exact = hybridsim.big_step(unit.body, {}, t, hybridsim.Exact())
        for outcome in (hybridsim.big_step(unit.body, {}, t, hybridsim.RK4()),
                        hybridsim.run_to_terminal(hybridsim.Config(unit.body, {}, t),
                                                  hybridsim.RK4())):
            assert outcome_bits(outcome) == outcome_bits(exact)


def test_max_iter_at_its_budget_runs(capsys):
    limit = str(hybridsim.cli.MAX_ITERATIONS)
    assert cli_main(["run", EQ1, "--time", "1", "--max-iter", limit]) == 0
    capsys.readouterr()


def test_integer_flag_too_large_for_a_float_is_a_usage_error(capsys):
    assert cli_main(["run", EQ1, "--time", "1", "--max-iter", "1" + "0" * 400]) == 2
    err = capsys.readouterr().err
    assert "--max-iter" in err and "Traceback" not in err


# flag values, typical and extreme; "1.8e308" reads as inf
REALS = ("0", "5e-324", "1e-300", "0.25", "1", "3.5", "1e300", "1.8e308")
INTS = ("0", "1", "50", "1000", str(hybridsim.cli.MAX_ITERATIONS + 1), str(10**20))


@given(command=st.sampled_from(["run", "simulate"]),
       program=st.sampled_from(["eq1", "zeno", "aeb"]),
       solver=st.sampled_from(["exact", "rk4"]),
       time_=st.sampled_from(REALS), max_time=st.none() | st.sampled_from(REALS),
       dt=st.none() | st.sampled_from(REALS), step=st.none() | st.sampled_from(REALS),
       max_iter=st.none() | st.sampled_from(INTS),
       fmt=st.sampled_from(["csv", "json", "plot"]))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_and_simulate_exit_with_a_documented_code_on_any_flags(
        command, program, solver, time_, max_time, dt, step, max_iter, fmt,
        tmp_path, capsys):
    """Every draw ends in exit code 0-3 and no traceback, within seconds.
    Work the budgets let through but that costs seconds (more than 1e3
    samples or 1e4 RK4 steps, a `--max-iter` between 1000 and its budget)
    is left out: it shows only how long legal work takes."""
    argv = [command, str(corpus_path(program)), "--solver", solver]
    for flag, value in (("--max-time", max_time), ("--rk4-step", step),
                        ("--max-iter", max_iter)):
        if value is not None:
            argv += [flag, value]
    if command == "run":
        argv += ["--time", time_]
        horizon = float(time_)
    else:
        argv += ["--format", fmt, "--out", str(tmp_path)]
        if dt is not None:
            argv += ["--dt", dt]
        horizon = float(max_time or 150.0)
        if horizon > 0 and dt is not None and float(dt) > 0:
            assume(not 1e3 < horizon / float(dt) <= hybridsim.cli.MAX_SAMPLES)
    if solver == "rk4":
        h = float(step) if step is not None else 1e-3
        if h > 0:
            assume(not 1e4 < horizon / h <= hybridsim.cli.MAX_RK4_STEPS)
    start = time.perf_counter()
    code = cli_main(argv)
    assert time.perf_counter() - start < 10.0, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in capsys.readouterr().err, argv
    event(f"exit {code}")


def test_simulate_axes_validation(tmp_path, capsys):
    code = cli_main(["simulate", EQ1, "--axes", "[(p,v,q)]", "--out", str(tmp_path)])
    assert code == 2
    code = cli_main(["simulate", EQ1, "--axes", "[(p,v,nothere)]",
                     "--graph", "scatter3d", "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_variability_cap_env_override(tmp_path, capsys, monkeypatch):
    f = tmp_path / "many.lince"
    values = ", ".join(str(i) for i in range(70))
    f.write_text(f"x := {{{values}}} ; x' = 1 for 1", encoding="utf-8")
    code = cli_main(["run", str(f), "--time", "0.5"])
    assert code == 2  # 70 combinations exceed the default cap of 64
    capsys.readouterr()
    monkeypatch.setenv("HYBRIDSIM_MAX_PRODUCT", "128")
    code = cli_main(["run", str(f), "--time", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[x=") == 70


def test_run_multi_label_output(capsys):
    code = cli_main(["run", str(corpus_path("aebom")), "--time", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[x=") == 9


def test_selftest_subcommand(capsys):
    code = cli_main(["selftest", "--seed", "3", "--count", "40", "--times", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 disagreement(s)" in out


def test_selftest_compares_outcomes_bit_for_bit(capsys, monkeypatch):
    """Skip({'x': -0.0}) == Skip({'x': 0.0}), yet the two semantics disagree."""
    monkeypatch.setattr(hybridsim.cli, "big_step",
                        lambda *args, **kwargs: hybridsim.Skip({"x": -0.0}))
    monkeypatch.setattr(hybridsim.cli, "run_to_terminal",
                        lambda *args, **kwargs: hybridsim.Skip({"x": 0.0}))
    code = cli_main(["selftest", "--count", "1", "--times", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "1 disagreement(s)" in out and "-0.0" in out


def test_usage_error_exit_code(capsys):
    assert cli_main(["run"]) == 2  # missing file and --time
    capsys.readouterr()


# the parser's vocabulary, so that random soups of it reach past the tokenizer
TOKENS = ("1 0 2.5 1e999 .5 x y pi sqrt min tt ff if then else while do for "
          ":= ' = + - * / ( ) { } , ; <= < > >= == != && || ! // \n").split(" ")


@given(contents=st.one_of(st.binary(), st.lists(st.sampled_from(TOKENS))
                          .map(" ".join).map(str.encode)))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_check_exits_with_a_documented_code_on_any_file(contents, tmp_path, capsys):
    f = tmp_path / "any.lince"
    f.write_bytes(contents)
    assert cli_main(["check", str(f)]) in (0, 1, 2, 3)
    capsys.readouterr()


def test_missing_file(tmp_path, capsys):
    assert cli_main(["run", "/nonexistent.lince", "--time", "1"]) == 2
    assert cli_main(["check", str(tmp_path)]) == 2  # a directory
    bad = tmp_path / "latin1.lince"
    bad.write_bytes(b"x := 1 ; // caf\xe9\n")
    assert cli_main(["check", str(bad)]) == 2
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main(["simulate", EQ1, "--out", str(taken)]) == 2
    # simulate reads the file before it checks its flags
    assert cli_main(["simulate", "/nonexistent.lince", "--max-iter", str(10**20)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 5 and err.count("No such file") == 2
    assert "Traceback" not in err


def test_out_of_range_literal_in_a_listing_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "huge.lince"
    f.write_text("x := {1e999, 2} ; x' = -x for 1\n")
    for argv in (["check", str(f)], ["run", str(f), "--time", "0.5"],
                 ["simulate", str(f), "--out", str(tmp_path)]):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "parse error: numeric literal out of range")


@pytest.mark.parametrize("argv, env", [
    (["run", EQ1, "--time", "-1"], None),
    (["run", EQ1, "--time", "nan"], None),
    (["simulate", EQ1, "--dt", "0"], None),
    (["simulate", EQ1, "--max-time", "inf"], None),
    (["simulate", EQ1, "--max-time", "5e-324"], None),
    (["simulate", EQ1, "--max-time", "1e-321"], None),
    (["run", EQ1, "--time", "1", "--solver", "rk4", "--rk4-step", "0"], None),
    (["run", EQ1, "--time", "1"], "abc"),
    (["run", EQ1, "--time", "1"], "-3"),
    (["run", ZENO, "--time", "1", "--max-iter", "-5"], None),
    (["run", EQ1, "--time", "1", "--max-iter", "2.5"], None),
    (["selftest", "--count", "-3"], None),
    (["selftest", "--times", "0"], None),
], ids=["time-negative", "time-nan", "dt-zero", "max-time-inf",
        "max-time-subnormal", "max-time-tiny",
        "rk4-step-zero", "cap-not-int", "cap-negative", "max-iter-negative",
        "max-iter-not-int", "count-negative", "times-zero"])
def test_bad_numeric_input_is_usage_error(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("HYBRIDSIM_MAX_PRODUCT", env)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err


def _python(*args):
    """Run a fresh interpreter on this package, at its default recursion
    limit."""
    src = str(Path(hybridsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_python_dash_m_runs_the_cli():
    done = _python("-W", "error::RuntimeWarning", "-m", "hybridsim", "check", EQ1)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok:")


def test_rk4_runs_and_checks_never_import_scipy():
    code = ("import sys; from hybridsim.cli import cli_main\n"
            f"assert cli_main(['check', {EQ1!r}]) == 0\n"
            f"assert cli_main(['run', {EQ1!r}, '--time', '3', '--solver', 'rk4']) == 0\n"
            "assert 'scipy' not in sys.modules, 'rk4'\n"
            f"assert cli_main(['run', {EQ1!r}, '--time', '3']) == 0\n"
            "assert 'scipy' in sys.modules, 'exact'\n")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr


LONG = 10_000
CHAIN = "+1" * LONG
GUARD = " && ".join(["x <= 1"] * 2000)
# (program, `check` output, `run --time 1` output, its body printed)
LONG_PROGRAMS = {
    "statements": ("x := 0 ;\n" + " ;\n".join(["x := x + 1"] * LONG),
                   "ok: 0 differential", "x = 10000",
                   "x := 0.0" + " ; x := x + 1.0" * LONG),
    "rhs-terms": ("x := 0 ;\nx' = x" + CHAIN + " for 1",
                  "ok: 1 differential", "x = 17182.8182846",  # 1e4 (e - 1)
                  "x := 0.0 ; x' = x" + " + 1.0" * LONG + " for 1.0"),
    "assignment-terms": ("x := 0" + CHAIN, "ok: 0 differential", "x = 10000",
                         "x := 0.0" + " + 1.0" * LONG),
    "guard-terms": ("x := 0 ;\nif 0" + CHAIN + " <= x then x := 1 else x := 2",
                    "ok: 0 differential", "x = 2",
                    "x := 0.0 ; if 0.0" + " + 1.0" * LONG
                    + " <= x then { x := 1.0 } else { x := 2.0 }"),
    "duration-terms": ("x := 0 ;\nx' = 1 for 0" + CHAIN, "ok: 1 differential", "x = 1",
                       "x := 0.0 ; x' = 1.0 for 0.0" + " + 1.0" * LONG),
    "and-guard": ("x := 0 ;\nif " + GUARD + " then x := 1 else x := 2",
                  "ok: 0 differential", "x = 1",
                  "x := 0.0 ; if " + GUARD.replace("1", "1.0")
                  + " then { x := 1.0 } else { x := 2.0 }"),
}

# prints the parsed body, then that text parsed and printed again
ROUND_TRIP = """
import sys
from hybridsim.syntax import parse_program, pretty
printed = pretty(parse_program(open(sys.argv[1]).read()))
print(printed)
print(pretty(parse_program(printed)))
"""


@pytest.mark.parametrize("case", LONG_PROGRAMS.values(), ids=LONG_PROGRAMS.keys())
def test_long_programs_run_under_the_default_recursion_limit(case, tmp_path):
    text, checked, value, printed = case
    f = tmp_path / "long.lince"
    f.write_text(text + "\n")
    for argv, want in ((["check"], checked), (["run", "--time", "1"], value),
                       (["simulate", "--max-time", "20", "--out", str(tmp_path)],
                        "trajectory: ")):
        done = _python("-m", "hybridsim", argv[0], str(f), *argv[1:])
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stderr == ""
        assert want in done.stdout
    done = _python("-c", ROUND_TRIP, str(f))
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [printed] * 2


def test_check_too_deeply_nested_program_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "deep.lince"
    f.write_text("x := " + "(" * 3000 + "1" + ")" * 3000 + "\n")
    assert cli_main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: nesting deeper than")
    assert "Traceback" not in err
