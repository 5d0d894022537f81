import json

import pytest

from hybridsim import corpus_path
from hybridsim.cli import cli_main

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


def test_usage_error_exit_code(capsys):
    assert cli_main(["run"]) == 2  # missing file and --time
    capsys.readouterr()


def test_missing_file(capsys):
    assert cli_main(["run", "/nonexistent.lince", "--time", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, env", [
    (["run", EQ1, "--time", "-1"], None),
    (["run", EQ1, "--time", "nan"], None),
    (["simulate", EQ1, "--dt", "0"], None),
    (["simulate", EQ1, "--max-time", "inf"], None),
    (["run", EQ1, "--time", "1", "--solver", "rk4", "--rk4-step", "0"], None),
    (["run", EQ1, "--time", "1"], "abc"),
    (["run", EQ1, "--time", "1"], "-3"),
], ids=["time-negative", "time-nan", "dt-zero", "max-time-inf",
        "rk4-step-zero", "cap-not-int", "cap-negative"])
def test_bad_numeric_input_is_usage_error(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("HYBRIDSIM_MAX_PRODUCT", env)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err
