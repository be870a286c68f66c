import hashlib

import numpy as np
import pytest

from congames.cli import main
from congames.experiments import preset_spec, run_scenario

GAME_FILE = """
n: 2
partition: 0 0 2 0
dist 1: exponential rate=1.0
dist 2: exponential rate=1.0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_worst_explicit_sweep_values(capsys):
    code, out, _ = run_cli(
        capsys, "worst", "explicit", "--scenario", "1",
        "--e1-min", "1", "--e1-max", "2", "--e1-step", "1",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("e1,value,stderr,p1,p2,p3")
    row1 = lines[1].split(",")
    assert float(row1[0]) == 1.0
    assert float(row1[1]) == pytest.approx(5.0 / 6.0)
    row2 = lines[2].split(",")
    assert float(row2[1]) == pytest.approx(1.0)
    assert [float(v) for v in row2[3:6]] == [1.0, 0.0, 0.0]


def test_nash_sweep_pins_dominant_resource(capsys):
    code, out, _ = run_cli(
        capsys, "nash", "--scenario", "1",
        "--e1-min", "2", "--e1-max", "2.4", "--e1-step", "0.2",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    for row in lines[1:]:
        vals = [float(v) for v in row.split(",")]
        assert vals[4:7] == [1.0, 0.0, 0.0]
        assert vals[7:10] == [1.0, 0.0, 0.0]


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "worst", "md", "--scenario", "2", "--e1-min", "0.5", "--e1-max", "1.5",
        "--e1-step", "0.5", "--T", "400", "--samples", "2000", "--seed", "7",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_worst_values_monotone_in_e1(capsys):
    code, out, _ = run_cli(
        capsys, "worst", "explicit", "--scenario", "1",
        "--e1-min", "0.2", "--e1-max", "2.4", "--e1-step", "0.2",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_solver_scenario_incompatibility(capsys):
    code, _, err = run_cli(capsys, "worst", "md", "--scenario", "3")
    assert code == 2
    assert "requires a == 0" in err
    code, _, err = run_cli(capsys, "worst", "explicit", "--scenario", "2")
    assert code == 2


def test_bad_grid_rejected(capsys):
    code, _, err = run_cli(capsys, "nash", "--e1-min", "2", "--e1-max", "1")
    assert code == 2
    assert "e1-max" in err


def test_evaluate_modes(tmp_path, capsys):
    game = tmp_path / "game.txt"
    game.write_text(GAME_FILE)
    strat = tmp_path / "strat.txt"
    strat.write_text("kind: simplex\np: 1 0\n")
    opp = tmp_path / "opp.txt"
    opp.write_text("kind: simplex\np: 0.5 0.5\n")

    code, out, _ = run_cli(
        capsys, "evaluate", "--game", str(game), "--strategy", str(strat), "--mode", "stats"
    )
    assert code == 0
    assert out.splitlines()[0] == "p: 1 0"

    code, out, _ = run_cli(
        capsys, "evaluate", "--game", str(game), "--strategy", str(strat),
        "--mode", "vs-worst-case",
    )
    assert code == 0
    report = dict(line.split(": ") for line in out.splitlines())
    assert float(report["value"]) == pytest.approx(0.5)

    code, out, _ = run_cli(
        capsys, "evaluate", "--game", str(game), "--strategy", str(strat),
        "--mode", "vs-strategy", "--opponent", str(opp), "--samples", "20000",
    )
    assert code == 0
    report = dict(line.split(": ") for line in out.splitlines())
    assert float(report["utility_a"]) == pytest.approx(0.75, abs=0.02)


def test_evaluate_parse_error_exit_code(tmp_path, capsys):
    game = tmp_path / "game.txt"
    game.write_text("n: 2\nbogus: 1\n")
    strat = tmp_path / "strat.txt"
    strat.write_text("kind: simplex\np: 1 0\n")
    code, _, err = run_cli(
        capsys, "evaluate", "--game", str(game), "--strategy", str(strat)
    )
    assert code == 2
    assert "line 2" in err


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("CONGAMES_E1_MAX", "1.0")
    monkeypatch.setenv("CONGAMES_E1_MIN", "1.0")
    code, out, _ = run_cli(capsys, "worst", "explicit", "--scenario", "1")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 1  # grid collapsed to the single point from the env


def test_sweep_subcommand_matches_worst(capsys):
    args = ["--scenario", "1", "--e1-min", "1", "--e1-max", "1", "--e1-step", "1"]
    code1, out1, _ = run_cli(capsys, "worst", "explicit", *args)
    code2, out2, _ = run_cli(capsys, "sweep", "--solver", "worst-explicit", *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_dpp_md_sweeps_run_small(capsys):
    code, out, _ = run_cli(
        capsys, "worst", "dpp", "--scenario", "2", "--e1-min", "1", "--e1-max", "1",
        "--e1-step", "1", "--T", "2000", "--alpha", "40000", "--samples", "5000",
        "--reps", "2",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    vals = [float(v) for v in rows[0].split(",")]
    assert 0.5 < vals[1] < 1.0  # near 5/6 at e1 = 1
    assert vals[-2] <= vals[1] <= vals[-1]  # value within the min/max band


def test_spec_validation():
    with pytest.raises(ValueError):
        preset_spec(4, "nash", [1.0])
    with pytest.raises(ValueError):
        preset_spec(1, "bogus", [1.0])
    with pytest.raises(ValueError):
        preset_spec(1, "nash", [])
    spec = preset_spec(1, "worst-explicit", [1.0, 2.0])
    table = run_scenario(spec)
    assert table.rows.shape[0] == 2


def test_probability_columns_form_simplex_rows():
    nash = run_scenario(preset_spec(1, "nash", [0.7, 1.3, 2.1]))
    for row in nash.rows:
        pa, pb = row[4:7], row[7:10]
        for p in (pa, pb):
            assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)
            assert abs(p.sum() - 1.0) <= 1e-3
    worst = run_scenario(preset_spec(1, "worst-explicit", [0.7, 1.3, 2.1]))
    for row in worst.rows:
        p = row[3:6]
        assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)
        assert abs(p.sum() - 1.0) <= 1e-3


def test_solvers_agree_on_symmetric_scenario():
    # iterative solvers land within 0.05 of the closed form at every point
    grid = [0.5, 1.0, 2.0]
    explicit = run_scenario(preset_spec(1, "worst-explicit", grid))
    dpp = run_scenario(
        preset_spec(1, "worst-dpp", grid, V=200.0, alpha=4.0e4, T=20_000, n_samples=2000)
    )
    md = run_scenario(
        preset_spec(1, "worst-md", grid, alpha=50.0, T=10_000, n_samples=2000)
    )
    np.testing.assert_allclose(dpp.rows[:, 1], explicit.rows[:, 1], atol=0.05)
    np.testing.assert_allclose(md.rows[:, 1], explicit.rows[:, 1], atol=0.05)


# sha256 of the CSV each benchmark smoke sweep prints at seed 0, recorded at
# the commit that defined the benchmark; any solver refactor must keep them
SMOKE_SWEEPS = {
    "worst-dpp-s3": (
        ["worst", "dpp", "--scenario", "3", "--e1-min", "1.0", "--e1-max", "1.0",
         "--T", "2000", "--samples", "2000"],
        "0522a2bca23f4a548f9fc791a52934f88f653026319825086804827cd26e3d49",
    ),
    "nash-s3": (
        ["nash", "--scenario", "3", "--e1-min", "0.5", "--e1-max", "1.5", "--e1-step", "0.5",
         "--samples", "2000"],
        "1b76d153de5b1168b8aeda646915a09013006ab7bfd0b5eff6ddf53fb4855276",
    ),
    "worst-md-s2": (
        ["worst", "md", "--scenario", "2", "--e1-min", "0.3", "--e1-max", "2.4", "--e1-step", "0.3",
         "--T", "500", "--samples", "2000"],
        "4d956de6db80f2b4e76322b5ee626c1cd028fd5672edb77936ae3803ede0dbe8",
    ),
    "worst-a1-s3": (
        ["worst", "a1", "--scenario", "3", "--e1-min", "0.3", "--e1-max", "2.4", "--e1-step", "0.3",
         "--T", "500", "--samples", "2000"],
        "51dbb81817dac7d0f52414033f5695332f96ef0b9de1fe15862c29c639288e2b",
    ),
}


@pytest.mark.parametrize("workload", sorted(SMOKE_SWEEPS))
def test_smoke_sweep_csv_is_byte_identical(capsys, workload):
    argv, expected = SMOKE_SWEEPS[workload]
    code, out, _ = run_cli(capsys, *argv, "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_step_defaults_per_solver(capsys):
    assert preset_spec(3, "worst-dpp", [1.0]).alpha == 4.0e4
    assert preset_spec(3, "worst-dpp", [1.0]).T == 100_000
    for solver, scenario in (("worst-md", 2), ("worst-a1", 3)):
        spec = preset_spec(scenario, solver, [1.0])
        assert (spec.alpha, spec.T) == (50.0, 10_000)
    assert preset_spec(2, "worst-md", [1.0], alpha=7.0).alpha == 7.0
    for flag in ("--alpha", "--T"):
        code, _, err = run_cli(capsys, "worst", "md", "--scenario", "2", flag, "0")
        assert code == 2
        assert "must be" in err
