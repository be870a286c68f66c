import hashlib
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import congames.experiments
import congames.game
from congames import DppConfig, MdConfig, Mixture, NashConfig, Partition, Simplex, estimate_stats, explicit_solution
from congames.cli import SETTING_HELP, main
from congames.experiments import SOLVER_CONFIGS, ScenarioSpec, SweepTable, evaluate_report, run_scenario
from congames.rng import as_generator, stream_generators
from conftest import exp_game, load_benchmark

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


def test_a1_sweeps_the_lowest_preset_it_solves_by_default(capsys):
    argv = ["worst", "a1", "--T", "200", "--e1-min", "1", "--e1-max", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "--scenario", "3") == (0, out, "")


def test_the_closed_form_is_solved_once_per_point(capsys, monkeypatch):
    # it is exact and reads no seed, so one solve serves every repetition:
    # stderr 0 and min == max == value; the hash pins the rest of the table
    calls = []

    def spy(means):
        calls.append(means)
        return explicit_solution(means)

    monkeypatch.setattr("congames.experiments.explicit_solution", spy)
    code, out, _ = run_cli(capsys, "worst", "explicit", "--reps", "7")
    assert code == 0 and len(calls) == 24
    rows = np.loadtxt(out.splitlines()[3:], delimiter=",")
    assert np.all(rows[:, 2] == 0.0)
    assert np.all(rows[:, 6] == rows[:, 1]) and np.all(rows[:, 7] == rows[:, 1])
    assert hashlib.sha256(out.encode()).hexdigest() == "6ea661d2e188131468075764453e434780c9e7cd44bf5b8812e3e7c8e974d516"


def test_a_preset_with_nothing_private_runs_each_point_once(capsys, monkeypatch):
    # with a == b == 0 every solver is deterministic, so one run on
    # repetition 0's seed stands for all five: 3 runs, not 15, and the
    # worst-case rows have stderr exactly 0
    runs = {}

    def spy(name):
        original = getattr(congames.experiments, name)

        def counted(*args, **kwargs):
            runs[name] = runs.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(congames.experiments, name, counted)

    spy("run_dpp")
    spy("iterate_best_response")
    spy("explicit_solution")
    spy("run_md")
    grid = ("--scenario", "1", "--e1-min", "0.5", "--e1-max", "1.5", "--e1-step", "0.5", "--reps", "5")
    for argv, name in (
        (["worst", "dpp", "--T", "2000"], "run_dpp"),
        (["worst", "md", "--T", "2000"], "run_md"),
        (["worst", "explicit"], "explicit_solution"),
        (["nash"], "iterate_best_response"),
    ):
        code, out, err = run_cli(capsys, *argv, *grid)
        assert (code, err) == (0, ""), argv
        assert runs.pop(name) == 3, argv
        assert "reps=5 " in out.splitlines()[0]
        if argv[0] == "worst":
            rows = np.loadtxt(out.splitlines()[3:], delimiter=",")
            assert np.all(rows[:, 2] == 0.0), argv
    assert runs == {}
    # a warning still counts over the repetitions it names: one run's
    # violations once per repetition
    code, out, _ = run_cli(
        capsys, "worst", "dpp", "--scenario", "1", "--alpha", "1000", "--T", "2000", "--reps", "3",
        "--e1-min", "1", "--e1-max", "1.2", "--e1-step", "0.2",
    )
    assert code == 0
    notes = [line.split(";")[0] for line in out.splitlines() if line.startswith("# WARNING")]
    assert notes == [
        "# WARNING: e1=1: 16287 DPP queue-cap violations over 3 reps",
        "# WARNING: e1=1.2: 16266 DPP queue-cap violations over 3 reps",
    ]
    monkeypatch.setattr("congames.nash.iteration_cap", lambda game, epsilon: 1)
    code, out, _ = run_cli(capsys, "nash", "--scenario", "1", "--e1-min", "1", "--e1-max", "1", "--reps", "4")
    assert code == 0
    assert "# WARNING: e1=1: best response did not converge in 4 of 4 reps" in out.splitlines()
    assert runs.pop("iterate_best_response") == 1


def test_a_max_term_the_samples_cannot_hold_is_refused_before_any_solver_runs(capsys, monkeypatch):
    # the spec asks the max term's one check, so a worst-case sweep refuses
    # --samples whose max-term columns (B's one drawn column here) exceed
    # the budget before any run
    for name in ("run_dpp", "run_md", "solve_a1"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    for argv, need in (
        (["worst", "md", "--scenario", "2", "--T", "200000", "--samples", "300000000"], "2289"),
        (["worst", "dpp", "--scenario", "3", "--samples", "150000000"], "1144"),
        (["worst", "a1", "--scenario", "3", "--samples", "150000000"], "1144"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: omega_max_mean run with n_samples={argv[-1]}, n=3 needs {need} MiB up front")


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


def test_evaluate_score_file_is_one_row_mixture(tmp_path, capsys):
    # A observes resource 1 and B resource 2, so both modes sample worlds
    game = tmp_path / "game.txt"
    game.write_text(
        "n: 3\npartition: 1 1 1 0\ndist 1: exponential rate=1.0\n"
        "dist 2: uniform lo=0.0 hi=2.0\ndist 3: pointmass value=0.8\n"
    )
    score = tmp_path / "score.txt"
    score.write_text("kind: score\nplayer: A\nvalues: 1 0.7 0.75\n")
    mixture = tmp_path / "mixture.txt"
    mixture.write_text("kind: mixture\nplayer: A\ncomponent: 1 0.7 0.75\n")
    for mode in ("stats", "vs-worst-case"):
        outs = []
        for strat in (score, mixture):
            code, out, err = run_cli(
                capsys, "evaluate", "--game", str(game), "--strategy", str(strat),
                "--mode", mode, "--samples", "5000", "--seed", "3",
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0] == EVALUATE_PRINTOUTS[mode]


def test_evaluate_refuses_a_flag_its_mode_does_not_read(tmp_path, capsys):
    game = tmp_path / "game.txt"
    game.write_text(GAME_FILE)
    strat = tmp_path / "strat.txt"
    strat.write_text("kind: simplex\np: 1 0\n")
    base = ("evaluate", "--game", str(game), "--strategy", str(strat), "--samples", "2000")
    refused = [
        (("--mode", "stats", "--opponent", str(strat)), "--mode stats does not read --opponent"),
        (("--opponent", str(strat)), "--mode stats does not read --opponent"),  # stats is the default
        (("--mode", "vs-worst-case", "--opponent", str(strat)), "--mode vs-worst-case does not read --opponent"),
        (("--mode", "vs-worst-case", "--player", "B"), "--mode vs-worst-case does not read --player"),
        (("--mode", "vs-worst-case", "--player", "A"), "--mode vs-worst-case does not read --player"),
        (("--mode", "vs-strategy", "--opponent", str(strat), "--player", "B"), "--mode vs-strategy does not read --player"),
        (("--mode", "vs-strategy", "--opponent", str(strat), "--player", "A"), "--mode vs-strategy does not read --player"),
    ]
    for flags, message in refused:
        code, out, err = run_cli(capsys, *base, *flags)
        assert (code, out) == (2, ""), flags
        assert message in err
    # each flag still works in the modes that read it
    code, out, _ = run_cli(capsys, *base, "--mode", "stats", "--player", "B")
    assert code == 0 and out.startswith("p: ")
    # the library refuses player B's worst case
    game_b = exp_game([1.0, 1.0], (0, 1, 1, 0))
    with pytest.raises(ValueError, match="^worst-case evaluation is defined for player A$"):
        evaluate_report(Mixture([[1.0, 0.5]], [0]), game_b, "vs-worst-case", n_samples=2000, player="B")
    code, out, _ = run_cli(capsys, *base, "--mode", "vs-strategy", "--opponent", str(strat))
    assert code == 0 and out.startswith("utility_a: ")


# what both strategy files above print at seed 3 with 5000 samples
EVALUATE_PRINTOUTS = {
    "stats": "p: 0.4738 0 0.5262\nq: 0.843114639\n",
    "vs-worst-case": "value: 0.84251732\nstderr: 1.57024949e-18\ncollision_max_mean: 0.843114639\n",
}


def test_few_sample_nash_sweep_runs(capsys):
    # three samples estimate q above twice the mean on some turns; the
    # opponent-block coefficient is floored at 0 instead of going negative
    for seed in ("0", "1", "2"):
        code, out, err = run_cli(capsys, "nash", "--scenario", "3", "--samples", "3", "--seed", seed)
        assert code == 0, err
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 24 and "nan" not in out


def test_one_sample_is_refused_where_the_max_term_is_sampled(capsys, monkeypatch):
    # one draw has no standard error: a worst-case spec whose preset lets B
    # observe a resource (scenarios 2 and 3) refuses it when it is built,
    # before any solver runs, while nash and the exact evaluations (b = 0)
    # still accept one sample
    for scenario, solver in ((2, "worst-md"), (2, "worst-dpp"), (3, "worst-dpp"), (3, "worst-a1")):
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            ScenarioSpec(scenario, solver, [1.0], n_samples=1)
    ScenarioSpec(3, "nash", [1.0], n_samples=1)

    def not_called(*args, **kwargs):
        raise AssertionError("a solver ran before the spec was checked")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as patched:
            for solver in ("run_md", "run_dpp"):
                patched.setattr(f"congames.experiments.{solver}", not_called)
            for argv in (["worst", "md", "--scenario", "2"], ["worst", "dpp", "--scenario", "3", "--T", "100"]):
                code, out, err = run_cli(capsys, *argv, "--samples", "1")
                assert (code, out) == (2, "")
                assert "n_samples must be >= 2" in err
        for argv in (["worst", "explicit", "--scenario", "1"], ["worst", "md", "--scenario", "1", "--T", "100"]):
            code, out, err = run_cli(capsys, *argv, "--samples", "1")
            assert code == 0, err
            assert "nan" not in out


def test_samples_a_dpp_evaluation_cannot_hold_are_refused_before_any_run(capsys, monkeypatch):
    # DPP's evaluation estimates A's stats of the run's T-row mixture, which
    # holds A's world column, the component draws, the actions and one block
    # of n scores, more than the max term's b; the spec asks the estimate's
    # own rule: 8 * (3 * n_samples + MIXTURE_BLOCK * 3) bytes at n = 3
    def not_called(*args, **kwargs):
        raise AssertionError("a DPP run started before the spec was checked")

    monkeypatch.setattr("congames.experiments.run_dpp", not_called)
    for samples, need in (("44722859", "1024"), ("89478485", "2048")):
        code, out, err = run_cli(
            capsys, "worst", "dpp", "--scenario", "3", "--T", "1000", "--samples", samples, "--e1-min", "1", "--e1-max", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: estimate_stats run with n_samples={samples}, n=3 needs {need} MiB up front")
    # one row less than the budget is accepted, and so is a one-row mixture
    # (T = 1), which holds its threshold split, and scenario 2, where A
    # observes nothing and the estimate is exact
    ScenarioSpec(3, "worst-dpp", [1.0], config=DppConfig(T=1000), n_samples=44722858)
    ScenarioSpec(3, "worst-dpp", [1.0], config=DppConfig(T=1), n_samples=44722859)
    ScenarioSpec(2, "worst-dpp", [1.0], config=DppConfig(T=1000), n_samples=44722859)
    # the ceiling of a mixture that gathered all n_samples x n scores at once
    ScenarioSpec(3, "worst-dpp", (1.0,), n_samples=22369622)


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


def test_multi_rep_dpp_sweep_csv_is_byte_identical(capsys):
    # three points of two DPP runs each, every run evaluated on its own seed
    code, out, _ = run_cli(
        capsys, "worst", "dpp", "--scenario", "2", "--e1-min", "0.5", "--e1-max", "1.5",
        "--e1-step", "0.5", "--T", "2000", "--samples", "2000", "--reps", "2",
    )
    assert code == 0
    expected = "8c39887472ba0cf2db7a90f2b794d4ccbc9964ca2306b52714c5eab2a12b6c54"
    assert hashlib.sha256(out.encode()).hexdigest() == expected



def test_dpp_sweep_warns_on_queue_cap_violations(capsys):
    # alpha = 1000 < V^2 = 40000 voids the queue cap; the warning is a note
    # and the rows keep the bytes they had before the note was added
    code, out, _ = run_cli(
        capsys, "worst", "dpp", "--scenario", "3", "--e1-min", "1", "--e1-max", "1",
        "--alpha", "1000", "--T", "2000",
    )
    assert code == 0
    notes = [l for l in out.splitlines() if l.startswith("#")]
    assert "# WARNING: e1=1: 4809 DPP queue-cap violations over 1 reps" in notes[-1]
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows == [
        "e1,value,stderr,p1,p2,p3,value_min,value_max",
        "1,1.03507762,0.000122317464,0.26135,0.21907,0.51958,1.03507762,1.03507762",
    ]
    # at alpha >= V^2 (the default) the cap holds and no note is added
    code, out, _ = run_cli(capsys, *BENCHMARK.sweep_argv("worst-dpp-s3", 0, True))
    assert code == 0 and "WARNING" not in out


def test_nash_sweep_warns_when_best_response_does_not_converge(capsys, monkeypatch):
    # a one-turn budget stops every run before its two quiet turns; the
    # warning is a note and the rows keep the bytes they had without it
    monkeypatch.setattr("congames.nash.iteration_cap", lambda game, epsilon: 1)
    code, out, _ = run_cli(
        capsys, "nash", "--scenario", "3", "--e1-min", "0.5", "--e1-max", "1.0",
        "--e1-step", "0.5", "--samples", "2000", "--reps", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        "# nash sweep: epsilon=0.001 reps=2 seed=0",
        "# WARNING: e1=0.5: best response did not converge in 2 of 2 reps",
        "# WARNING: e1=1: best response did not converge in 2 of 2 reps",
        "e1,utility_a,utility_b,potential,pa1,pa2,pa3,pb1,pb2,pb3",
        "0.5,0.883840026,0.656565328,1.71717336,0.13075,0.86925,0,0.333333333,0.333333333,0.333333333",
        "1,1.12600285,0.77479943,2.12600285,0.36025,0.63975,0,0.333333333,0.333333333,0.333333333",
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(4, "nash", [1.0])
    with pytest.raises(ValueError):
        ScenarioSpec(1, "bogus", [1.0])
    with pytest.raises(ValueError):
        ScenarioSpec(1, "nash", [])
    # the grid is checked when the spec is built, not when a point's game is
    for bad in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="swept mean must be positive"):
            ScenarioSpec(1, "nash", [1.0, bad])
    spec = ScenarioSpec(3, "nash", [1, 2])
    assert spec.e1_values == (1.0, 2.0) and spec.partition == Partition(1, 1, 1, 0)
    spec = ScenarioSpec(1, "worst-explicit", [1.0, 2.0])
    table = run_scenario(spec)
    assert table.rows.shape[0] == 2



def test_non_integer_counts_are_refused_before_any_solver_runs(monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("a solver ran before the count was checked")

    for solver in ("run_dpp", "run_md", "solve_a1", "iterate_best_response"):
        monkeypatch.setattr(f"congames.experiments.{solver}", not_called)
    monkeypatch.setattr("congames.montecarlo.sample_world", not_called)
    g = exp_game([1.0, 1.0, 1.0], (1, 1, 1, 0))
    score = Mixture([[1.0, 0.5, 0.5]], private=[0])
    # a config checks T for positive and finite first, as for every
    # setting, and then for an integer
    for config_type in (DppConfig, MdConfig):
        with pytest.raises(ValueError, match="^T must be positive and finite, got nan$"):
            config_type(T=float("nan"))
        with pytest.raises(ValueError, match="^T must be an integer, got 2.5$"):
            config_type(T=2.5)
    for bad in (2.5, float("nan")):
        for spec_count in ("n_samples", "repetitions"):
            for scenario, solver in ((3, "nash"), (2, "worst-md"), (3, "worst-a1")):
                with pytest.raises(ValueError, match=f"^{spec_count} must be an integer, got {bad!r}$"):
                    ScenarioSpec(scenario, solver, [1.0], **{spec_count: bad})
        with pytest.raises(ValueError, match=f"^n_samples must be an integer, got {bad!r}$"):
            estimate_stats(score, g, "A", n_samples=bad)
    # numpy integers are integers
    assert ScenarioSpec(2, "worst-md", [1.0], MdConfig(T=np.int64(5)), n_samples=np.int64(2)).config.T == 5
    assert MdConfig(alpha=1.0, T=np.int32(3)).T == 3

def test_probability_columns_form_simplex_rows():
    nash = run_scenario(ScenarioSpec(1, "nash", [0.7, 1.3, 2.1]))
    for row in nash.rows:
        pa, pb = row[4:7], row[7:10]
        for p in (pa, pb):
            assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)
            assert abs(p.sum() - 1.0) <= 1e-3
    worst = run_scenario(ScenarioSpec(1, "worst-explicit", [0.7, 1.3, 2.1]))
    for row in worst.rows:
        p = row[3:6]
        assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)
        assert abs(p.sum() - 1.0) <= 1e-3


def test_solvers_agree_on_symmetric_scenario():
    # iterative solvers land within 0.05 of the closed form at every point
    grid = [0.5, 1.0, 2.0]
    explicit = run_scenario(ScenarioSpec(1, "worst-explicit", grid))
    dpp = run_scenario(
        ScenarioSpec(1, "worst-dpp", grid, DppConfig(V=200.0, alpha=4.0e4, T=20_000), n_samples=2000)
    )
    md = run_scenario(
        ScenarioSpec(1, "worst-md", grid, MdConfig(alpha=50.0, T=10_000), n_samples=2000)
    )
    np.testing.assert_allclose(dpp.rows[:, 1], explicit.rows[:, 1], atol=0.05)
    np.testing.assert_allclose(md.rows[:, 1], explicit.rows[:, 1], atol=0.05)


# the benchmark's sweeps, full size and smoke, with the sha256 of the CSV
# each prints at seed 0, read from perfbench/workloads.json; any solver
# refactor must keep them
BENCHMARK = load_benchmark()
PINS = {False: BENCHMARK.WORKLOADS["csv_sha256_seed0"], True: BENCHMARK.WORKLOADS["smoke_csv_sha256_seed0"]}


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload", sorted(BENCHMARK.WORKLOADS["workloads"]))
def test_benchmark_sweep_csv_is_byte_identical(capsys, workload, smoke):
    code, out, _ = run_cli(capsys, *BENCHMARK.sweep_argv(workload, 0, smoke))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[smoke][workload]


def test_no_benchmark_pin_is_copied_into_the_tests():
    # the pins have one home, so a re-baseline edits one file
    pins = [sha.encode() for table in PINS.values() for sha in table.values()]
    tests = Path(__file__).resolve().parent
    for path in tests.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            text = path.read_bytes()
            assert not [sha for sha in pins if sha in text], path


# sha256 of --reps 3 smoke sweeps at seed 0: the value, its spread over the
# repetitions as stderr, the mean p and the min/max of each point's folds
MULTI_REP_SWEEPS = {
    "worst-md-s2": (
        BENCHMARK.sweep_argv("worst-md-s2", 0, True),
        "10129053d095cc460292f70a4ad6c51090c7f314fbb7ece168bde6e9ae31cad7",
    ),
    "worst-a1-s3": (
        BENCHMARK.sweep_argv("worst-a1-s3", 0, True),
        "5d4d8f102b45063fb992f6d8f2d001759e1a39fae496ce8057ae8ff209ad0f71",
    ),
    "worst-explicit-s1": (
        ["worst", "explicit", "--scenario", "1", "--e1-min", "0.5", "--e1-max", "1.5", "--e1-step", "0.5",
         "--seed", "0"],
        "a0915ae5e6328e7229461455b733600efa0023dd183ad60a26a4e755d6fea5dd",
    ),
}


@pytest.mark.parametrize("workload", sorted(MULTI_REP_SWEEPS))
def test_multi_rep_sweep_csv_is_byte_identical(capsys, workload):
    argv, expected = MULTI_REP_SWEEPS[workload]
    code, out, _ = run_cli(capsys, *argv, "--reps", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_step_defaults_per_solver(capsys):
    # a spec left without a config takes its solver's default one
    assert ScenarioSpec(3, "worst-dpp", [1.0]).config == DppConfig(V=200.0, alpha=4.0e4, T=100_000)
    for solver, scenario in (("worst-md", 2), ("worst-a1", 3)):
        assert ScenarioSpec(scenario, solver, [1.0]).config == MdConfig(alpha=50.0, T=10_000)
    assert ScenarioSpec(2, "worst-md", [1.0], MdConfig(alpha=7.0)).config.alpha == 7.0
    assert ScenarioSpec(3, "nash", [1.0]).config == NashConfig(epsilon=1e-3)
    assert ScenarioSpec(3, "worst-dpp", [1.0], DppConfig(V=50.0)).config.V == 50.0
    assert ScenarioSpec(1, "worst-explicit", [1.0]).config is None
    for flag in ("--alpha", "--T"):
        code, _, err = run_cli(capsys, "worst", "md", "--scenario", "2", flag, "0")
        assert code == 2
        assert "must be" in err
    for argv in (["nash", "--epsilon", "0"], ["worst", "dpp", "--V", "0"]):
        code, out, err = run_cli(capsys, *argv, "--scenario", "3")
        assert (code, out) == (2, "")
        assert "must be positive" in err


def test_settings_must_be_positive_and_finite(capsys, monkeypatch):
    # each config checks its own settings, with the messages the CLI prints
    for solver, names in SETTINGS_READ.items():
        for name in names:
            for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad!r}$"):
                    SOLVER_CONFIGS[solver](**{name: bad})

    def not_called(*args, **kwargs):
        raise AssertionError("a solver ran before the spec was checked")

    for name in ("run_dpp", "run_md", "solve_a1", "iterate_best_response"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    refused = [
        (["nash", "--scenario", "1", "--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
        (
            ["nash", "--epsilon", "1e-308", "--e1-min", "1", "--e1-max", "1"],
            "epsilon=1e-308 is too small: 2 * sum(E) / epsilon is not finite",
        ),
        (["worst", "md", "--scenario", "1", "--alpha", "inf", "--T", "100"], "alpha must be positive and finite, got inf"),
        (["worst", "dpp", "--scenario", "1", "--V", "inf", "--T", "100"], "V must be positive and finite, got inf"),
        (["worst", "dpp", "--scenario", "3", "--alpha=-inf"], "alpha must be positive and finite, got -inf"),
        (["worst", "a1", "--scenario", "3", "--alpha", "-2"], "alpha must be positive and finite, got -2.0"),
        (["worst", "a1", "--scenario", "3", "--T", "-3"], "T must be positive and finite, got -3"),
    ]
    for argv, message in refused:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n"


# the settings each solver reads; every other setting flag is refused
SETTINGS_READ = {
    "nash": ("epsilon",),
    "worst-explicit": (),
    "worst-dpp": ("V", "alpha", "T"),
    "worst-md": ("alpha", "T"),
    "worst-a1": ("alpha", "T"),
}
ALL_SETTINGS = ("epsilon", "V", "alpha", "T")
# a preset each solver accepts
SCENARIO_OF = {"nash": 3, "worst-explicit": 1, "worst-dpp": 3, "worst-md": 2, "worst-a1": 3}


def exit_code(*argv):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    return exited.value.code


def foreign_configs(solver):
    """A config of every type but the solver's own, and one that is no
    config at all."""
    return [t() for t in (NashConfig, DppConfig, MdConfig) if t is not SOLVER_CONFIGS[solver]] + [{"T": 1}]


@pytest.mark.parametrize("solver", sorted(SETTINGS_READ))
def test_each_command_offers_only_the_settings_its_solver_reads(capsys, solver):
    command = solver.split("-")
    assert exit_code(*command, "--help") == 0
    help_text = capsys.readouterr().out
    config_type = SOLVER_CONFIGS[solver]
    defaults = {field.name: field.default for field in fields(config_type)} if config_type else {}
    assert tuple(defaults) == SETTINGS_READ[solver]
    # the scenario defaults to the lowest preset the solver solves
    scenario = 3 if solver == "worst-a1" else 1
    assert f"--scenario SCENARIO  preset scenario 1, 2, or 3 (default {scenario})\n" in help_text
    # each of the config's fields is a flag with that field's default
    for name, default in defaults.items():
        line = rf"--{name} {name.upper()}\s+{SETTING_HELP[name]} \(default {re.escape(str(default))}\)\n"
        assert re.search(line, help_text), name
    for name in ALL_SETTINGS:
        assert (f"--{name} " in help_text) == (name in defaults)
        if name in defaults:
            continue
        assert exit_code(*command, f"--{name}", "1") == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    for config in foreign_configs(solver):
        with pytest.raises(ValueError, match=f"^{solver} does not read a {type(config).__name__}$"):
            ScenarioSpec(SCENARIO_OF[solver], solver, [1.0], config)
    # a worst flag must follow the method
    assert exit_code("worst", "--scenario", "1", "explicit") == 2


def test_a_foreign_config_is_refused_before_any_solver_runs(monkeypatch):
    for name in ("run_dpp", "run_md", "solve_a1", "iterate_best_response", "explicit_solution"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    for solver in SOLVER_CONFIGS:
        for config in foreign_configs(solver):
            with pytest.raises(ValueError, match=f"^{solver} does not read a {type(config).__name__}$"):
                run_scenario(ScenarioSpec(SCENARIO_OF[solver], solver, [1.0], config))


def test_samples_below_one_are_refused_before_any_solver_runs(capsys, monkeypatch):
    for solver in SETTINGS_READ:
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            ScenarioSpec(SCENARIO_OF[solver], solver, [1.0], n_samples=0)

    def not_called(*args, **kwargs):
        raise AssertionError("a solver ran before the spec was checked")

    for name in ("run_dpp", "run_md", "solve_a1", "iterate_best_response", "explicit_solution"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    for solver in SETTINGS_READ:
        for samples in ("0", "-5"):
            code, out, err = run_cli(
                capsys, *solver.split("-"), "--scenario", str(SCENARIO_OF[solver]), "--samples", samples
            )
            assert (code, out) == (2, "")
            assert "n_samples must be >= 1" in err


def not_called(*args, **kwargs):
    raise AssertionError("a solver or loader ran before its input was checked")


def test_grid_bounds_and_step_must_be_finite(capsys, monkeypatch):
    monkeypatch.setattr("congames.experiments.explicit_solution", not_called)
    for flag, value in (("--e1-min", "nan"), ("--e1-max", "inf"), ("--e1-step", "nan"), ("--e1-min", "-inf")):
        code, out, err = run_cli(capsys, "worst", "explicit", "--scenario", "1", f"{flag}={value}")
        assert (code, out) == (2, ""), flag
        assert err == f"error: {flag} must be positive and finite, got {float(value)!r}\n"
    # a step this small makes the point count overflow a float: inf points
    code, out, err = run_cli(capsys, "worst", "explicit", "--scenario", "1", "--e1-step", "1e-320")
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep run with grid points=inf, n=1 needs inf MiB up front")


def test_a_swept_mean_without_a_finite_rate_is_refused_before_any_solver_runs(capsys, monkeypatch):
    # resource 1's law is Exponential(1 / e1), and 1 / e1 of a subnormal e1 is inf
    for name in ("run_dpp", "run_md", "solve_a1", "iterate_best_response", "explicit_solution"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    with pytest.raises(ValueError, match=r"^rate must be positive and finite, got inf$"):
        ScenarioSpec(3, "worst-a1", [1.0, 1e-320])
    code, out, err = run_cli(capsys, "worst", "a1", "--e1-min", "1e-320", "--e1-max", "1e-320")
    assert (code, out, err) == (2, "", "error: rate must be positive and finite, got inf\n")


def test_oversized_grid_is_refused_before_it_is_built(capsys, monkeypatch):
    monkeypatch.setattr("congames.experiments.explicit_solution", not_called)
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 8 * 1000)
    code, out, err = run_cli(
        capsys, "worst", "explicit", "--scenario", "1", "--e1-min", "0.5", "--e1-max", "1500", "--e1-step", "0.5"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep run with grid points=3000, n=1 needs 0 MiB up front")


def test_oversized_repetitions_are_refused_before_any_solver_runs(capsys, monkeypatch):
    for name in ("run_dpp", "run_md", "solve_a1", "iterate_best_response", "explicit_solution"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    # 2 points x 166 reps x n = 3 float64 results fit 8000 bytes; 167 reps do
    # not (two samples keep the max term's 3 vectors within the budget too)
    monkeypatch.setattr(congames.game, "UPFRONT_BUDGET_BYTES", 8 * 1000)
    ScenarioSpec(2, "worst-md", [1.0, 2.0], n_samples=2, repetitions=166)
    need = "sweep run with points x reps=334, n=3 needs 0 MiB up front"
    with pytest.raises(ValueError, match=need):
        ScenarioSpec(2, "worst-md", [1.0, 2.0], n_samples=2, repetitions=167)
    for solver in ("md", "dpp"):
        grid = ("--e1-min", "1", "--e1-max", "2", "--e1-step", "1", "--samples", "2")
        code, out, err = run_cli(capsys, "worst", solver, "--scenario", "2", *grid, "--reps", "167")
        assert (code, out) == (2, ""), solver
        assert err.startswith(f"error: {need}"), solver


def test_bool_counts_are_refused():
    # True and False are Python integers, but not counts
    with pytest.raises(ValueError, match=r"^repetitions must be an integer, got True$"):
        ScenarioSpec(3, "worst-a1", [1.0], repetitions=True)
    with pytest.raises(ValueError, match=r"^n_samples must be an integer, got np\.True_$"):
        estimate_stats(Mixture([[1.0, 0.5, 0.5]], private=[0]), exp_game([1.0] * 3, (1, 1, 1, 0)), "A", n_samples=np.True_)


def test_bool_settings_are_refused():
    # True compares as 1, but is not a setting
    with pytest.raises(ValueError, match=r"^alpha must be positive and finite, got True$"):
        MdConfig(alpha=True)
    with pytest.raises(ValueError, match=r"^T must be positive and finite, got True$"):
        DppConfig(T=True)
    with pytest.raises(ValueError, match=r"^epsilon must be positive and finite, got np\.True_$"):
        NashConfig(epsilon=np.True_)


def test_bool_seed_is_refused():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got False$"):
        ScenarioSpec(3, "worst-a1", [1.0], seed=False)
    # nor is a bool a generator's seed
    for make in (as_generator, lambda rng: stream_generators(rng, (0,))):
        with pytest.raises(TypeError, match=r"^cannot interpret True as a random generator$"):
            make(True)


def test_negative_seed_is_refused_before_any_solver_runs(tmp_path, capsys, monkeypatch):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        ScenarioSpec(3, "nash", [1.0], seed=-1)
    for name in ("run_dpp", "run_md", "solve_a1", "iterate_best_response", "explicit_solution"):
        monkeypatch.setattr(f"congames.experiments.{name}", not_called)
    for name in ("load_game", "load_strategy", "evaluate_report"):
        monkeypatch.setattr(f"congames.cli.{name}", not_called)
    unread = str(tmp_path / "unread.txt")
    for argv in (
        ["nash", "--scenario", "3"],
        ["worst", "explicit", "--scenario", "1"],
        ["worst", "md", "--scenario", "2"],
        ["evaluate", "--game", unread, "--strategy", unread],
    ):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out) == (2, ""), argv
        assert err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SweepTable(("e1", "value"), np.zeros((2, 3))), "rows must be 2-D with one column per header entry"),
        (lambda: SweepTable(("e1",), np.zeros(2)), "rows must be 2-D with one column per header entry"),
        (
            lambda: evaluate_report(Simplex([1.0]), exp_game([1.0], (0, 0, 1, 0)), "vs-strategy"),
            "vs-strategy mode needs an opponent strategy",
        ),
        (lambda: evaluate_report(Simplex([1.0]), exp_game([1.0], (0, 0, 1, 0)), "bogus"), "unknown mode 'bogus'"),
    ],
)
def test_experiments_refusals(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
