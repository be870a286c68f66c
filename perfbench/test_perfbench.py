"""Tests of the benchmark itself, on the tiny smoke sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def metric_names(kind):
    return {m["name"] for m in run.BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in run.BENCHMARK["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS["workloads"])
    assert sorted(run.WORKLOADS["csv_sha256_seed0"]) == sorted(names)
    assert sorted(run.WORKLOADS["smoke_csv_sha256_seed0"]) == sorted(names)
    assert {"explicit", "gamefile", "evaluate", "rng"} <= set(run.WORKLOADS["unexercised"])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, kind):
    out = bench("--workload", "all", "--seed", "0", "--seconds", "0", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    *_, env_line, last = out.stdout.strip().splitlines()
    assert set(json.loads(env_line)["env"]) >= {"git_sha", "python", "numpy", "nproc", "peak_rss_mb"}
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * (2 if trace == "1" else 1)
    expected = {f"{w}.{name}" for w in run.WORKLOADS["workloads"] for name in metric_names(kind)}
    assert set(result["metrics"]) == expected


def test_single_workload_result_keys():
    out = bench("--workload", "worst-md-s2", "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_layers_count_the_work():
    dpp = run.measure("worst-dpp-s3", 0, 0, trace=True, smoke=True)["result"]["metrics"]
    assert dpp["dpp.rounds"]["value"] == 2000
    assert dpp["dpp.history_mb"]["value"] == 2000 * 3 * 8 / 2**20
    assert dpp["dpp.violations"]["value"] == 0
    assert dpp["game.sample_world.rows"]["value"] == 4000  # dpp.run's draws plus estimate_stats'
    assert dpp["montecarlo.world_reuse"]["value"] == 0.5  # estimate_stats redraws dpp.run's worlds
    assert dpp["dpp.run.self_s"]["value"] <= dpp["dpp.run.s"]["value"]
    nash = run.measure("nash-s3", 0, 0, trace=True, smoke=True)["result"]["metrics"]
    assert nash["nash.converged_share"]["value"] == 1.0
    assert nash["nash.turns"]["value"] > 0
    assert 0 < nash["montecarlo.estimate_stats.exact_share"]["value"] < 1
    assert nash["dpp.rounds"]["value"] == 0
    a1 = run.measure("worst-a1-s3", 0, 0, trace=True, smoke=True)["result"]["metrics"]
    assert a1["quantile.rounds"]["value"] == 8 * 500
    assert a1["distributions.tail_mean.calls"]["value"] >= 3 * 8 * 500


def test_hash_mismatch_is_a_failed_sweep(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS["smoke_csv_sha256_seed0"], "worst-md-s2", "0" * 64)
    result = run.measure("worst-md-s2", 0, 0, trace=False, smoke=True)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_csv_invariants(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS["workloads"], "toy", {"points": 1})
    good = "# note\ne1,value,stderr,p1,p2,value_min,value_max\n1,0.5,0.01,0.25,0.75,0.5,0.5\n"
    assert run.csv_problems("toy", good, smoke=False) == ([], 0.5)
    bad = good.replace("0.25,0.75", "0.5,0.75")
    assert run.csv_problems("toy", bad, smoke=False)[0] == ["e1=1.0: p* is not a probability vector"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "nash-s3", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_excludes_child_spans():
    recorder = Recorder()
    inner = recorder.spanned("inner", lambda: sum(range(200_000)))
    outer = recorder.spanned("outer", lambda: inner() + inner())
    outer()
    spans = {s.name: s for s in recorder.spans}
    children = [s for s in recorder.spans if s.name == "inner"]
    assert all(s.parent is spans["outer"] for s in children)
    assert spans["outer"].self_s == pytest.approx(
        spans["outer"].duration - sum(s.duration for s in children), abs=1e-12
    )
