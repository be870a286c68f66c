"""The benchmark's tracer (``perfbench/spans.py``) wraps congames functions
by module and name, and its hooks read some of their parameters by name.  A
renamed function or parameter would only print one stderr line there, and
its per-layer metrics would read 0, so these checks keep the two in step."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the parameters each hook of the tracer reads, by wrapped function
HOOK_PARAMETERS = {
    "dpp.run": ["config"],
    "quantile.solve_a1": ["config"],
    "md.run_md": ["config"],
    "game.sample_world": ["game", "rng", "size"],
    "game.sample_omega": ["game", "rng", "size"],
    "strategies.batch_actions": ["strategy"],
}

# run in a fresh interpreter: install() rebinds congames names for good
PROBE = """
import importlib, inspect, json, sys
from spans import Recorder

recorder = Recorder()
recorder.install()
parameters = {}
for name in json.loads(sys.argv[1]):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"congames.{module}"), attr)
    parameters[name] = list(inspect.signature(fn).parameters)
print(json.dumps({"missing": recorder.missing, "parameters": parameters}))
"""


def test_tracer_finds_every_layer_and_hook_parameter():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(sorted(HOOK_PARAMETERS))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["missing"] == []
    for name, needed in HOOK_PARAMETERS.items():
        missing = set(needed) - set(found["parameters"][name])
        assert not missing, f"{name} lost {sorted(missing)}"


def test_the_tracer_counts_mirror_descent_rounds():
    # a sweep calls md.run_md once a run, so the traced smoke worst-md-s2
    # sweep reads its 8 runs of 500 rounds and their time
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    result = run.measure("worst-md-s2", 0, 0, trace=True, smoke=True)["result"]
    assert result["correct"]
    assert result["metrics"]["md.rounds"]["value"] == 8 * 500
    assert result["metrics"]["md.run_md.s"]["value"] > 0
