"""One benchmark sweep: a fresh process running the congames CLI once.

    python3 perfbench/sweep.py [--trace] -- <congames CLI arguments>

Reports one JSON line on stdout: the moment (``time.monotonic``) the CLI was
ready to run, the times of ``setup_probe``, the sweep's wall time with and without the probe's share
(see ``SpeedProbe``), its CPU time, the CLI's exit code and CSV output, the
process's peak RSS, and the probe's mean chunk time.  ``--trace`` installs the per-layer recorder of
``spans.py`` after setup and adds its metrics.  The parent (``run.py``) puts
``congames`` on ``PYTHONPATH``.
"""

import mmap
import signal
import sys
import time

PROBE_PERIOD_S = 0.05
FAULT_BYTES = 5 << 19  # 2.5 MiB of fresh pages per probe chunk
PROBES_AROUND = 5  # probe chunks timed just before and just after the sweep


class SpeedProbe:
    """Times a fixed chunk of work, repeatedly, while the sweep runs.

    On a shared host the speed one process sees swings by up to 2x within
    seconds.  Every ``PROBE_PERIOD_S`` of wall time a timer signal runs one
    chunk, so the chunk times sample the speed the sweep itself saw;
    ``run.py`` divides the sweep time by their mean.  Time spent in the
    handler is kept in ``spent`` and taken out of the sweep's wall time.

    A chunk is about 40% array work shaped like the Monte Carlo layers, 40% a
    scalar loop shaped like the solver rounds and 20% first touches of fresh
    pages (a quarter of the nash sweep's time is page faults of its large
    temporaries).  On this kind of host the three slow down by different
    amounts; the mix tracked both the nash and the DPP sweeps within about
    4% per sweep.  The chunk draws no random numbers and touches no
    congames state.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._draws = np.random.default_rng(12345).exponential(size=(60_000, 3))
        self._weights = np.array([1.0, 0.5, 0.8])
        self.samples: list[float] = []
        self.spent = 0.0

    def chunk(self):
        np = self._np
        draws = self._draws
        start = time.perf_counter()
        picks = np.argmax(draws * self._weights, axis=1)
        np.bincount(picks, minlength=3)
        np.mean(draws[:, 0] * (picks == 0))
        np.log1p(draws[:30_000])
        queues = np.zeros(3)
        gamma = np.zeros(3)
        upper = np.ones(3)
        for row in draws[:250]:
            top = int(np.argmax(gamma * row))
            gamma = np.clip(gamma - (queues - row) / 50.0, 0.0, upper)
            queues = np.maximum(queues + gamma - (top == 0), 0.0)
        with mmap.mmap(-1, FAULT_BYTES) as fresh:
            for offset in range(0, FAULT_BYTES, mmap.PAGESIZE):
                fresh[offset] = 1
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        self.chunk()
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_probe() -> float:
    """Wall time of fixed interpreter work: dict and list building, fresh pages.

    Timed before the imports and again after the CLI is ready; ``run.py``
    divides the set-up time by the mean, as it does the sweep time by the
    ``SpeedProbe`` chunk.  It needs nothing beyond the standard library.
    """
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        table[str(i)] = (i, [i] * 3)
    "".join(table)
    with mmap.mmap(-1, 1 << 20) as fresh:
        for offset in range(0, 1 << 20, mmap.PAGESIZE):
            fresh[offset] = 1
    return time.perf_counter() - start


def main(argv):
    setup_probe_before = setup_probe()
    split = argv.index("--")
    flags, cli_argv = argv[:split], argv[split + 1:]
    if flags == ["--import-only"]:
        import congames.cli  # noqa: F401

        return 0

    # setup as a user of the CLI pays it: imports and argument parsing
    from congames import cli

    cli.build_parser().parse_args(cli_argv)
    ready = time.monotonic()
    setup_probe_after = setup_probe()

    import contextlib
    import io
    import json
    import resource

    recorder = None
    if flags == ["--trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
        for layer in recorder.missing:
            print(f"perfbench: layer {layer} not found; its metrics read 0", file=sys.stderr)

    probe = SpeedProbe()
    for _ in range(PROBES_AROUND):
        probe.chunk()
    out = io.StringIO()
    # traced sweeps run without the timer, so that no span contains probe time
    periodic = contextlib.nullcontext() if recorder else probe
    cpu_start = time.process_time()
    start = time.perf_counter()
    with periodic, contextlib.redirect_stdout(out):
        code = cli.main(cli_argv)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    for _ in range(PROBES_AROUND):
        probe.chunk()

    report = {
        "ready": ready,
        "setup_probe_before_s": setup_probe_before,
        "setup_probe_s": (setup_probe_before + setup_probe_after) / 2,
        "sweep_s": wall_s - probe.spent,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_s": sum(probe.samples) / len(probe.samples),
        "probes": len(probe.samples),
        "exit_code": code,
        "csv": out.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # Linux: KiB
        "congames_file": cli.__file__,
    }
    if recorder is not None:
        report["layers"] = recorder.layer_metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
