"""Per-layer tracing of congames from outside the package.

``Recorder.install`` wraps public functions of the congames modules and
rebinds every module-level name that refers to them (``experiments.run_dpp``,
``nash.estimate_stats``, ``montecarlo.sample_world``, ``dpp.sample_omega``,
...), so calls made through any import site are recorded.  The package's
source is not modified.

Each wrapped call records a span: its name, start, end and the span that was
open when it began, kept on a contextvar stack.  A span's self time is its
duration minus the time covered by its child spans.  Spans stay in memory;
``Recorder.layer_metrics`` turns them into the per-layer numbers once the
sweep has ended.  ``tail_mean`` of the reward distributions runs several
times per A1 round, so it is counted without a span to keep the overhead low.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

_open_span = contextvars.ContextVar("perfbench_open_span", default=None)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "child_names")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.child_names = set()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _game_key(game):
    return (game.partition, game.distributions, game.z.tobytes())


def _rng_key(rng):
    """Identifies the draws an ``rng`` argument will produce."""
    bit_generator = getattr(rng, "bit_generator", None)
    return repr(bit_generator.state) if bit_generator is not None else repr(rng)


class Recorder:
    """Spans and counters of one traced sweep."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._worlds_seen: set = set()

    def spanned(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span named ``name``.

        ``before(arguments)`` runs ahead of the call and its return value is
        passed on as ``ctx``; ``after(span, arguments, result, ctx)`` runs
        once the call returned.  ``arguments`` maps parameter names to the
        values of the call, defaults included.
        """
        spans = self.spans
        signature = inspect.signature(fn)

        def arguments_of(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = arguments_of(args, kwargs) if before or after else None
            ctx = before(arguments) if before else None
            parent = _open_span.get()
            span = Span(name, parent)
            token = _open_span.set(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                _open_span.reset(token)
                if parent is not None:
                    parent.child_s += span.duration
                    parent.child_names.add(name)
                spans.append(span)
            if after:
                after(span, arguments, result, ctx)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks reading arguments and returned values ----------------------

    def _after_dpp(self, span, arguments, result, ctx):
        config = arguments["config"]
        _, diagnostics = result
        self.counts["dpp.rounds"] += config.T
        # computed, not measured: run() allocates a T x n float64 history
        self.counts["dpp.history_bytes"] += config.T * arguments["game"].n * 8
        self.counts["dpp.violations"] += int(diagnostics.violations)

    def _rounds(self, key):
        def after(span, arguments, result, ctx):
            self.counts[key] += arguments["config"].T

        return after

    def _after_estimate_stats(self, span, arguments, result, ctx):
        if "game.sample_world" not in span.child_names:
            self.counts["estimate_stats.exact"] += 1

    def _before_sample(self, arguments):
        size = arguments["size"]
        rows = 1 if size is None else int(size)
        return (_game_key(arguments["game"]), _rng_key(arguments["rng"]), rows)

    def _after_sample(self, layer):
        def after(span, arguments, result, ctx):
            rows = ctx[2]
            self.counts[f"{layer}.rows"] += rows
            if layer == "game.sample_world":
                if ctx in self._worlds_seen:
                    self.counts["game.sample_world.reused_rows"] += rows
                self._worlds_seen.add(ctx)

        return after

    def _after_batch_actions(self, span, arguments, result, ctx):
        kind = type(arguments["strategy"]).__name__.lower()
        self.counts[f"strategies.batch_actions.{kind}.ns"] += round(span.duration * 1e9)

    def _after_nash(self, span, arguments, result, ctx):
        self.counts["nash.turns"] += result.iterations
        self.counts["nash.converged"] += int(result.converged)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer and rebind each congames name that refers to it."""
        import congames  # noqa: F401  (imports every submodule)
        import congames.cli  # noqa: F401
        from congames import distributions

        layers = [
            # (module, function, span name, before, after)
            ("dpp", "run", "dpp.run", None, self._after_dpp),
            ("md", "run_md", "md.run_md", None, self._rounds("md.rounds")),
            ("quantile", "solve_a1", "quantile.solve_a1", None, self._rounds("quantile.rounds")),
            ("montecarlo", "estimate_stats", "montecarlo.estimate_stats", None, self._after_estimate_stats),
            ("game", "sample_world", "game.sample_world", self._before_sample, self._after_sample("game.sample_world")),
            ("game", "sample_omega", "game.sample_omega", self._before_sample, self._after_sample("game.sample_omega")),
            ("strategies", "batch_actions", "strategies.batch_actions", None, self._after_batch_actions),
            ("worstcase", "omega_max_mean", "worstcase.omega_max_mean", None, None),
            ("nash", "iterate_best_response", "nash.iterate_best_response", None, self._after_nash),
            ("experiments", "run_scenario", "experiments.run_scenario", None, None),
            # the helpers run_scenario calls once per sweep point
            ("experiments", "_worst_point", "experiments.point", None, None),
            ("experiments", "_nash_row", "experiments.point", None, None),
        ]
        for module, attr, name, before, after in layers:
            original = getattr(sys.modules[f"congames.{module}"], attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            _rebind(original, self.spanned(name, original, before, after))

        for cls in vars(distributions).values():
            if inspect.isclass(cls) and cls.__module__ == distributions.__name__ and "tail_mean" in vars(cls):
                cls.tail_mean = self.counted("distributions.tail_mean.calls", cls.tail_mean)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded sweep, named as in BENCHMARK.json."""
        calls = Counter()
        total = Counter()
        self_time = Counter()
        points = []
        for span in self.spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            self_time[span.name] += span.self_s
            if span.name == "experiments.point":
                points.append(span.duration)
        c = self.counts

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        return {
            "dpp.run.s": total["dpp.run"],
            "dpp.run.self_s": self_time["dpp.run"],
            "dpp.rounds": c["dpp.rounds"],
            "dpp.round_us": per(self_time["dpp.run"], c["dpp.rounds"], 1e6),
            "dpp.history_mb": c["dpp.history_bytes"] / 2**20,
            "dpp.violations": c["dpp.violations"],
            "md.run_md.s": total["md.run_md"],
            "md.rounds": c["md.rounds"],
            "md.round_us": per(self_time["md.run_md"], c["md.rounds"], 1e6),
            "quantile.solve_a1.s": total["quantile.solve_a1"],
            "quantile.rounds": c["quantile.rounds"],
            "quantile.round_us": per(self_time["quantile.solve_a1"], c["quantile.rounds"], 1e6),
            "distributions.tail_mean.calls": c["distributions.tail_mean.calls"],
            "montecarlo.estimate_stats.calls": calls["montecarlo.estimate_stats"],
            "montecarlo.estimate_stats.s": total["montecarlo.estimate_stats"],
            "montecarlo.estimate_stats.self_s": self_time["montecarlo.estimate_stats"],
            "montecarlo.estimate_stats.exact_share": per(c["estimate_stats.exact"], calls["montecarlo.estimate_stats"]),
            "montecarlo.world_reuse": per(c["game.sample_world.reused_rows"], c["game.sample_world.rows"]),
            "game.sample_world.calls": calls["game.sample_world"],
            "game.sample_world.rows": c["game.sample_world.rows"],
            "game.sample_world.s": total["game.sample_world"],
            "game.sample_omega.calls": calls["game.sample_omega"],
            "game.sample_omega.rows": c["game.sample_omega.rows"],
            "game.sample_omega.s": total["game.sample_omega"],
            "strategies.batch_actions.score.s": c["strategies.batch_actions.score.ns"] / 1e9,
            "strategies.batch_actions.mixture.s": c["strategies.batch_actions.mixture.ns"] / 1e9,
            "worstcase.omega_max_mean.calls": calls["worstcase.omega_max_mean"],
            "worstcase.omega_max_mean.s": total["worstcase.omega_max_mean"],
            "nash.iterate_best_response.s": total["nash.iterate_best_response"],
            "nash.turns": c["nash.turns"],
            "nash.turn_ms": per(total["nash.iterate_best_response"], c["nash.turns"], 1e3),
            "nash.converged_share": per(c["nash.converged"], calls["nash.iterate_best_response"]),
            "experiments.run_scenario.self_s": self_time["experiments.run_scenario"],
            "experiments.point_s": statistics.median(points) if points else 0.0,
        }


def _rebind(original, wrapper):
    """Point every congames module-level name bound to ``original`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if name == "congames" or name.startswith("congames."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
