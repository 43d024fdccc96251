"""Call timing and the traced run's spans and per-layer metrics.

Every call a workload makes into the package goes through ``Calls``, which
adds its wall time to the iteration's total.  While tracing is on, each
call also records a span, and hooks patch a few public names where the
package looks them up, so the calls made inside the package record child
spans too.  Spans stay in memory until the run ends.

A layer's self time is the time of its spans minus their children's.  The
layers are the package's modules: ``lattice``, ``kernel``, ``solver``,
``filtering`` and ``oracle``; ``cli`` and ``market`` only appear in set-up.
Random-stream generation (``oracle._path_uniforms``/``_path_normals``) is
private, so its share stays inside ``oracle`` self time until the package
records spans of its own.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# (span name, module, attribute): public names wrapped where the package
# looks them up.  A name missing from its module makes every metric that
# needs it "missing", never zero.
HOOKS = (
    ("solver.step_back", "attnmv.solver", "step_back"),
    ("kernel.build_stencil_batch", "attnmv.solver", "build_stencil_batch"),
    ("lattice.build_grid", "attnmv.solver", "build_grid"),
    ("filtering.filter_step", "attnmv.oracle", "filter_step"),
)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end figure it should move."""

    name: str
    unit: str
    better: str
    moves: str
    needs: tuple[str, ...] = ()      # hook span names it is derived from


_STEP = ("solver.step_back", "kernel.build_stencil_batch")
# sweep-fine is the solver's workload but runs by hand (inputs.BENCHMARKED)
_SOLVER = "wall_s on sweep-fine; its small share of mc-verify"
_FILTER = ("filtering.filter_step",)
_ALL = tuple(h[0] for h in HOOKS)

PER_LAYER = (
    LayerMetric("lattice.build_s", "s", "lower",
                "setup_s and wall_s, every workload (small)",
                ("lattice.build_grid",)),
    LayerMetric("lattice.nodes", "count", "lower", "none: problem size"),
    LayerMetric("kernel.batch_builds", "count", "lower",
                "wall_s on epochs-daily", ("kernel.build_stencil_batch",)),
    LayerMetric("kernel.batch_s", "s", "lower", "wall_s on epochs-daily",
                ("kernel.build_stencil_batch",)),
    LayerMetric("kernel.consistency_s", "s", "lower", "wall_s on epochs-daily"),
    LayerMetric("kernel.batch_bytes_computed", "bytes", "lower",
                "peak_rss_mb on epochs-daily", ("kernel.build_stencil_batch",)),
    LayerMetric("solver.solve_s", "s", "lower", _SOLVER),
    LayerMetric("solver.step_back_calls", "count", "lower", _SOLVER,
                ("solver.step_back",)),
    LayerMetric("solver.step_back_self_s", "s", "lower", _SOLVER, _STEP),
    LayerMetric("solver.slice_us", "us", "lower", _SOLVER, _STEP),
    LayerMetric("solver.ncs_per_s", "1/s", "higher", _SOLVER, _STEP),
    LayerMetric("solver.contraction_bytes_computed", "bytes", "lower",
                _SOLVER, ("solver.step_back",)),
    LayerMetric("solver.ops_per_byte_computed", "ops/byte", "higher",
                _SOLVER, ("solver.step_back",)),
    LayerMetric("solver.checks_s", "s", "lower", "wall_s on epochs-daily"),
    LayerMetric("solver.self_s", "s", "lower", _SOLVER, _ALL),
    LayerMetric("filtering.filter_step_calls", "count", "lower",
                "wall_s on mc-verify", _FILTER),
    LayerMetric("filtering.filter_step_s", "s", "lower", "wall_s on mc-verify",
                _FILTER),
    LayerMetric("oracle.chain_s", "s", "lower",
                "wall_s on mc-verify; no change on epochs-daily and sweep-fine"),
    LayerMetric("oracle.sde_s", "s", "lower", "wall_s on mc-verify"),
    LayerMetric("oracle.sde_policy_s", "s", "lower", "wall_s on mc-verify"),
    LayerMetric("oracle.sde_self_s", "s", "lower", "wall_s on mc-verify",
                _FILTER),
    LayerMetric("oracle.marginal_s", "s", "lower", "wall_s on mc-verify"),
    LayerMetric("oracle.marginal_self_s", "s", "lower", "wall_s on mc-verify",
                _FILTER),
    LayerMetric("oracle.path_steps", "count", "lower", "wall_s on mc-verify"),
    LayerMetric("oracle.path_steps_per_s", "1/s", "higher",
                "wall_s on mc-verify"),
    LayerMetric("oracle.self_s", "s", "lower", "wall_s on mc-verify", _ALL),
    LayerMetric("cli.load_config_s", "s", "lower", "setup_s"),
    LayerMetric("trace.wall_s", "s", "lower", "none: traced wall_s"),
    LayerMetric("trace.self_sum_s", "s", "lower",
                "none: sum of the layers' self times, equals trace.wall_s"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "none: traced minus untraced wall_s"),
)

# Pairings where a change to one layer must show no change.
NO_CHANGE = (
    "an oracle or filtering change: wall_s on epochs-daily and sweep-fine",
    "a solver change: wall_s on mc-verify (solver share ~5% there)",
    "a kernel or cache change: wall_s on mc-verify and sweep-fine "
    "(one stencil batch per solve)",
)


def _contraction(args, kwargs, out) -> dict:
    """Work of one ``step_back``, computed from array shapes.

    ops: candidate contraction (2 n_c n_out n), argmin (n_c n) and the ``g``
    propagation (2 n_out n).  Bytes: the probability table, the two
    neighbour gathers, the candidate table written and read, the outputs.
    """
    fields = args[1]
    n, n_out = fields.lat.n_nodes, fields.lat.n_out
    n_c = fields.grid.n_controls
    ops = 2 * n_c * n_out * n + n_c * n + 2 * n_out * n
    nbytes = 8 * (n_c * n_out * n + 2 * n * n_out + 2 * n_c * n + 2 * n) + 4 * n
    return {"solver.contraction_ops": ops,
            "solver.contraction_bytes_computed": nbytes,
            "solver.nodes_controls": n * n_c}


def _batch_bytes(args, kwargs, out) -> dict:
    return {"kernel.batch_bytes_computed": out.probs.nbytes}


COUNTERS = {
    "solver.step_back": _contraction,
    "kernel.build_stencil_batch": _batch_bytes,
}


class Calls:
    """Times a workload's calls; records spans while tracing is on."""

    def __init__(self):
        self.elapsed = 0.0
        self.tracing = False
        self.spans: list[list] = []       # [name, start, end, parent]
        self.traced: list[tuple] = []     # (spans, counts) per traced iteration
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def __call__(self, name, fn, *args, **kwargs):
        if not self.tracing:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.elapsed += perf_counter() - t0
            return out
        return self._span(name, fn, args, kwargs)

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if parent is None:
            self.elapsed += span[2] - span[1]
        self.counts[name] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.update(counter(args, kwargs, out))
        return out

    def wrap(self, name, fn):
        """``fn`` itself, or while tracing a function recording spans."""
        if not self.tracing:
            return fn

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def count(self, name, value) -> None:
        if self.tracing:
            self.counts[name] += value

    def start_iteration(self, tracing: bool) -> None:
        self.elapsed = 0.0
        self.tracing = tracing
        self.spans = []
        self.counts = Counter()
        if tracing:
            self.traced.append((self.spans, self.counts))


class Hooks:
    """Patches the HOOKS names with span-recording wrappers, and restores."""

    def __init__(self, calls: Calls):
        import importlib
        self.calls = calls
        self.targets = []
        self.missing = []
        for span, module, attr in HOOKS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(span)
            else:
                self.targets.append((span, mod, attr, fn))

    def __enter__(self):
        for span, mod, attr, fn in self.targets:
            setattr(mod, attr, self.calls.wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for _, mod, attr, fn in self.targets:
            setattr(mod, attr, fn)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def iteration_metrics(spans, counts, n_nodes: int) -> dict:
    """Per-layer values of one traced iteration (times in seconds)."""
    own = self_times(spans)
    total: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for s, o in zip(spans, own):
        total[s[0]] += s[2] - s[1]
        self_by_name[s[0]] += o
        self_by_layer[s[0].split(".", 1)[0]] += o
    wall = sum(s[2] - s[1] for s in spans if s[3] is None)
    step_self = self_by_name["solver.step_back"]
    steps = counts["solver.step_back"]
    oracle_s = (total["oracle.simulate_chain"] + total["oracle.simulate_sde"]
                + total["oracle.marginal_check"])
    ops = counts["solver.contraction_ops"]
    nbytes = counts["solver.contraction_bytes_computed"]
    return {
        "lattice.build_s": total["lattice.build_grid"],
        "lattice.nodes": n_nodes,
        "kernel.batch_builds": counts["kernel.build_stencil_batch"],
        "kernel.batch_s": total["kernel.build_stencil_batch"],
        "kernel.consistency_s": total["kernel.consistency_sweep"],
        "kernel.batch_bytes_computed": counts["kernel.batch_bytes_computed"],
        "solver.solve_s": total["solver.solve"],
        "solver.step_back_calls": steps,
        "solver.step_back_self_s": step_self,
        "solver.slice_us": 1e6 * step_self / steps if steps else 0.0,
        "solver.ncs_per_s": (counts["solver.nodes_controls"] / step_self
                             if step_self > 0 else 0.0),
        "solver.contraction_bytes_computed": nbytes,
        "solver.ops_per_byte_computed": ops / nbytes if nbytes else 0.0,
        "solver.checks_s": (total["solver.spike_margins"]
                            + total["solver.g_residuals"]),
        "solver.self_s": self_by_layer["solver"],
        "filtering.filter_step_calls": counts["filtering.filter_step"],
        "filtering.filter_step_s": total["filtering.filter_step"],
        "oracle.chain_s": total["oracle.simulate_chain"],
        "oracle.sde_s": total["oracle.simulate_sde"],
        "oracle.sde_policy_s": total["oracle.sde_policy"],
        "oracle.sde_self_s": self_by_name["oracle.simulate_sde"],
        "oracle.marginal_s": total["oracle.marginal_check"],
        "oracle.marginal_self_s": self_by_name["oracle.marginal_check"],
        "oracle.path_steps": counts["oracle.path_steps"],
        "oracle.path_steps_per_s": (counts["oracle.path_steps"] / oracle_s
                                    if oracle_s > 0 else 0.0),
        "oracle.self_s": self_by_layer["oracle"],
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(self_by_layer.values()),
    }


def layer_report(traced: list[dict], untraced_walls: list[float],
                 load_config_s: float, missing_hooks: list[str]):
    """(metrics, missing): medians over traced iterations, by metric name.

    A metric derived from a missing hook is left out of ``metrics`` and
    listed in ``missing``.
    """
    if not traced or not untraced_walls:
        return {}, [m.name for m in PER_LAYER]
    metrics, missing = {}, []
    for m in PER_LAYER:
        if any(h in missing_hooks for h in m.needs):
            missing.append(m.name)
            continue
        if m.name == "cli.load_config_s":
            value = load_config_s
        elif m.name == "trace.overhead_s":
            value = (statistics.median(t["trace.wall_s"] for t in traced)
                     - statistics.median(untraced_walls))
        else:
            value = statistics.median(t[m.name] for t in traced)
        value = int(value) if m.unit in ("count", "bytes") else float(value)
        metrics[m.name] = {"value": value, "unit": m.unit}
    return metrics, missing
