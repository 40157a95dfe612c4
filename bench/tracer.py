"""Per-layer tracing of frogsim from outside the package.

The tracer wraps public functions of each frogsim module (and the two
ParticleField methods and Stream.u64 on their classes) and rebinds every
name that refers to a wrapped function in every loaded ``frogsim`` module,
because the package binds names with ``from ... import``: wrapping only
``frogsim.rng.derive_key`` would miss the copy that ``frogsim.frogs`` holds.

Two kinds of wrapper:

* hot calls (``derive_key``, ``Stream.u64``, ``count_at``, ``trajectory``,
  ``walk_positions``) aggregate a call count and busy time only;
* layer-boundary calls record a span (name, start, end, parent index).

A span's self time is its duration minus the time covered by its child
spans and by the outermost hot calls made directly inside it. Spans stay in
memory until ``write_spans`` is called at the end of the job.
"""

from __future__ import annotations

import json
import sys
import time

# (metric prefix, module, attribute) for layer-boundary spans
SPANS = (
    ("cli.run", "frogsim.cli", "run"),
    ("cli.sweep_worker", "frogsim.cli", "_sweep_worker"),
    ("graphs.build_graph", "frogsim.graphs", "build_graph"),
    ("graphs.ball", "frogsim.graphs", "ball"),
    ("frogs.explore_cluster", "frogsim.frogs", "explore_cluster"),
    ("frogs.stay_closure", "frogsim.frogs", "_stay_closure"),
    ("frogs.exit_conditional_jumps", "frogsim.frogs", "exit_conditional_jumps"),
    ("estimators.phi_report", "frogsim.estimators", "phi_report"),
    ("estimators.phi_hat", "frogsim.estimators", "phi_hat"),
    ("estimators.phi_tilde_hat", "frogsim.estimators", "phi_tilde_hat"),
    ("estimators.sharpness_constants", "frogsim.estimators",
     "sharpness_constants"),
    ("experiments.renormalization_experiment", "frogsim.experiments",
     "renormalization_experiment"),
    ("experiments.block_open", "frogsim.experiments", "block_open"),
    ("experiments.good_vertex_decay", "frogsim.experiments",
     "good_vertex_decay"),
)

# exact-series entry points, aggregated as one layer "walks.series"
SERIES = ("exit_probability_exact", "hitting_probability_exact",
          "heat_kernel_row", "truncated_green")

# counters that are pure functions of (workload, seed, size): they repeat
# exactly on any host
DETERMINISTIC = (
    "rng.derive_key.calls", "rng.draws",
    "walks.walk_positions.calls", "walks.jumps", "walks.absorbed",
    "walks.series.calls", "walks.series.terms", "walks.series.domain_vertices",
    "frogs.explore_cluster.calls", "frogs.particles_revealed",
    "frogs.vertices_activated", "frogs.stop.radius_reached",
    "frogs.stop.exhausted", "frogs.stop.particle_budget",
    "frogs.stop.vertex_budget", "frogs.count_at.calls",
    "frogs.trajectory.calls", "frogs.trajectory.sampled",
    "frogs.stay_closure.calls", "experiments.block_open.calls",
    "graphs.ball.calls", "cli.sweep_worker.calls",
)


class _Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``install()``; read with ``summary()``; undo with
    ``uninstall()``."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._open: list[int] = []       # indices of open spans
        self._cover: list[float] = []    # child coverage of each open span
        self._hot_depth = 0
        self._series: list[int] | None = None   # [terms, domain] of the call
        self._patched: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def _add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _hot(self, name, fn, after=None):
        stat = self._stat(name)
        clock = time.perf_counter
        cover = self._cover

        def wrapper(*args, **kwargs):
            stat.calls += 1
            outer = self._hot_depth == 0
            self._hot_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._hot_depth -= 1
                stat.busy += dt
                if outer and cover:
                    cover[-1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _span(self, name, fn, after=None):
        stat = self._stat(name)
        clock = time.perf_counter
        spans, opened, cover = self.spans, self._open, self._cover

        def wrapper(*args, **kwargs):
            parent = opened[-1] if opened else -1
            idx = len(spans)
            spans.append(None)
            opened.append(idx)
            cover.append(0.0)
            hot_depth, self._hot_depth = self._hot_depth, 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._hot_depth = hot_depth
                opened.pop()
                covered = cover.pop()
                spans[idx] = (name, t0, t1, parent)
                stat.calls += 1
                stat.busy += t1 - t0
                stat.self_time += (t1 - t0) - covered
                if cover:
                    cover[-1] += t1 - t0
            if after is not None:
                after(result)
            return result

        return wrapper

    def _series_span(self, fn):
        inner = self._span("walks.series", fn)

        def wrapper(*args, **kwargs):
            if self._series is not None:      # nested series call
                return fn(*args, **kwargs)
            self._series = slot = [0, 0]
            try:
                result = inner(*args, **kwargs)
            finally:
                self._series = None
            domain = getattr(result, "domain", None)
            if domain is not None and not slot[1]:
                slot[1] = len(domain)
            self._add("walks.series.terms", slot[0])
            self._add("walks.series.domain_vertices", slot[1])
            return result

        return wrapper

    # hooks on the private series helpers: they only fill the open slot

    def _poisson_weights_hook(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._series is not None and not self._series[0]:
                self._series[0] = int(result[0].size)
            return result
        return wrapper

    def _local_kernel_hook(self, fn):
        def wrapper(g, center, k_terms, *args, **kwargs):
            result = fn(g, center, k_terms, *args, **kwargs)
            if self._series is not None:
                self._series[0] = int(k_terms)
                self._series[1] = len(result[0])
            return result
        return wrapper

    # -- installation --------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every frogsim module attribute bound to `original` at
        `replacement`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "frogsim"
                                      or modname.startswith("frogsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def _patch_method(self, cls, attr, replacement) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> "Tracer":
        import importlib

        for mod in ("frogsim", "frogsim.cli", "frogsim.estimators",
                    "frogsim.experiments"):
            importlib.import_module(mod)
        mods = {name: sys.modules[name] for name in
                ("frogsim.rng", "frogsim.walks", "frogsim.frogs",
                 "frogsim.graphs", "frogsim.estimators",
                 "frogsim.experiments", "frogsim.cli")}
        rng, walks, frogs = (mods["frogsim.rng"], mods["frogsim.walks"],
                             mods["frogsim.frogs"])

        # hot calls
        self._rebind(rng.derive_key,
                     self._hot("rng.derive_key", rng.derive_key))
        self._patch_method(rng.Stream, "u64",
                           self._hot("rng.u64", rng.Stream.u64))
        self._patch_method(frogs.ParticleField, "count_at",
                           self._hot("frogs.count_at",
                                     frogs.ParticleField.count_at))
        walk_stat = self._stat("walks.walk_positions")

        def after_walk(result):
            jumps, absorbed = result
            self._add("walks.jumps", len(jumps))
            self._add("walks.absorbed", int(bool(absorbed)))

        self._rebind(walks.walk_positions,
                     self._hot("walks.walk_positions", walks.walk_positions,
                               after_walk))
        trajectory = self._hot("frogs.trajectory",
                               frogs.ParticleField.trajectory)

        def counted_trajectory(*args, **kwargs):
            before = walk_stat.calls
            result = trajectory(*args, **kwargs)
            self._add("frogs.trajectory.sampled", walk_stat.calls - before)
            return result

        self._patch_method(frogs.ParticleField, "trajectory",
                           counted_trajectory)

        # layer-boundary spans
        def after_cluster(cl):
            self._add("frogs.particles_revealed", cl.total_particles)
            self._add("frogs.vertices_activated", len(cl.activated))
            self._add(f"frogs.stop.{cl.stop_reason}")

        for name, modname, attr in SPANS:
            original = getattr(mods[modname], attr)
            after = after_cluster if name == "frogs.explore_cluster" else None
            self._rebind(original, self._span(name, original, after))
        for attr in SERIES:
            original = getattr(walks, attr)
            self._rebind(original, self._series_span(original))
        for attr, hook in (("_poisson_weights", self._poisson_weights_hook),
                           ("_local_kernel", self._local_kernel_hook)):
            original = getattr(walks, attr, None)
            if original is not None:
                self._rebind(original, hook(original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics by name (counts, busy and self seconds)."""
        out: dict = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.busy_s"] = stat.busy
            out[f"{name}.self_s"] = stat.self_time
        out.update(self.counts)
        out["rng.draws"] = out.pop("rng.u64.calls", 0)
        calls = out.get("frogs.trajectory.calls", 0)
        sampled = out.get("frogs.trajectory.sampled", 0)
        out["frogs.trajectory.reuse_ratio"] = (
            (calls - sampled) / calls if calls else 0.0)
        # time in the CLI itself: cli.run minus the spans under it (sweep
        # workers, graph builds, the experiment)
        out["cli.overhead_s"] = out.get("cli.run.self_s", 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
