"""Span tracing of entroprod from outside the program.

``Tracer.install`` replaces the public functions named in ``TRACED`` by
wrappers in every ``entroprod`` module that holds them, under whatever name
the module imported them (``collisional`` calls ``balance`` and ``run`` by
its own module names), and puts counting wrappers on the ``numpy.linalg``
decompositions.  Each call records one span (name, parent span, start,
end) in flat arrays kept in memory; ``save`` writes them once the run is
over, and ``metrics`` derives self times, call counts and exact counts
from them.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  Attributes of the form "Class.method"
# patch the method on the class.
TRACED = (
    ("entroprod.core", "von_neumann_entropy", "core.von_neumann_entropy"),
    ("entroprod.core", "relative_entropy", "core.relative_entropy"),
    ("entroprod.core", "mutual_information", "core.mutual_information"),
    ("entroprod.core", "renyi_divergence", "core.renyi_divergence"),
    ("entroprod.core", "DensityOperator.__post_init__", "core.density_operator"),
    ("entroprod.episodes", "balance", "episodes.balance"),
    ("entroprod.episodes", "thermal_balance", "episodes.thermal_balance"),
    ("entroprod.episodes", "multibath_balance", "episodes.multibath_balance"),
    ("entroprod.trajectories", "backward_ensemble", "trajectories.backward_ensemble"),
    ("entroprod.trajectories", "measurement_trajectories",
     "trajectories.measurement_trajectories"),
    ("entroprod.collisional", "limit_cycle", "collisional.limit_cycle"),
    ("entroprod.collisional", "run", "collisional.run"),
    ("entroprod.collisional", "four_stroke", "collisional.four_stroke"),
    ("entroprod.lindblad", "build", "lindblad.build"),
    ("entroprod.lindblad", "steady_state", "lindblad.steady_state"),
    ("entroprod.lindblad", "gap", "lindblad.gap"),
    ("entroprod.lindblad", "integrate", "lindblad.integrate"),
    ("entroprod.classical", "glauber_ising_competing", "classical.glauber_ising_competing"),
    ("entroprod.classical", "stationary_distribution", "classical.stationary_distribution"),
    ("entroprod.classical", "multibath_sigma", "classical.multibath_sigma"),
    ("entroprod.resource", "thermo_majorizes", "resource.thermo_majorizes"),
    ("entroprod.resource", "classical_renyi_divergence",
     "resource.classical_renyi_divergence"),
    ("entroprod.gaussian", "two_mode_ness", "gaussian.two_mode_ness"),
    ("entroprod.gaussian", "squeezed_sigma", "gaussian.squeezed_sigma"),
    ("entroprod.cli", "run_config", "cli.run_config"),
    ("entroprod.verify", "run_suite", "verify.run_suite"),
)
LINALG = ("eig", "eigvals", "eigh", "eigvalsh")
SAMPLED = "trajectories.measurement_trajectories"   # its samples are counted

# Spans whose result size is kept: metric name and how to read it (the
# largest over the run, computed from the array shapes).
BYTES = {
    "lindblad.build": ("lindblad.build.bytes", lambda r: r.nbytes),
    "classical.glauber_ising_competing": ("classical.rate_matrix.bytes", lambda r: r.w.nbytes),
}


def _calls_and_self(*names):
    return [(f"{n}.{k}", u) for n in names for k, u in (("calls", "count"), ("self_s", "s"))]


# Spans reported with their call count and summed self time.
CALLS_AND_SELF = (
    "lindblad.build", "lindblad.steady_state", "lindblad.gap", "lindblad.integrate",
    "classical.glauber_ising_competing", "classical.stationary_distribution",
    "classical.multibath_sigma",
    "collisional.limit_cycle", "collisional.run", "collisional.four_stroke",
    "trajectories.backward_ensemble",
    "episodes.balance", "episodes.thermal_balance", "episodes.multibath_balance",
    "core.von_neumann_entropy", "core.relative_entropy", "core.mutual_information",
    "core.renyi_divergence",
    "resource.thermo_majorizes", "resource.classical_renyi_divergence",
    "gaussian.two_mode_ness", "gaussian.squeezed_sigma",
)

# Every per-layer metric, in report order, with its unit.
PER_LAYER = tuple(
    _calls_and_self(*CALLS_AND_SELF)
    + [("lindblad.build.bytes", "B"), ("classical.rate_matrix.bytes", "B"),
       ("collisional.limit_cycle.passes", "count"),
       ("trajectories.measurement_trajectories.self_s", "s"),
       ("trajectories.measurement_trajectories.samples_per_s", "1/s"),
       ("episodes.thermal_balance.eig_per_call", "count"),
       ("core.density_operator.calls", "count")]
    + [(f"linalg.{f}.calls", "count") for f in LINALG]
    + [("linalg.self_s", "s"), ("cli.run_config.self_s", "s"),
       ("verify.run_suite.self_s", "s"), ("import.entroprod_s", "s"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.samples = 0
        self.max_bytes: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        size = BYTES.get(name)
        signature = inspect.signature(fn) if name == SAMPLED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None:
                key, measure = size
                self.max_bytes[key] = max(self.max_bytes.get(key, 0), int(measure(result)))
            elif signature is not None and result.sampled:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                self.samples += int(call.arguments["n_samples"])
            return result

        return wrapper

    def install(self):
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "entroprod":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for fn in LINALG:
            orig = getattr(np.linalg, fn)
            setattr(np.linalg, fn, self._wrap(f"linalg.{fn}", orig))
            self._undo.append((np.linalg, fn, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def metrics(self, import_s: float, overhead_s: float) -> dict:
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}
        linalg_ids = [ids[f"linalg.{f}"] for f in LINALG]
        is_linalg = np.isin(name, linalg_ids)
        # Decompositions made by the program: those inside a program span.
        program_linalg = is_linalg & inner

        def of(n):
            return name == ids[n]

        out = {}
        for n in CALLS_AND_SELF:
            out[f"{n}.calls"] = int(of(n).sum())
            out[f"{n}.self_s"] = float(self_time[of(n)].sum())
        for f in LINALG:
            out[f"linalg.{f}.calls"] = int((of(f"linalg.{f}") & inner).sum())
        out["linalg.self_s"] = float(self_time[program_linalg].sum())
        out["core.density_operator.calls"] = int(of("core.density_operator").sum())
        out["cli.run_config.self_s"] = float(self_time[of("cli.run_config")].sum())
        out["verify.run_suite.self_s"] = float(self_time[of("verify.run_suite")].sum())

        lc = np.flatnonzero(of("collisional.limit_cycle"))
        out["collisional.limit_cycle.passes"] = int(
            (of("collisional.run") & np.isin(parent, lc)).sum())

        # Decompositions under each thermal_balance call, however deep.
        tb = of("episodes.thermal_balance")
        under = np.zeros(len(name), dtype=np.int64)
        under[program_linalg] = 1
        for i in range(len(name) - 1, -1, -1):
            if parent[i] >= 0:
                under[parent[i]] += under[i]
        calls = int(tb.sum())
        out["episodes.thermal_balance.eig_per_call"] = (
            float(under[tb].sum()) / calls if calls else 0.0)

        mt = of(SAMPLED)
        out["trajectories.measurement_trajectories.self_s"] = float(self_time[mt].sum())
        busy = float(dur[mt].sum())
        out["trajectories.measurement_trajectories.samples_per_s"] = (
            self.samples / busy if busy > 0 else 0.0)
        for key, _ in BYTES.values():
            out[key] = self.max_bytes.get(key, 0)
        out["import.entroprod_s"] = import_s
        out["trace.overhead_s"] = overhead_s
        return {n: {"value": out[n], "unit": unit} for n, unit in PER_LAYER}
