"""Per-layer spans recorded from outside the program.

The tracer wraps functions at the boundary of each ``ottokiln`` module (the
layers) and patches every place that holds a reference to them, so calls made
through ``from .bath import evolve_isochoric`` style imports are seen too.
Spans (hook, parent span, start, end) are kept in memory in flat lists and
reduced to per-layer self time at the end: a span's self time is its duration
minus the durations of its direct child spans, so the self times of all layers
add up to the duration of the root spans (``cli.main``).

A hooked function that no longer exists is listed in ``missing`` and its span
and derived counters read zero; a hook whose arguments or result changed shape
is listed in ``broken`` and its counters stop.  The run goes on either way.
"""

import functools
import inspect
import sys
import time

import numpy as np

# (layer, module, function).  The layer is the module a function belongs to in
# the layer split; pump_populations lives in cycle but prepares a Fock state.
HOOKS = (
    ("cli", "ottokiln.cli", "main"),
    ("config", "ottokiln.config", "parse_config"),
    ("config", "ottokiln.config", "load_config"),
    ("fock", "ottokiln.fock", "make_distribution"),
    ("fock", "ottokiln.cycle", "pump_populations"),
    ("bath", "ottokiln.bath", "evolve_isochoric"),
    ("bath", "ottokiln.bath", "stationary_distribution"),
    ("bath", "ottokiln.bath", "rate_derivative"),
    ("cycle", "ottokiln.cycle", "run_engine"),
    ("cycle", "ottokiln.cycle", "run_otto_cycle"),
    ("cycle", "ottokiln.cycle", "run_pump_cycle"),
    ("oracle", "ottokiln.oracle", "analytic_cycle_thermal_balance"),
    ("oracle", "ottokiln.oracle", "propagate_matrix_exponential"),
    ("oracle", "ottokiln.oracle", "rate_generator"),
    ("analysis", "ottokiln.analysis", "sweep_efficiency_power"),
    ("output", "ottokiln.output", "write_timeseries_csv"),
    ("output", "ottokiln.output", "write_wide_timeseries_csv"),
    ("output", "ottokiln.output", "write_cycles_csv"),
    ("output", "ottokiln.output", "write_sweep_csv"),
    ("output", "ottokiln.output", "write_dat"),
    ("output", "ottokiln.output", "write_svg_chart"),
    ("verification", "ottokiln.verification", "run_all_checks"),
)
# Every public function of the kernel module is a hook: they run once per
# stroke, never per step, and a renamed kernel entry point stays attributed.
KERNEL_MODULE = "ottokiln._kernels"

LAYERS = ("cli", "config", "fock", "kernels", "bath", "cycle", "oracle",
          "analysis", "output", "verification")

# output.<name>_s: inclusive time of these writers
OUTPUT_GROUPS = {
    "timeseries": ("write_timeseries_csv",),
    "wide": ("write_wide_timeseries_csv",),
    "cycles": ("write_cycles_csv",),
    "sweep": ("write_sweep_csv",),
    "chart": ("write_dat", "write_svg_chart"),
}


def _hook_table():
    hooks = list(HOOKS)
    kernels = sys.modules.get(KERNEL_MODULE)
    if kernels is not None:
        for name, obj in vars(kernels).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == KERNEL_MODULE):
                hooks.append(("kernels", KERNEL_MODULE, name))
    return hooks


def _trajectory_steps(traj):
    """Integrator steps of a Trajectory: final time over the step size.

    Samples are stride steps apart except the last gap, which may be shorter;
    with only two samples the stroke was one gap of at most stride steps.
    """
    times = traj.times
    stride = traj.sample_stride
    if len(times) > 2:
        step = (times[1] - times[0]) / stride
        return int(round(times[-1] / step))
    return stride


class Tracer:
    def __init__(self):
        self.hooks = []        # (layer, module, function) per hook id
        self.missing = []      # hooks not found
        self.broken = set()    # hooks whose arguments or result no longer fit their counters
        self._patches = []     # (namespace, attribute, original, wrapper)
        self.func, self.parent, self.t0, self.t1 = [], [], [], []
        self._stack = []
        self.counters = dict.fromkeys(
            ("bath.steps", "bath.isochoric_calls", "bath.repeats", "cycle.cycles",
             "cycle.trace_rows", "analysis.points", "analysis.converged",
             "verification.checks", "verification.failed", "output.rows",
             "output.bytes"), 0)
        self._stroke_keys = set()
        self._written = []

    # -- installation --------------------------------------------------
    def prepare(self):
        """Build one wrapper per hook; call after ottokiln.cli is imported."""
        for layer, module_name, name in _hook_table():
            module = sys.modules.get(module_name)
            original = getattr(module, name, None) if module else None
            if not callable(original):
                self.missing.append(f"{module_name}.{name}")
                continue
            hook_id = len(self.hooks)
            self.hooks.append((layer, module_name, name))
            wrapper = self._wrap(hook_id, original, self._observer(name, original))
            for namespace in self._namespaces():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, attr, original, wrapper))

    @staticmethod
    def _namespaces():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "ottokiln" or n.startswith("ottokiln."))]

    def install(self):
        self._stroke_keys.clear()  # repeats are counted within one batch
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    # -- spans ---------------------------------------------------------
    def _wrap(self, hook_id, fn, observe):
        func, parent, t0, t1, stack = self.func, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(t0)
            func.append(hook_id)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(index)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, name, original):
        """Counters read from a hook's arguments or result, or None."""
        counters = self.counters
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            return None

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def guarded(body):
            def observe(args, kwargs, result):
                try:
                    body(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    # the hook's interface changed: its counters stop, the run goes on
                    self.broken.add(f"{original.__module__}.{name}")
            return observe

        if name == "evolve_isochoric":
            def body(args, kwargs, result):
                counters["bath.steps"] += _trajectory_steps(result)
                a = arguments(args, kwargs)
                params = a["params"]
                key = (params.gamma, params.boltz_factor, a["duration"], a["dt"],
                       a["sample_stride"], len(a["dist"].probs))
                counters["bath.isochoric_calls"] += 1
                counters["bath.repeats"] += key in self._stroke_keys
                self._stroke_keys.add(key)
            return guarded(body)
        if name == "run_engine":
            def body(args, kwargs, result):
                counters["cycle.cycles"] += len(result.records)
                counters["cycle.trace_rows"] += len(result.times)
            return guarded(body)
        if name == "sweep_efficiency_power":
            def body(args, kwargs, result):
                counters["analysis.points"] += len(result)
                counters["analysis.converged"] += sum(bool(p.converged) for p in result)
            return guarded(body)
        if name == "run_all_checks":
            def body(args, kwargs, result):
                counters["verification.checks"] += len(result)
                counters["verification.failed"] += sum(not r.passed for r in result)
            return guarded(body)
        if name.startswith("write_"):
            def body(args, kwargs, result):
                self._written.append(str(arguments(args, kwargs)["path"]))
            return guarded(body)
        return None

    def account_written(self):
        """Rows and bytes of the files written since the last call.

        Called between commands, outside the timed region, so reading the
        files back costs the traced run nothing.
        """
        for path in self._written:
            with open(path, "rb") as handle:
                data = handle.read()
            self.counters["output.bytes"] += len(data)
            if path.endswith((".csv", ".dat")):
                self.counters["output.rows"] += data.count(b"\n") - 1  # one header line
        self._written.clear()

    # -- reduction -----------------------------------------------------
    def save(self, path):
        np.savez(path, func=np.asarray(self.func, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 t0=np.asarray(self.t0), t1=np.asarray(self.t1),
                 hooks=np.asarray([".".join(h[1:]) for h in self.hooks] or [""]))

    def reduce(self, batches, traced_wall_s, untraced_wall_s):
        """Per-layer metrics per batch, averaged over the traced batches."""
        n = len(self.t0)
        func = np.asarray(self.func, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.t1) - np.asarray(self.t0)
        layer_index = np.asarray([LAYERS.index(h[0]) for h in self.hooks] or [0])
        span_layer = layer_index[func] if n else np.zeros(0, dtype=np.int64)
        has_parent = parent >= 0
        children = np.zeros(n)
        np.add.at(children, parent[has_parent], duration[has_parent])
        self_time = np.bincount(span_layer, weights=duration - children, minlength=len(LAYERS))
        # a call enters a layer: the caller's span belongs to another layer
        entering = ~has_parent
        entering[has_parent] = span_layer[parent[has_parent]] != span_layer[has_parent]
        calls = np.bincount(span_layer[entering], minlength=len(LAYERS))

        def inclusive(*names):
            ids = [i for i, h in enumerate(self.hooks) if h[2] in names]
            mask = np.isin(func, ids)
            return float(duration[mask].sum()), int(mask.sum())

        per = 1.0 / batches
        c = {k: v * per for k, v in self.counters.items()}
        m = {}
        for i, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = (float(self_time[i]) * per, "s")
        for layer in ("config", "fock", "kernels", "bath"):
            m[f"{layer}.calls"] = (int(calls[LAYERS.index(layer)]) * per, "count")
        kernel_bath_s = m["kernels.self_s"][0] + m["bath.self_s"][0]
        m["bath.steps"] = (c["bath.steps"], "count")
        m["bath.ns_per_step"] = (kernel_bath_s / c["bath.steps"] * 1e9 if c["bath.steps"] else 0.0, "ns")
        m["bath.repeat_share"] = (c["bath.repeats"] / c["bath.isochoric_calls"]
                                  if c["bath.isochoric_calls"] else 0.0, "1")
        m["cycle.cycles"] = (c["cycle.cycles"], "count")
        m["cycle.trace_rows"] = (c["cycle.trace_rows"], "count")
        balance_s, balance_calls = inclusive("analytic_cycle_thermal_balance")
        expm_s, expm_calls = inclusive("propagate_matrix_exponential")
        m["oracle.balance_s"] = (balance_s * per, "s")
        m["oracle.balance_calls"] = (balance_calls * per, "count")
        m["oracle.expm_s"] = (expm_s * per, "s")
        m["oracle.expm_calls"] = (expm_calls * per, "count")
        m["analysis.points"] = (c["analysis.points"], "count")
        m["analysis.converged_share"] = (c["analysis.converged"] / c["analysis.points"]
                                         if c["analysis.points"] else 0.0, "1")
        for group, names in OUTPUT_GROUPS.items():
            m[f"output.{group}_s"] = (inclusive(*names)[0] * per, "s")
        m["output.rows"] = (c["output.rows"], "count")
        m["output.bytes"] = (c["output.bytes"], "B")
        output_s = m["output.self_s"][0]
        m["output.mb_per_s"] = (c["output.bytes"] / output_s / 1e6 if output_s else 0.0, "MB/s")
        m["verification.checks"] = (c["verification.checks"], "count")
        m["verification.failed"] = (c["verification.failed"], "count")
        m["trace.wall_s"] = (traced_wall_s, "s")
        m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return m
