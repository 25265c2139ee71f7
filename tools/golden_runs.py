"""Run a fixed set of ottokiln commands and engine runs, for byte-identity checks.

    python tools/golden_runs.py ROOT OUT

imports the package from ROOT/src and, inside OUT:

* runs each command of the set through ``ottokiln.cli.main``: its ``--out``
  directory is ``<name>/``, its config file ``<name>.cfg``, and its exit
  code, stdout and stderr go to ``<name>.txt``;
* hashes the ``EngineTrace`` of ``run_engine`` for each trace config, otto
  and pump, traced and ledger-only, one line each in ``traces.txt``.

Paths are relative to OUT, so two trees run into two directories write the
same bytes exactly when they behave the same: ``diff -r OUT_A OUT_B``.

A command whose exception escapes ``cli.main`` is recorded like any other
outcome, and the script then exits 1 and names each such run: no input may
end in a traceback.

The command set covers the configs of the CI Determinism step, the
perfbench workload commands of seeds 1 to 5 (read from this checkout's
``perfbench/workloads.py``, so both trees run the same commands), config
documents that take each conversion of the config parser, and runs that
are expected to fail.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = range(1, 6)

# (name, subcommand, flags, config text or None)
CI_RUNS = [
    ("ci-simulate", "simulate", ["--svg", "--wide"], None),
    ("ci-pump", "pump", ["--svg", "--wide"], None),
    ("ci-sweep", "sweep", ["--svg"], None),
    ("ci-finite", "sweep", ["--svg"], "sweep_mode = finite\n"),
    ("ci-cold", "simulate", ["--svg", "--wide"], "t_c = 0.02\n"),
    ("ci-retry", "sweep", ["--svg"],
     "gamma0 = 50\ntau = 20\nsweep_mode = finite\nsweep_t_h = 1.2\nsweep_ratio_steps = 2\n"),
    ("ci-verify", "verify", [], None),
]

FINITE_SMALL = "sweep_mode = finite\nsweep_t_h = 1.2\nsweep_ratio_steps = 3\nn_cycles = 3\n"
# ci-retry at sample_stride = 1 and one cycle
RETRY_EVERY_STEP = ("gamma0 = 50\ntau = 20\nsweep_mode = finite\nsweep_t_h = 1.2\nsweep_ratio_steps = 2\n"
                    "sample_stride = 1\nn_cycles = 1\n")

EDGE_RUNS = [
    ("edge-simulate-no-cycles", "simulate", ["--svg"], "n_cycles = 0\n"),
    ("edge-pump-no-cycles", "pump", ["--svg", "--wide"], "n_cycles = 0\n"),
    ("edge-simulate-one-cycle", "simulate", ["--svg"], "n_cycles = 1\n"),
    ("edge-pump-ground-target", "pump", ["--svg"], "pump_target = ground\nn_cycles = 3\n"),
    ("edge-pump-gaussian", "pump", ["--wide"],
     "pump_target = gaussian:2\ntau_bc = 0.3\ntau_cd = 0.7\ntau_db = 0.1\nn_cycles = 5\n"),
    ("edge-simulate-fast", "simulate", ["--wide"], "tau = 0.3\ninitial_state = equal_lowest:3\n"),
    ("edge-simulate-stride", "simulate", [], "sample_stride = 7\ncsv_levels = 3\nn_cycles = 4\n"),
    ("edge-simulate-cold-0.0013", "simulate", [], "t_c = 0.0013\nn_cycles = 4\n"),
    ("edge-simulate-cold-0.001", "simulate", ["--svg"], "t_c = 0.001\nn_cycles = 4\n"),
    ("edge-pump-cold-0.001", "pump", ["--svg"], "t_c = 0.001\nn_cycles = 4\n"),
    ("edge-finite-cold-0.001", "sweep", [], "t_c = 0.001\n" + FINITE_SMALL),
    ("edge-finite-no-cycles", "sweep", [], "sweep_mode = finite\nn_cycles = 0\n"),
    ("edge-finite-unconverged", "sweep", [], FINITE_SMALL.replace("n_cycles = 3", "n_cycles = 1")),
    ("edge-mode-upper-case", "simulate", [], "mode = OTTO\nn_cycles = 2\n"),
    ("edge-sweep-mode-upper-case", "sweep", [], FINITE_SMALL.replace("finite", "FINITE")),
    ("edge-relaxation-time", "pump", [], "relaxation_time = 2\nn_cycles = 3\n"),
    # ledger-only strokes whose one jump trips the drift guard rerun at the default stride, not at sample_stride
    ("edge-finite-retry-every-step", "sweep", [], RETRY_EVERY_STEP),
    # traced strokes recorded at their two ends only take the same rung where their one jump trips
    ("edge-simulate-ends-only-retry", "simulate", [],
     "gamma0 = 50\ntau = 20\nsample_stride = 1000000000\nn_cycles = 2\n"),
    # states whose omega/T overflows: the limit distribution, without numpy warnings
    ("edge-infinite-ratio-states", "pump", [],
     "initial_state = boltzmann:1e300:1e-300\npump_target = gaussian:2:1e300:1e-300\nn_cycles = 2\n"),
    ("fail-unknown-key", "simulate", [], "bogus = 1\n"),
    ("fail-float-text", "simulate", [], "tau = two\n"),
    ("fail-int-fraction", "simulate", [], "n_cycles = 2.5\n"),
    ("fail-list-entry", "sweep", [], "sweep_t_h = 1.2, x\n"),
    ("fail-infinite", "simulate", [], "t_h = inf\n"),
    ("fail-relaxation-time", "pump", [], "relaxation_time = -1\n"),
    ("fail-relaxation-time-and-gamma0", "simulate", [], "gamma0 = 0.5\nrelaxation_time = 1\n"),
    ("fail-frequency-order", "simulate", [], "omega_c = 2.0\n"),
    ("fail-temperature-order", "simulate", [], "t_c = 2.0\n"),
    ("fail-n-max", "pump", [], "n_max = 2000\n"),
    ("fail-state-spec", "simulate", [], "initial_state = level:x\n"),
    ("fail-duration", "pump", [], "tau_cd = 0\n"),
    ("fail-truncation", "simulate", [], "n_max = 10\n"),
    ("fail-unstable-dt", "simulate", [], "dt = 0.03\n"),
    ("fail-unstable-dt-finite", "sweep", [], "dt = 0.03\n" + FINITE_SMALL),
    ("fail-too-long-to-rerun", "simulate", [], "gamma0 = 1e5\n"),
    ("fail-too-long-to-rerun-finite", "sweep", [], "gamma0 = 1e5\n" + FINITE_SMALL),
    ("fail-nan-drift", "simulate", [], "gamma0 = 1e300\ndt = 1e-6\nn_cycles = 1\n"),
    ("fail-finite-retry-every-step-stiff", "sweep", [], RETRY_EVERY_STEP.replace("gamma0 = 50", "gamma0 = 2000")),
    # strokes of more than 2**53 steps
    ("fail-steps-uncountable", "simulate", [], "dt = 1e-300\ntau = 1e-9\n"),
    ("fail-steps-uncountable-pump", "pump", [], "gamma0 = 1e300\nt_c = 1e-300\nt_h = 1e300\ntau_db = 1e-300\n"),
    ("fail-steps-uncountable-rate", "pump", [], "gamma0 = 1e300\n"),
    # rates whose generator overflows at the given dt
    ("fail-generator-overflow", "simulate", [], "gamma0 = 1.5e306\ndt = 1\nn_cycles = 1\n"),
    ("fail-refrigerator", "sweep", [], "sweep_ratio_min = 0.1\nsweep_ratio_max = 0.2\n"),
    ("fail-duplicate-t-h", "sweep", [], "sweep_t_h = 1.2, 1.2000000000001\n"),
    ("fail-tiny-omega", "pump", [], "omega_c = 1e-300\nt_c = 1e300\nt_h = 1e301\n"),
    # the bath strokes are built before the first cycle, so a bad one fails without cycles too
    ("fail-tiny-omega-no-cycles", "pump", [], "omega_c = 1e-300\nt_c = 1e300\nt_h = 1e301\nn_cycles = 0\n"),
    ("fail-dt-above-tau-no-cycles", "simulate", [], "dt = 6\nn_cycles = 0\n"),
    # traced runs whose population array would pass the row budget
    ("fail-budget-stiff-pump", "pump", [], "gamma0 = 1e6\nsample_stride = 3\nn_cycles = 1\n"),
    ("fail-budget-wide-ladder", "simulate", [], "sample_stride = 1\nn_max = 200\ngamma0 = 50\n"),
    ("fail-budget-long-strokes", "simulate", [], "tau = 1e4\nsample_stride = 3\n"),
    ("fail-budget-long-cold-pump", "pump", [], "t_c = 0.001\ntau_cd = 1e3\nsample_stride = 1\n"),
    ("fail-missing-config", "simulate", ["--config", "missing.cfg"], None),
]

# run_engine inputs hashed in traces.txt, as EngineConfig overrides
TRACE_CONFIGS = [
    ("default", {}),
    ("fast", {"tau": 0.3}),
    ("balance", {"tau": 20.0, "n_cycles": 1, "initial_state": ("boltzmann", 1.0, 0.4)}),
    ("cold", {"t_c": 0.02, "tau": 20.0, "n_cycles": 4}),
    ("high-start", {"tau": 2.0, "n_cycles": 14, "initial_state": ("equal_lowest", 3)}),
    ("level-7", {"tau": 5.0, "tau_cd": 5.0, "n_cycles": 6, "initial_state": ("single_level", 7)}),
    ("gaussian-target", {"tau_bc": 0.3, "tau_cd": 0.7, "tau_db": 0.1, "n_cycles": 3,
                         "pump_target": ("gaussian", 2, 1.5, 1.2)}),
    ("stiff", {"gamma0": 50.0, "tau": 20.0, "tau_cd": 20.0, "n_cycles": 2}),
    ("unstable-dt", {"dt": 0.02, "tau": 1.0, "n_cycles": 3, "initial_state": ("equal_lowest", 3)}),
    ("no-cycles", {"n_cycles": 0}),
    ("truncated", {"n_max": 10}),
    ("wide-gap", {"omega_h": 2.5, "t_h": 2.0, "n_max": 80, "n_cycles": 5, "sample_stride": 3}),
]


def _workload_runs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", HERE / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs, seen = [], set()
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, command in enumerate(workloads.build(workload, seed)):
                text = None if command.config is None else command.config_text()
                key = (command.name, tuple(command.flags), text)
                if key in seen:  # verify ignores the seed
                    continue
                seen.add(key)
                runs.append((f"{workload}-s{seed}-{i}-{command.name}", command.name, command.flags, text))
    return runs


def _run_command(main, name, command, flags, config_text):
    """Run one command and record its outcome; True when an exception escaped main."""
    argv = [command]
    if config_text is not None:
        Path(f"{name}.cfg").write_text(config_text, encoding="utf-8")
        argv += ["--config", f"{name}.cfg"]
    if command != "verify":
        argv += ["--out", name]
    argv += flags
    stdout, stderr = io.StringIO(), io.StringIO()
    raised = False
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is behaviour too: record it
            code, raised = f"raised {type(exc).__name__}: {exc}", True
    Path(f"{name}.txt").write_text(
        f"argv {' '.join(argv)}\nexit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}",
        encoding="utf-8")
    return raised


def _state(ottokiln, recipe):
    kind, *args = recipe
    return getattr(ottokiln.InitialStateSpec, kind)(*args)


def _trace_digest(trace):
    digest = hashlib.sha256()

    def add(*parts):
        for part in parts:
            digest.update(part if isinstance(part, bytes) else repr(part).encode())
            digest.update(b"|")

    add(trace.mode, trace.n_max, trace.cycle_time.hex(), trace.max_step_drift.hex(), trace.repeat_from)
    for name in ("times", "omegas", "energies", "entropies", "probs"):
        array = getattr(trace, name)
        add(name, array.shape, str(array.dtype), array.tobytes())
    add(trace.stroke_labels, [x.hex() for x in trace.a_shift_tv])
    for r in trace.records:
        add(r.cycle_index, r.kind, r.omega_c.hex(), r.omega_h.hex(),
            *(getattr(r, f).hex() for f in ("q_in", "q_out", "w_out", "w_in", "w_eff", "q_pump", "q_pump_gross")),
            *(getattr(r, f).probs.tobytes() for f in ("dist_a", "dist_b", "dist_c", "dist_d", "dist_a_next")))
    return f"{digest.hexdigest()} records={len(trace.records)} rows={trace.times.shape[0]}"


def _trace_lines(ottokiln):
    lines = []
    for label, overrides in TRACE_CONFIGS:
        overrides = {key: _state(ottokiln, value) if isinstance(value, tuple) else value
                     for key, value in overrides.items()}
        for mode in ("otto", "pump"):
            config = replace(ottokiln.EngineConfig(), mode=mode, **overrides)
            for ledger_only in (False, True):
                try:
                    result = _trace_digest(ottokiln.run_engine(config, ledger_only=ledger_only))
                except ottokiln.OttoKilnError as exc:
                    result = f"error {type(exc).__name__}: {exc}"
                lines.append(f"{label} {mode} {'ledger_only' if ledger_only else 'traced'} {result}\n")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/golden_runs.py ROOT OUT", file=sys.stderr)
        return 2
    root, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import ottokiln
    from ottokiln.cli import main as cli_main

    if not Path(ottokiln.__file__).resolve().is_relative_to(root):
        print(f"ottokiln was imported from {ottokiln.__file__}, not from {root}/src", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    start = time.perf_counter()
    runs = CI_RUNS + EDGE_RUNS + _workload_runs()
    raised = [run[0] for run in runs if _run_command(cli_main, *run)]
    traces = _trace_lines(ottokiln)
    Path("traces.txt").write_text("".join(traces), encoding="utf-8")
    files = sum(len(names) for _, _, names in os.walk(out))
    print(f"{len(runs)} command runs and {len(traces)} engine traces, {files} files under {out} "
          f"in {time.perf_counter() - start:.1f} s")
    for name in raised:
        print(f"{name}: an exception escaped cli.main (see {name}.txt)", file=sys.stderr)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
