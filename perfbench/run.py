#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ottokiln command line.

Run from the repository root:

    python3 perfbench/run.py --workload engine --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): engine (simulate + pump with --svg --wide),
finite_sweep, balance_sweep (--svg) and verify.  Each run generates the
workload's configs from the seed, times the interpreter set-up in fresh
processes, then repeats the workload's command batch through
``ottokiln.cli.main`` in one fresh child process for the given seconds.
Outputs are checked against an independent reference after the clock stops.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced batches and reports the per-layer split (see tracer.py).  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A record with the machine facts and every sample goes to
.perfbench/<workload>-trace<0|1>/result.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from reference import (CheckFailed, check_balance_sweep, check_cycles,
                       check_finite_sweep, check_verify)

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
ORACLE_TOLERANCE = 1e-9
# End-to-end metrics in the result line.  The others are printed only:
# cmd_s_p50 equals wall_s on one-command batches, and cycles_per_s,
# points_per_s, fail_ratio and oracle_err are 0 or undefined on some workloads.
GATED = ("setup_s", "wall_s", "peak_rss_mb")

# set-up: a fresh interpreter imports the CLI and parses the workload's config
SETUP_CODE = "import sys, ottokiln.cli, ottokiln; ottokiln.load_config(sys.argv[1])"


def _child_env(root):
    """User defaults: no OTTO_KILN_* overrides, the package from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OTTO_KILN")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _argv(command, config_path):
    argv = [command.name]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    if command.name != "verify":
        argv += ["--out", "{out}"]
    return argv + command.flags


def _time_setup(env, config_path):
    """Set-up times of fresh interpreters, from spawn to exit.

    Waits with a blocking wait(): wait(timeout=...) polls in steps of up to
    50 ms, which would round every sample up to that grid.  A timer kills a
    child that hangs.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(config_path)],
                                env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return samples


def _file_guards(command, files):
    """The command wrote every file its flags ask for, at the requested size."""
    if command.name in ("simulate", "pump"):
        need = ["timeseries.csv", "cycles.csv", "timeseries_wide.csv",
                "u_t.dat", "u_t.svg", "efficiency_n.dat", "efficiency_n.svg"]
    elif command.name == "sweep":
        need = ["sweep.csv"]
    else:
        need = []
    missing = [name for name in need if name not in files]
    if missing:
        raise CheckFailed(f"missing outputs {missing}")
    if "timeseries_wide.csv" in files and \
            files["timeseries_wide.csv"][1] != files["timeseries.csv"][1]:
        raise CheckFailed("timeseries.csv and timeseries_wide.csv differ in row count")
    if "--svg" in command.flags and command.name == "sweep":
        t_hs = str(command.config["sweep_t_h"]).split(",")
        dats = [f for f in files if f.startswith("eta_power_th") and f.endswith(".dat")]
        svgs = [f for f in files if f.startswith("eta_power_th") and f.endswith(".svg")]
        if len(dats) != len(t_hs) or len(svgs) != len(t_hs):
            raise CheckFailed(f"{len(dats)} .dat and {len(svgs)} .svg charts for {len(t_hs)} t_h")
        steps = command.config["sweep_ratio_steps"]
        short = [f for f in dats if files[f][1] != steps + 1]
        if short:
            raise CheckFailed(f"{short[0]} does not hold {steps} points")


def _check(command, record, keep_dir, cache):
    """Worst deviation from the reference for one command; raises CheckFailed."""
    if record["error"] is not None:
        raise CheckFailed(record["error"])
    files = record["files"]
    if command.name == "verify":
        stdout = (keep_dir / files["stdout.txt"][2]).read_text()
        return check_verify(stdout, record["rc"], workloads.MIN_VERIFY_CHECKS)
    if record["rc"] != 0:
        raise CheckFailed(f"exit code {record['rc']}")
    _file_guards(command, files)
    kept = files["cycles.csv" if command.name != "sweep" else "sweep.csv"][2]
    key = (id(command), kept)
    if key not in cache:
        path = keep_dir / kept
        if command.name == "sweep" and command.config["sweep_mode"] == "balance":
            cache[key] = check_balance_sweep(path, command.config, command.points)
        elif command.name == "sweep":
            cache[key] = check_finite_sweep(path, command.config, command.points)
        else:
            kind = "otto" if command.name == "simulate" else "pump"
            cache[key] = check_cycles(path, kind, command.config)
    return cache[key]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ottokiln" / "cli.py").is_file():
        print(f"error: {root} holds no src/ottokiln package; run from the repository root",
              file=sys.stderr)
        return 2

    work_dir = root / ".perfbench" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    commands = workloads.build(args.workload, args.seed)
    batch = []
    for i, command in enumerate(commands):
        config_path = None
        if command.config is not None:
            config_path = work_dir / f"config-{i}.cfg"
            config_path.write_text(command.config_text())
        batch.append(_argv(command, config_path))
    (work_dir / "plan.json").write_text(json.dumps({"batch": batch}))

    env = _child_env(root)
    setup = []
    if not args.trace:
        setup_config = work_dir / "config-0.cfg"
        if not setup_config.exists():  # verify takes no config: parse the defaults
            setup_config.write_text("# default working point\n")
        setup = _time_setup(env, setup_config)

    result_path = work_dir / "child.json"
    child = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--plan", str(work_dir / "plan.json"),
         "--result", str(result_path), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    if child.returncode != 0:
        print(child.stderr[-2000:], file=sys.stderr)
        print(f"error: workload process exited {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    keep_dir = work_dir / "keep"
    cache = {}
    failures = []
    oracle_err = 0.0
    for record in result["commands"]:
        command = commands[record["index"]]
        try:
            err = _check(command, record, keep_dir, cache)
            oracle_err = max(oracle_err, err)
            if err > ORACLE_TOLERANCE:
                raise CheckFailed(f"deviates {err:.3g} from the reference")
        except CheckFailed as exc:
            failures.append(f"batch {record['batch']} {command.name}: {exc}")
    shutil.rmtree(keep_dir, ignore_errors=True)

    attempted = len(result["commands"])
    failed = len(failures)
    correct = failed == 0
    untraced = [r["seconds"] for r in result["commands"] if not r["traced"]]
    walls = result["batch_walls"]
    wall_s = statistics.median(walls)
    cycles = sum(c.cycles * max(1, c.points) for c in commands)
    points = sum(c.points for c in commands)

    report = {
        "setup_s": _metric(statistics.median(setup), "s") if setup else None,
        "wall_s": _metric(wall_s, "s"),
        "cmd_s_p50": _metric(statistics.median(untraced), "s"),
        "cycles_per_s": _metric(cycles / wall_s, "1/s") if cycles else None,
        "points_per_s": _metric(points / wall_s, "1/s") if points else None,
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "fail_ratio": _metric(failed / attempted, "1"),
        "oracle_err": _metric(oracle_err, "1"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(root), "facts": result["facts"],
        "setup_samples": setup, "batch_walls": walls, "command_seconds": untraced,
        "end_to_end": report, "per_layer": result.get("per_layer"),
        "missing_hooks": result.get("missing_hooks", []),
        "broken_hooks": result.get("broken_hooks", []), "failures": failures,
    }
    (work_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {attempted} commands in {len(walls)} untraced "
          f"batches, {failed} failed")
    print("facts: " + json.dumps({**result["facts"], "commit": record["commit"], "seed": args.seed}))
    for line in failures[:5]:
        print(f"FAILED {line}")
    for name, metric in report.items():
        if metric is None:
            shown = "not measured" if name == "setup_s" else "n/a"
        else:
            shown = f"{metric['value']:.6g} {metric['unit']}"
        note = {"setup_s": f" (median of {len(setup)})", "wall_s": f" (median of {len(walls)})",
                "cmd_s_p50": f" (median of {len(untraced)})"}.get(name, "")
        print(f"  {name:<14} {shown}{note}")
    if args.trace:
        metrics = result["per_layer"]
        if record["missing_hooks"]:
            print("hooks not found (their spans and counters read 0): "
                  + ", ".join(record["missing_hooks"]))
        if record["broken_hooks"]:
            print("hooks whose interface changed (their counters stopped): "
                  + ", ".join(record["broken_hooks"]))
        for name, metric in metrics.items():
            print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
        layers = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
        print(f"layer self times add up to {layers:.6g} s of trace.wall_s "
              f"{metrics['trace.wall_s']['value']:.6g} s")
    else:
        metrics = {name: report[name] for name in GATED}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
