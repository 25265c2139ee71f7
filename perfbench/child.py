"""Workload process: repeats one command batch through ``ottokiln.cli.main``.

Started fresh for every run by run.py, with the plan (argv lists) in a JSON
file.  Each command is timed around ``cli.main`` alone; listing, hashing and
deleting its outputs happens after the clock stops.  Small outputs that the
parent checks are kept once per distinct content (the program is
deterministic, so a batch repeated with the same inputs keeps one copy).

With ``--trace 1`` batches alternate untraced and traced, so the run yields
both the per-layer split and the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

KEEP = ("cycles.csv", "sweep.csv", "stdout.txt")


def _manifest(out_dir, keep_dir):
    """{file: [bytes, lines, kept-copy name or None]} for one command's outputs."""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            kept = None
            if path.name in KEEP:
                kept = hashlib.sha256(data).hexdigest()[:24] + path.suffix
                if not (keep_dir / kept).exists():
                    shutil.copyfile(path, keep_dir / kept)
            files[path.name] = [len(data), data.count(b"\n"), kept]
        shutil.rmtree(out_dir)
    return files


def _machine_facts():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "otto_kiln_env": sorted(k for k in os.environ if k.startswith("OTTO_KILN")),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    plan = json.loads(args.plan.read_text())
    work_dir = args.plan.parent
    keep_dir = work_dir / "keep"
    keep_dir.mkdir(exist_ok=True)

    from ottokiln import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.prepare()

    commands = []
    batch_walls = {False: [], True: []}
    measured = 0.0
    batch = 0
    while measured < args.seconds or (tracer and batch < 2):
        traced = tracer is not None and batch % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        for index, argv in enumerate(plan["batch"]):
            out_dir = work_dir / f"out-{batch}-{index}"
            argv = [a.replace("{out}", str(out_dir)) for a in argv]
            sink = io.StringIO()
            error = None
            rc = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                error = f"SystemExit({exc.code})"
            except Exception as exc:  # any failure of the program is a failed command
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            wall += elapsed
            if traced:
                tracer.account_written()
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "stdout.txt").write_text(sink.getvalue())
            commands.append({
                "batch": batch, "index": index, "traced": traced, "seconds": elapsed,
                "rc": rc, "error": error, "files": _manifest(out_dir, keep_dir),
            })
        if traced:
            tracer.uninstall()
        batch_walls[traced].append(wall)
        measured += wall
        batch += 1

    result = {
        "facts": _machine_facts(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "batch_walls": batch_walls[False],
    }
    if tracer is not None:
        traced_walls = batch_walls[True]
        tracer.save(work_dir / "spans.npz")
        metrics = tracer.reduce(len(traced_walls), statistics.fmean(traced_walls),
                                statistics.fmean(batch_walls[False]))
        result["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        result["missing_hooks"] = tracer.missing
        result["broken_hooks"] = sorted(tracer.broken)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
