#!/usr/bin/env python3
"""Benchmark of the TIFS reproduction: build, run, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload fig13 [--seed 42] [--seconds 12] [--trace 0]
    python3 perfbench/run.py --workload all      # every workload, each in its own process
    python3 perfbench/run.py --smoke             # tiny budgets, every workload, traced too

`--trace 0` measures end to end (`perfbench` binary); `--trace 1` runs
the layer-traced pass (`perfbench-trace` binary). The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`, holding the metrics BENCHMARK.json names for that
mode. The full result, with the host, toolchain, source digest, budgets
and output digest, is saved under `.perfbench/results/`.

The binaries build with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Every `TIFS_*` variable is
cleared from the child environment and the ones the binaries read are
pinned; each pass writes through fresh stores under
`.perfbench/tmp/`, which it removes.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["fig13", "fleet_mix", "trace_analyses"]
# Processes started only to set up, before and after the measuring one,
# so that setup_s is a median over launches spread across the run.
SETUP_LAUNCHES_EACH_SIDE = 8
# Budgets of the smoke run: every workload and the traced run in seconds.
SMOKE_BUDGETS = ["--instructions", "20000", "--warmup", "20000",
                 "--analysis-instructions", "100000"]
# Every run ends within this many seconds once the binaries are built.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    pass


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build(binary):
    """Builds one binary of the benchmark package; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml"), "--bin", binary]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"building {binary} took over {BUILD_TIMEOUT_S} s")
    except FileNotFoundError:
        raise BenchError("cargo is not on PATH")
    if done.returncode != 0:
        raise BenchError(f"building {binary} failed")
    path = target_dir() / "release" / binary
    if not path.is_file():
        raise BenchError(f"{path} missing after the build")
    return path


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(workers):
    """The environment of every benchmark process: no TIFS_* knob except
    the pinned worker count and the env-selected stores switched off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TIFS_")}
    env.update(TIFS_THREADS=str(workers), TIFS_TRACE_STORE="off",
               TIFS_REPORT_STORE="off", TIFS_RESULTS="off")
    return env


def run_binary(path, args, workers, deadline):
    """Runs one benchmark process; returns (human lines, result object)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run([str(path)] + args, cwd=ROOT, env=child_env(workers),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{path.name} {' '.join(args)} did not end within {timeout:.0f} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"{path.name} exited with {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    skip = {"target", ".bench_build", ".perfbench", ".git"}
    paths = [ROOT / name for name in ("Cargo.toml", "Cargo.lock", "rust-toolchain.toml")]
    for top in ("crates", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            paths.extend(Path(dirpath) / f for f in sorted(filenames))
    for path in paths:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(workers, args):
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workers": workers,
        "seed": args.seed,
    }


def check_metrics(result, wanted):
    """The metrics BENCHMARK.json names for this mode, every one present,
    finite and in the named unit."""
    out = {}
    for m in wanted:
        got = result.get("metrics", {}).get(m["name"])
        if got is None:
            raise BenchError(f"metric {m['name']} missing")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not finite: {value}")
        if got.get("unit") != m["unit"]:
            raise BenchError(f"metric {m['name']} in {got.get('unit')}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(spec, workload, args, extra):
    """One workload in one mode; returns the contract result."""
    workers = nproc()
    binary = build("perfbench-trace" if args.trace else "perfbench")
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    common = ["--workload", workload, "--seed", str(args.seed)] + extra
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env_info = environment(workers, args)
    setups = []
    if args.trace:
        spans = results_dir / f"{stem}-spans.json"
        lines, result = run_binary(binary, common + ["--spans-out", str(spans)], workers, deadline)
        wanted = spec["per_layer"]
    else:
        def setup_only():
            _, r = run_binary(binary, common + ["--setup-only", "--launch-ns", str(time.time_ns())],
                              workers, deadline)
            return r["setup_from_launch_s"]
        setups += [setup_only() for _ in range(SETUP_LAUNCHES_EACH_SIDE)]
        lines, result = run_binary(
            binary, common + ["--seconds", str(args.seconds), "--launch-ns", str(time.time_ns())],
            workers, deadline)
        setups.append(result["metrics"]["setup_s"]["value"])
        setups += [setup_only() for _ in range(SETUP_LAUNCHES_EACH_SIDE)]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    print("\n".join(lines))
    if not args.trace:
        print(f"setup_s median of {len(setups)} launches: {statistics.median(setups):.6f} s "
              f"(launches: {', '.join(f'{v:.4f}' for v in setups)})")
    contract = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": check_metrics(result, wanted),
    }
    saved = {"contract": contract, "environment": env_info, "setup_launches_s": setups,
             "result": result}
    (results_dir / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n")
    return contract


def smoke(spec, args):
    """Tiny budgets: every workload end to end and traced. Fails if a named
    metric is missing or not finite, or an output check failed."""
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            sub = argparse.Namespace(**{**vars(args), "trace": trace, "seconds": 0})
            try:
                c = run_workload(spec, workload, sub, SMOKE_BUDGETS)
                ok &= c["correct"]
                print(f"smoke {workload} trace {trace}: correct={c['correct']} "
                      f"{len(c['metrics'])} metrics")
            except BenchError as e:
                ok = False
                print(f"smoke {workload} trace {trace}: FAILED: {e}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.smoke:
            return smoke(spec, args)
        if args.workload is None:
            p.error("--workload or --smoke is required")
        if args.workload != "all":
            contract = run_workload(spec, args.workload, args, [])
            print(json.dumps(contract))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            c = run_workload(spec, workload, args, [])
            print(json.dumps(c))
            combined["correct"] &= c["correct"]
            combined["attempted"] += c["attempted"]
            combined["failed"] += c["failed"]
            for name, metric in c["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
