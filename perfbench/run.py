#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench_driver from source (default preset: RelWithDebInfo,
contracts on) into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks its outputs, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the traced run. Human-readable lines (run metadata, every
metric with its unit) come before it. The exit code is 1 when the
outputs are wrong ("correct": false), 2 when no result could be made.
Other modes:

    --write-refs       regenerate perfbench/refs.json (default seed)
    --price-contracts  acts_per_s with contracts off vs on, per workload
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
WORKLOADS = ["sys-normal", "act-attack", "act-lowtrh", "serve-soak"]
DEFAULT_SEED = 1
RUN_BUDGET_S = 170.0
PRICE_SEEDS = 3  # runs per build for --price-contracts

END_TO_END = [
    ("acts_per_s", "ACT/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("artifact_bytes", "B"),
    ("pass_rate", "fraction"),
]

SCHEMES = ["Graphene", "PARA", "CBT", "TWiCe"]
PER_LAYER = (
    [
        ("workloads.gen_next_ns", "ns"),
        ("workloads.gen_setup_ms", "ms"),
        ("workloads.pattern_next_ns", "ns"),
        ("dram.decode_ns", "ns"),
        ("dram.rank_setup_ms", "ms"),
        ("dram.fault_activate_ns", "ns"),
        ("dram.bank_timing_ns", "ns"),
        ("dram.refresh_ns", "ns"),
        ("dram.victim_refresh_ns", "ns"),
        ("mem.access_ns", "ns"),
        ("mem.controller_setup_ms", "ms"),
        ("mem.row_hit_ratio", "ratio"),
    ]
    + [
        (f"schemes.{s}.{m}", u)
        for s in SCHEMES
        for m, u in [
            ("activate_ns", "ns"),
            ("refresh_ns", "ns"),
            ("setup_ms", "ms"),
            ("victim_rows_per_mact", "count"),
        ]
    ]
    + [
        ("sim.engine_step_ns", "ns"),
        ("sim.engine_setup_ms", "ms"),
        ("exp.pool_busy_ratio", "ratio"),
        ("ckpt.save_ms", "ms"),
        ("ckpt.restore_ms", "ms"),
        ("ckpt.bytes", "B"),
        ("serve.quantum_ms_p50", "ms"),
        ("serve.quantum_ms_tail", "ms"),
        ("serve.checkpoint_ms", "ms"),
        ("obs.telemetry_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

# Files a run leaves that hold wall-clock readings, never compared.
VOLATILE = (".meta", "status.meta.json")
# Serve telemetry artifacts digested alongside the session JSONL.
TELEMETRY = ["rollup.jsonl", "alerts.jsonl", "metrics.prom", "status.json"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


# ---- build ----------------------------------------------------------


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(variant, jobs, extra_defs=()):
    """Configure (once) and build perfbench_driver; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}: run from a "
             "checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_root() / variant
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *extra_defs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_driver",
           "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return bdir / "perfbench_driver"


def run_driver(binary, workload, seed, seconds, jobs, trace, out_dir,
               budget):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--jobs", str(jobs),
           "--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {budget:.0f} s")
    if proc.returncode != 0:
        fail(f"{workload}: driver exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: driver printed nothing")
    return json.loads(lines[-1])


# ---- statistics -----------------------------------------------------


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = p / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest of p95/p90/p75 with at least ten samples above it. p99
    is left out: on a shared host it follows preemption, not the code."""
    for p in (95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


# ---- correctness ----------------------------------------------------


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def output_records(workload, first_dir):
    """The digested outputs of a workload's first batch: one entry per
    unit (grid record line or serve session JSONL), plus the serve
    telemetry artifacts."""
    first_dir = Path(first_dir)
    if workload == "serve-soak":
        units = {p.name: p.read_bytes()
                 for p in sorted(first_dir.glob("session_*.jsonl"))}
        files = {name: (first_dir / name).read_bytes()
                 for name in TELEMETRY if (first_dir / name).is_file()}
        return units, files
    lines = (first_dir / "cells.jsonl").read_bytes().splitlines()
    return {f"{i:04d}": line for i, line in enumerate(lines)}, {}


def digests(units, files):
    return {"units": {k: sha256(v) for k, v in units.items()},
            "files": {k: sha256(v) for k, v in files.items()}}


def mismatches(expected, units, files):
    """(failed units, failed files) against reference digests."""
    got = digests(units, files)
    bad_units = sum(1 for k, v in expected["units"].items()
                    if got["units"].get(k) != v)
    bad_units += sum(1 for k in got["units"] if k not in expected["units"])
    bad_files = sum(1 for k, v in expected["files"].items()
                    if got["files"].get(k) != v)
    return bad_units, bad_files


def perturbed(data):
    """@p data with one byte changed: its first digit bumped."""
    for i, c in enumerate(data):
        if 48 <= c <= 57:
            return data[:i] + bytes([48 + (c - 47) % 10]) + data[i + 1:]
    return b"#" + data[1:]


def self_check(units, files):
    """A one-byte perturbation of one record must be caught."""
    expected = digests(units, files)
    if not units or mismatches(expected, units, files) != (0, 0):
        return False
    key = next(iter(units))
    bad = dict(units)
    bad[key] = perturbed(units[key])
    return mismatches(expected, bad, files) == (1, 0)


def load_refs():
    if REFS.is_file():
        return json.loads(REFS.read_text())
    return {"seed": DEFAULT_SEED, "workloads": {}}


def artifact_bytes(first_dir):
    total = 0
    for path in Path(first_dir).rglob("*"):
        if path.is_file() and not path.name.endswith(VOLATILE):
            total += path.stat().st_size
    return total


# ---- metadata -------------------------------------------------------


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def metadata(raw, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": args.jobs,
        "trace": bool(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": raw["build"]["build_type"],
        "GRAPHENE_CONTRACTS": raw["build"]["contracts"],
        "GRAPHENE_OBS_OFF": raw["build"]["obs_off"],
        "git_commit": git_commit(),
        "calibration_s": (statistics.median(raw["calibration_s"])
                          if "calibration_s" in raw else None),
    }


# ---- the two result shapes ------------------------------------------


def end_to_end(raw, workload, seed):
    """(metrics, attempted, failed, correct, notes, extra lines)."""
    units, files = output_records(workload, raw["first_dir"])
    attempted = raw["attempted"]
    failed = raw["failed"]
    notes = list(raw["notes"])
    refs = load_refs()
    ref = refs["workloads"].get(workload)
    if seed == refs["seed"] and ref is not None:
        bad_units, bad_files = mismatches(ref, units, files)
        if bad_units or bad_files:
            notes.append(f"{bad_units} unit(s) and {bad_files} file(s) "
                         "differ from the reference digests")
        # A reference mismatch repeats in every batch (each timed batch
        # is byte-compared with the untimed first one).
        failed += bad_units * (raw["batches"] + 1) + bad_files
    elif seed == refs["seed"]:
        notes.append("no reference digests for this workload")
        failed += 1
    checked = self_check(units, files)
    if not checked:
        notes.append("self-check: a perturbed record was not caught")
    failed = min(failed, attempted)

    unit_ms = raw["unit_ms"]
    tail_p = tail_percentile(len(unit_ms))
    metrics = {
        "acts_per_s": statistics.median(
            a / s for a, s in zip(raw["batch_acts"], raw["batch_s"])),
        "cell_ms_p50": statistics.median(unit_ms),
        "cell_ms_tail": percentile(unit_ms, tail_p),
        "setup_s": statistics.median(raw["setup_s"]),
        # Median of per-batch peaks where the kernel can reset the mark
        # (a 0 means it could not), else the process-wide peak.
        "peak_rss_mb": (statistics.median(raw["batch_rss_kb"])
                        if all(raw["batch_rss_kb"]) else
                        raw["peak_rss_kb"]) / 1024.0,
        "artifact_bytes": artifact_bytes(raw["first_dir"]),
        "pass_rate": 1.0 - failed / attempted,
    }
    extra = {
        "cell_ms_tail percentile": f"p{tail_p:g} of {len(unit_ms)} "
                                   f"{'soaks' if workload == 'serve-soak' else 'cells'}",
        "error_rate": failed / attempted,
        "batches": raw["batches"],
        "timed_s": raw["timed_s"],
        "self_check": "caught" if checked else "MISSED",
    }
    return metrics, attempted, failed, checked and failed == 0, notes, extra


def per_layer(raw):
    metrics = {k: v["value"] for k, v in raw["metrics"].items()}
    quanta = raw["quantum_ms"]
    if quanta:
        metrics["serve.quantum_ms_p50"] = statistics.median(quanta)
        metrics["serve.quantum_ms_tail"] = percentile(
            quanta, tail_percentile(len(quanta)))
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    notes = list(raw["notes"]) + [f"missing per-layer metric {m}"
                                  for m in missing]
    failed = raw["failed"] + len(missing)
    attempted = max(raw["attempted"], 1)
    extra = {f"source of {k}": v["from"] for k, v in raw["metrics"].items()
             if v["from"]}
    extra["tracing overhead (traced / untraced wall)"] = raw["overhead"]
    extra["spans written"] = raw["spans"]
    return metrics, attempted, min(failed, attempted), failed == 0, notes, extra


# ---- modes ----------------------------------------------------------


def benchmark(args):
    binary = build("default", args.jobs)
    out_dir = build_root() / "runs" / f"{args.workload}-{args.seed}"
    raw = run_driver(binary, args.workload, args.seed, args.seconds,
                     args.jobs, args.trace, out_dir, RUN_BUDGET_S)
    meta = metadata(raw, args)
    if args.trace:
        metrics, attempted, failed, correct, notes, extra = per_layer(raw)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failed, correct, notes, extra = end_to_end(
            raw, args.workload, args.seed)
        units = dict(END_TO_END)

    print("meta: " + json.dumps(meta, sort_keys=True))
    for name in units:
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")
    for key, value in extra.items():
        print(f"{key}: {value}")
    for note in notes:
        print(f"note: {note}")

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    results = build_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (results / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result, "extra": extra,
                    "notes": notes}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    # A wrong output fails the command, after its result is printed.
    return 0 if correct else 1


def write_refs(args):
    binary = build("default", args.jobs)
    refs = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        out_dir = build_root() / "refs" / workload
        raw = run_driver(binary, workload, DEFAULT_SEED, 0, args.jobs,
                         False, out_dir, RUN_BUDGET_S)
        if raw["failed"]:
            fail(f"{workload}: refusing to record a failing batch: "
                 f"{raw['notes']}")
        refs["workloads"][workload] = digests(
            *output_records(workload, raw["first_dir"]))
        log(f"{workload}: {len(refs['workloads'][workload]['units'])} units")
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def price_contracts(args):
    """acts_per_s of each workload, contracts off vs the default build."""
    builds = {
        "contracts on": build("default", args.jobs),
        "contracts off": build("nocontracts", args.jobs,
                               ["-DGRAPHENE_CONTRACTS=OFF"]),
    }
    print("| workload | contracts on (ACT/s) | contracts off (ACT/s) | delta |")
    print("|---|---|---|---|")
    for workload in WORKLOADS:
        rates = {}
        for label, binary in builds.items():
            runs = []
            for seed in range(1, PRICE_SEEDS + 1):
                out_dir = build_root() / "price" / label.replace(" ", "-")
                raw = run_driver(binary, workload, seed, args.seconds,
                                 args.jobs, False, out_dir, RUN_BUDGET_S)
                runs.append(statistics.median(
                    a / s for a, s in zip(raw["batch_acts"], raw["batch_s"])))
            rates[label] = statistics.median(runs)
        on, off = rates["contracts on"], rates["contracts off"]
        print(f"| {workload} | {on:.4g} | {off:.4g} | "
              f"{(off - on) / on * 100:+.1f}% |", flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool workers (at most nproc)")
    parser.add_argument("--write-refs", action="store_true")
    parser.add_argument("--price-contracts", action="store_true")
    args = parser.parse_args()
    if args.jobs < 1 or args.jobs > len(os.sched_getaffinity(0)):
        fail(f"--jobs must lie in [1, nproc], got {args.jobs}")
    if args.write_refs:
        return write_refs(args)
    if args.price_contracts:
        return price_contracts(args)
    if args.workload is None:
        fail("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
