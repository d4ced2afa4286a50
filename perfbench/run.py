#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload cg-w-numa24 --seed 0 --seconds 10 --trace 0

Builds perfbench/ (with the repository's src/ it links) into .bench_build,
runs the occm_perfbench driver, checks every timed sweep's CSV fingerprint
against perfbench/config.json, prints every metric with its unit and sample
count, and ends with one JSON line:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones plus a Chrome trace under .bench_out/. Exits nonzero when an
output check fails, when the driver fails, or when the source tree is not
there to build.

Other modes:
    --selftest   build and run the benchmark's own unit tests
    --pin        recompute the pinned sweep fingerprints in config.json
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
ADVISOR = "advisor-open"


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(target):
    """Configures once, then builds `target`; all output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the repository's src/ tree is missing; nothing to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / target


def driver_command(binary, workload, seed, workload_seed, arrival_seed,
                   seconds, trace):
    return [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--workload-seed={workload_seed}",
            f"--arrival-seed={arrival_seed}", f"--seconds={seconds}",
            f"--trace={trace}"]


def run_driver(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}", 1)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line", 1)


def print_report(result, metrics, specs, pin_note, mode):
    host = result["host"]
    print(f"perfbench {result['workload']}  mode={mode}  seed={result['seed']}"
          f"  workload_seed={result['workload_seed']}"
          f"  arrival_seed={result['arrival_seed']}")
    print(f"host: nproc={host['nproc']} cpu=\"{host['cpu_model']}\""
          f" compiler=\"{host['compiler']}\" build={host['build_type']}"
          f" OCCM_ENABLE_OBS={'ON' if host['occm_enable_obs'] else 'OFF'}"
          f" OCCM_DISABLE_ASSERTS="
          f"{'ON' if host['occm_disable_asserts'] else 'OFF'}")
    print(f"{'metric':<28} {'value':>16} {'unit':<10} samples")
    for spec in specs:
        m = result["metrics"][spec["name"]]
        print(f"{spec['name']:<28} {m['value']:>16.6g} {spec['unit']:<10}"
              f" {m['samples']}")
    if result["figures"]:
        print("figures (reported, not gated):")
        for name, m in sorted(result["figures"].items()):
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<40} {value:>14} {m['unit']:<8} {m['samples']}")
    if result["layer_self_ms"]:
        print("layer self time (ms, from spans): " + "  ".join(
            f"{k}={v:.3f}" for k, v in sorted(result["layer_self_ms"].items())))
    if result["trace_path"]:
        print(f"chrome trace: {result['trace_path']}")
    for note in result["notes"] + ([pin_note] if pin_note else []):
        print("note: " + note)
    print(f"checks: attempted={result['attempted']} failed={result['failed']}"
          f" wrong={result['wrong']}")
    for why in result["failures"]:
        print("  failure: " + why)


def check_fingerprints(result, config, workload, workload_seed):
    """Returns (mismatching sweeps, note)."""
    fps = result["fingerprints"]
    if not fps:
        return 0, ""
    pinned = config["fingerprints"].get(workload, {}).get(str(workload_seed))
    if pinned is None:
        return 0, (f"workload seed {workload_seed} has no pinned fingerprint;"
                   " only repeat consistency was checked")
    bad = sum(1 for fp in fps if fp != pinned)
    return bad, (f"fingerprints: {len(fps) - bad} of {len(fps)} sweeps match"
                 f" the pinned {pinned}")


def pin(config, bench):
    binary = build("occm_perfbench")
    pins = {}
    for w in bench["workloads"]:
        if w["name"] == ADVISOR:
            continue
        pins[w["name"]] = {}
        for s in config["workload_seeds"]:
            result = run_driver(driver_command(binary, w["name"], 0, s, 0, 0,
                                               0))
            if result["wrong"] or not result["fingerprints"]:
                fail(f"{w['name']} seed {s}: no clean sweep to pin", 1)
            pins[w["name"]][str(s)] = result["fingerprints"][0]
            print(w["name"], s, result["fingerprints"][0], file=sys.stderr)
    config["fingerprints"].update(pins)
    with open(BENCH / "config.json", "w") as f:
        json.dump(config, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload-seed", type=int,
                    help="WorkloadSpec::seed (default: config.json"
                         " workload_seeds[seed mod their count])")
    ap.add_argument("--arrival-seed", type=int,
                    help="advisor arrival-schedule seed (default: --seed)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    config = load_json(BENCH / "config.json")
    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_tests"))],
                                check=False).returncode)
    if args.pin:
        pin(config, bench)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    binary = build("occm_perfbench")
    seeds = config["workload_seeds"]
    workload_seed = (args.workload_seed if args.workload_seed is not None
                     else seeds[args.seed % len(seeds)])
    arrival_seed = (args.arrival_seed if args.arrival_seed is not None
                    else args.seed)
    result = run_driver(driver_command(binary, args.workload, args.seed,
                                       workload_seed, arrival_seed,
                                       args.seconds, args.trace))

    mismatched, pin_note = check_fingerprints(result, config, args.workload,
                                              workload_seed)
    if mismatched:
        result["failures"].append(
            f"{mismatched} sweep(s) differ from the pinned fingerprint")
    correct = result["wrong"] == 0 and mismatched == 0
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None:
            fail(f"driver did not report {spec['name']}", 1)
        if m["unit"] != spec["unit"]:
            fail(f"{spec['name']}: driver unit {m['unit']} is not"
                 f" {spec['unit']}", 1)
        if m["value"] is None:
            fail(f"{spec['name']}: no finite value", 1)
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    if args.trace:
        load_json(ROOT / result["trace_path"])  # the trace must parse

    print_report(result, metrics, specs, pin_note,
                 "traced" if args.trace else "untraced")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"] + mismatched,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
