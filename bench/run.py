"""mrfw benchmark: verdict and analysis throughput on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Every timed pass runs in a fresh interpreter (bench/passes.py), so it pays
the cold costs a CLI call or a sweep pays: import, building the rings from
scratch, and every analysis.  Passes run one at a time (single process,
closed loop) until the run has used about S seconds, with at least three
passes.  See end_to_end() for how passes combine into metrics.

Times are scaled to a nominal machine speed (spans.Speed): every 10 ms a
timer signal runs a 0.5 ms calibration slice of stdlib Fraction arithmetic,
also in the middle of an operation; an operation's time, less the slices
inside it, is multiplied by the mean nominal-over-measured slice speed
around it.  On the shared machine the benchmark was written on, raw pass
times of one workload ranged over 2x from one pass to the next, while the
scaled ones stayed within a few percent.  The report shows raw times too.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 the run alternates plain and traced
passes and reports the per-layer metrics instead, plus the tracing overhead.
Outputs are checked in every pass (bench/checker.py); `correct` is false if
any operation failed.  The lines before the last are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402  (plain Python; does not import mrfw)

WORKLOADS = ("rank4-sweep", "near-group-gram", "ring-structure", "cyclotomic")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 165  # a run must end well inside 180 s
OUT_DIR = ROOT / ".bench_out"


class PassError(RuntimeError):
    pass


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("run deadline reached")
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass of {workload} exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list, list, list]:
    """Plain passes, traced passes, and set-up samples of one run."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    run_child(workload, seed, "warm", deadline)
    plain, traced_passes, rounds = [], [], []
    minimum = MIN_TRACED_PAIRS if traced else MIN_PASSES
    while True:
        t = time.monotonic()
        plain.append(run_child(workload, seed, "plain", deadline))
        if traced:
            traced_passes.append(run_child(workload, seed, "traced", deadline))
        rounds.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(rounds) >= minimum and elapsed + statistics.median(rounds) > seconds:
            break
        if elapsed + 2 * max(rounds) > RUN_DEADLINE_S:
            break
    setups = [p["setup_s"] for p in plain + traced_passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", deadline)["setup_s"])
    return plain, traced_passes, setups


def end_to_end(plain: list, setups: list) -> tuple[dict, int]:
    """End-to-end metrics of a run, and the tail percentile used.

    An operation's latency is its median over the plain passes, which is
    steadier than any single run of it.  wall_s is the sum of those
    latencies, the time of a typical pass; op_p50_ms is their median, and
    op_tail_ms their nearest-rank percentile at the highest level that
    leaves at least 10 operation runs beyond it in MIN_PASSES passes, so the
    level is the same however many passes a run makes."""
    seconds: dict = {}
    for p in plain:
        for op in p["ops"]:
            seconds.setdefault(tuple(op["key"]), []).append(op["s"])
    medians = sorted(statistics.median(v) for v in seconds.values())
    wall = sum(medians)
    pct = checker.tail_percentile(len(seconds) * MIN_PASSES)
    outcomes = [op["outcome"] for p in plain for op in p["ops"]]
    decided = outcomes.count(checker.DECIDED) / len(outcomes)
    completed = decided + outcomes.count(checker.INCONCLUSIVE) / len(outcomes)
    return {
        "wall_s": wall,
        "ops_per_s": completed * len(seconds) / wall,
        "op_p50_ms": statistics.median(medians) * 1e3,
        "op_tail_ms": checker.nearest_rank(medians, pct) * 1e3,
        "decided_frac": decided,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(setups),
    }, pct


def pass_ops(p: dict) -> list:
    return p["ops"] + p.get("probe_ops", [])


def check_consistency(passes: list) -> list:
    """A verdict must not change between passes of one run, traced or not
    (the traced pass reaches it stage by stage, the plain pass by
    `obstruct`).  A change marks the later operation failed.  Returns
    (key, reason) of every failed operation."""
    first: dict = {}
    for p in passes:
        for op in pass_ops(p):
            if op["status"] is None or op["outcome"] == checker.FAILED:
                continue
            key = tuple(op["key"])
            want = first.setdefault(key, op["status"])
            if op["status"] != want:
                op["outcome"] = checker.FAILED
                op["reason"] = f"verdict {op['status']} differs from {want} in another pass"
    return [(op["key"], op["reason"]) for p in passes for op in pass_ops(p)
            if op["outcome"] == checker.FAILED]


def report_layers(workload: str, seed: int, traced_passes: list, plain_wall: float, spec: dict) -> tuple[dict, list]:
    """Print and return the per-layer metrics of the traced passes, and the
    scalar micro-benchmark results that were wrong."""
    values: dict = {}
    wrong = []
    for p in traced_passes:
        for name, value in p["layers"].items():
            values.setdefault(name, []).append(value)
        checked, bad = p["scalar_checks"]
        wrong += [("scalars", f"{bad} of {checked} micro-benchmark results are wrong")] * bool(bad)
    layers = {name: statistics.median(v) for name, v in values.items()}
    layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced_passes)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - plain_wall
    print(f"  per-layer (median of {len(traced_passes)} traced passes; measured on probe"
          f" operations: {', '.join(traced_passes[0]['probe_layers']) or 'none'})")
    out = {}
    for m in spec["per_layer"]:
        value = layers.get(m["name"], 0 if m["unit"] == "count" else None)
        if value is None:
            raise PassError(f"traced pass did not measure {m['name']}")
        out[m["name"]] = value
        print(f"    {m['name']:<34} {value:12.5g} {m['unit']}")
    print(f"  tracing overhead {layers['trace.overhead_s']:.4g} s"
          f" ({layers['trace.overhead_s'] / plain_wall:.1%} of the plain wall_s)")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    span_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                     "spans": traced_passes[-1]["spans"]}))
    print(f"  spans of the last traced pass: {span_file.relative_to(ROOT)}")
    return out, wrong


def report_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, int, int]:
    """Run one workload; print its readable report; return the metrics of
    BENCHMARK.json for this mode, attempted and failed counts."""
    plain, traced_passes, setups = collect(workload, seed, seconds, trace)
    failures = check_consistency(plain + traced_passes)
    attempted = sum(len(pass_ops(p)) for p in plain + traced_passes)
    e2e, tail_pct = end_to_end(plain, setups)
    n_ops = len(plain[0]["ops"])
    outcomes: dict = {}
    for p in plain + traced_passes:
        for op in pass_ops(p):
            outcomes[op["outcome"]] = outcomes.get(op["outcome"], 0) + 1

    print(f"== {workload}  seed {seed}: {len(plain)} plain"
          + (f" + {len(traced_passes)} traced" if trace else "")
          + f" passes, {n_ops} ops per pass, each pass a fresh interpreter")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        note = f"  (p{tail_pct} of the {n_ops} operation latencies)" if name == "op_tail_ms" else ""
        print(f"  {name:<14} {value:12.5g} {units[name]}{note}")
    raw_wall = statistics.median(p["raw_wall_s"] for p in plain)
    print(f"  (raw wall_s {raw_wall:.5g} s: times above are scaled to the nominal speed by"
          f" {e2e['wall_s'] / raw_wall:.3f})")
    print("  outcomes       " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    if workload in ("rank4-sweep", "near-group-gram"):
        reference = checker.load_reference(HERE / "reference" / "verdicts.json")[workload]
        statuses = {tuple(op["key"]): op["status"] for op in plain[0]["ops"]}
        got = checker.table_sha256(checker.verdict_table(statuses))
        same = "same" if got == reference["sha256"] else "DIFFERENT"
        print(f"  verdict table sha256 {got} ({same} as reference)")

    out = {k: e2e[k] for k in units}
    if trace:
        out, wrong = report_layers(workload, seed, traced_passes, e2e["wall_s"], spec)
        failures += wrong
        attempted += sum(p["scalar_checks"][0] for p in traced_passes)
    print(f"  fail_frac      {len(failures) / attempted:12.5g}  ({len(failures)} of {attempted} failed)")
    for key, reason in failures[:10]:
        print(f"  FAILED {key}: {reason}")
    return out, attempted, len(failures)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mrfw" / "__init__.py").is_file():
        print(f"no mrfw sources under {ROOT / 'src'}; run from an mrfw checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = machine()
    print(f"machine: nproc {info['nproc']}, {info['cpu']}, Python {info['python']}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            values, a, f = report_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            attempted += a
            failed += f
            prefix = f"{name}/" if args.workload == "all" else ""
            for metric, value in values.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    except (PassError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
