"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 bench/passes.py --workload W --seed N --mode MODE

MODE is `plain` (the timed pass), `traced` (stage spans, probes and scalar
micro-benchmarks), `setup` (import and input building only) or `warm`
(import only, which leaves compiled bytecode behind).  bench/run.py starts
this script; it is not meant to be run by hand.

Every time reported is scaled to the nominal machine speed (spans.Speed);
the raw seconds are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import checker
from spans import NullTracer, Speed, Tracer, summarize

SRC = Path(__file__).resolve().parent.parent / "src"


def layer_metrics(tr, probe, speed) -> tuple[dict, list]:
    """Per-layer totals, self times and counts of a traced pass.  A layer
    the workload never calls is taken from the probe operations."""
    import workloads

    own_totals, own_self = summarize(tr.spans, speed)
    probe_totals, probe_self = summarize(probe.spans, speed)
    own_layers = {name.split(".", 1)[0] for name in own_totals}
    layers: dict[str, float] = {"bench.self_s": own_self.get("bench", 0.0)}
    from_probe = []
    for layer in workloads.PROBE_LAYERS:
        if layer in own_layers:
            totals, self_s, counts = own_totals, own_self, tr.counts
        else:
            totals, self_s, counts = probe_totals, probe_self, probe.counts
            from_probe.append(layer)
        for name, seconds in totals.items():
            if name.startswith(layer + "."):
                layers[name + "_s"] = seconds
        for name, n in counts.items():
            if name.startswith(layer + "."):
                layers[name] = n
        layers[layer + ".self_s"] = self_s.get(layer, 0.0)
    gram_s = layers.get("obstruction.gram_s")
    if gram_s:
        layers["obstruction.gram_nodes_per_s"] = layers.get("obstruction.gram_nodes", 0) / gram_s
    return layers, from_probe


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "setup", "warm"), required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    speed = Speed()
    try:
        out = run(args, speed)
    finally:
        speed.stop()
    if out is None:
        return 2
    print(json.dumps(out))
    return 0


def run(args, speed: Speed) -> dict | None:
    """The pass itself; None if mrfw is not the checkout's own."""
    t0 = time.perf_counter()
    import mrfw
    import mrfw.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    if SRC not in Path(mrfw.__file__).resolve().parents:
        print(f"mrfw imported from {mrfw.__file__}, not from {SRC}", file=sys.stderr)
        return None
    import workloads

    if args.mode == "warm":
        return {"mode": "warm"}
    keys = workloads.op_keys(args.workload, args.seed)
    inputs = workloads.build_inputs(keys)
    setup = (t0, time.perf_counter())
    if args.mode == "setup":
        time.sleep(2 * speed.PERIOD_S)  # calibration slices after set-up
        raw, scaled = speed.scaled(*setup)
        return {"mode": args.mode, "setup_s": scaled, "raw_setup_s": raw}

    tr = Tracer() if args.mode == "traced" else NullTracer()
    results = workloads.run_pass(keys, inputs, tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = checker.load_reference(Path(__file__).with_name("reference") / "verdicts.json")

    def judged(results, inputs) -> list[dict]:
        ops = []
        for key, res, err, start, end in results:
            outcome, reason = workloads.classify(key, res, err, inputs, reference)
            status = res["status"] if key[0] in ("rank4", "near-group") and res else None
            ops.append({"key": key, "span": (start, end), "outcome": outcome,
                        "reason": reason, "status": status})
        return ops

    ops = judged(results, inputs)
    out: dict = {"mode": args.mode, "peak_rss_mb": peak_rss_mb}
    if args.mode == "traced":
        import microbench

        own_layers = {s[0].split(".", 1)[0] for s in tr.spans}
        pkeys = workloads.probe_keys(args.seed, set(workloads.PROBE_LAYERS) - own_layers)
        pinputs = workloads.build_inputs(pkeys)
        probe = Tracer()
        out["probe_ops"] = judged(workloads.run_pass(pkeys, pinputs, probe), pinputs)
        scalars, checked, wrong = microbench.run(args.seed, speed)
        out["scalar_checks"] = [checked, wrong]
        out["spans"] = tr.spans
        out["layers"], out["probe_layers"] = layer_metrics(tr, probe, speed)
        out["layers"].update(scalars)
    # scale last, so every interval has calibration slices after it
    out["raw_setup_s"], out["setup_s"] = speed.scaled(*setup)
    for op in ops + out.get("probe_ops", []):
        op["raw_s"], op["s"] = speed.scaled(*op.pop("span"))
    out["ops"] = ops
    out["wall_s"] = sum(op["s"] for op in ops)
    out["raw_wall_s"] = sum(op["raw_s"] for op in ops)
    return out


if __name__ == "__main__":
    sys.exit(main())
