"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/record.py --seeds 1-10 [--workloads dense-seq,deep-baseline]
                                [--trace 0|1] [--write LABEL]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
with the ``command`` and ``run_seconds`` of ``BENCHMARK.json``.  For each
metric it prints the median and the quartile spread ((Q3 - Q1) / median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them) next to the
metric's bound.  ``--write LABEL`` adds the runs and their summary to
``perfbench/results/BENCH_<LABEL>.json``, one section per trace mode, so
successive labels form the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, report) of one benchmark process."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        entry = {"median": statistics.median(values), "min": min(values), "max": max(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=quartile_spread(values))
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", metavar="LABEL", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    section: dict = {}
    ok = True
    for workload in names:
        runs, fingerprints = [], []
        for seed in parse_seeds(args.seeds):
            result, report = run_once(spec, workload, seed, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
            fingerprints.append(report["fingerprint"])
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values[:400]}", file=sys.stderr)
        if any(f != fingerprints[0] for f in fingerprints):
            raise RuntimeError(f"environment changed during the {workload} runs")
        summary = summarise(runs, bounds)
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        section[workload] = {"config": report["config"], "fingerprint": fingerprints[0],
                             "runs": runs, "summary": summary, "units": units}
        print(f"== {workload} ({len(runs)} seeds, trace {args.trace})")
        for name, e in summary.items():
            spread = e.get("spread")
            flag = ""
            if "bound" in e and spread is not None:
                flag = "  ok" if spread < e["bound"] / 3 else "  WIDE (>= bound/3)"
            spread_text = f"{spread:.4f}" if spread is not None else "-"
            print(f"  {name:<34} median {e['median']:<14.6g} {units[name]:<9} "
                  f"spread {spread_text:<8} bound {e.get('bound', '-')}{flag}")

    if args.write:
        path = HERE / "results" / f"BENCH_{args.write}.json"
        path.parent.mkdir(exist_ok=True)
        doc = json.loads(path.read_text()) if path.exists() else {"label": args.write}
        doc["run_seconds"] = spec["run_seconds"]
        doc.setdefault("end_to_end" if args.trace == 0 else "per_layer", {}).update(section)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
