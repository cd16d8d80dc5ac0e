"""Run ``run.py`` once per seed and summarise each metric across the runs.

  python3 perfbench/sweep.py --workload many_nodes --seeds 1-10 --seconds 26 [--trace 1]
      [--json out.json]

For every metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound, which is how the benchmark's steadiness
is judged. Run it from the repository root; runs are made one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="write every run's result and the summary here")
    args = parser.parse_args()

    results = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        results[seed] = {"exit": proc.returncode, "result": result,
                         "artifacts": {int(l.split(" ", 3)[2]): json.loads(l.split(" ", 3)[3])
                                       for l in lines if l.startswith("perfbench artifacts ")}}
        ok = proc.returncode == 0 and result and result["correct"]
        print(f"seed {seed}: exit {proc.returncode}, {'ok' if ok else 'FAILED'}", file=sys.stderr)
        if not ok:
            print(proc.stdout[-3000:] + proc.stderr[-3000:], file=sys.stderr)

    bounds = {name: bound for name, _, _, bound in END_TO_END}
    good = [r["result"] for r in results.values() if r["result"] and r["result"]["correct"]]
    summary = {}
    if len(good) >= 2:
        for name in good[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in good]
            if any(v is None for v in values):
                continue
            s = summary[name] = summarise(values)
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  <-- wide"
            print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"  bound {bound}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": results, "summary": summary}, indent=1))
    return 0 if len(good) == len(args.seeds) else 1


if __name__ == "__main__":
    raise SystemExit(main())
