"""Check that two g2i source trees write the same artifact bytes.

Run from the root of a source checkout:

  python3 tools/byte_check.py --tree parent=/path/to/parent/src --tree change=src \
      --seeds 7,12

Each of the two ``--tree LABEL=SRC`` names a ``src/`` directory holding a
``g2i`` package. For each of the workloads sbm_ref, wide_features and
many_nodes (with the flags of ``perfbench/run.py``'s ``WORKLOADS``) and each
seed, both trees run ``g2i synth`` into an input directory and ``g2i run``
on those inputs into an ``--out`` directory, each in a fresh
``python -m g2i.cli`` process with the environment of
``tools/bench_reference.py`` (one BLAS thread). The script prints, per
workload and seed, how many files each tree wrote and the sha256 of every
input or ``--out`` file that differs between the trees, and exits 1 if any
file differs or any run fails. When ``importance.csv`` or ``eval.csv``
differs, it also prints how far the attributions drifted: the largest
|delta shap_raw| over the rows, whether every class keeps its top feature,
and both trees' eval metrics.

This script is not part of the test suite; at two seeds the three workloads
take a few minutes per tree.
"""

from __future__ import annotations

import argparse
import csv
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from bench_reference import child_env, file_sha256, parse_trees  # noqa: E402
from run import WORKLOADS  # noqa: E402

CHECKED_WORKLOADS = ("sbm_ref", "wide_features", "many_nodes")


def run_g2i(src, argv):
    """Run ``g2i argv`` from the tree ``src``; raises with its stderr if it fails."""
    proc = subprocess.run([sys.executable, "-m", "g2i.cli", *argv], env=child_env(src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"g2i {' '.join(argv)} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")


def artifacts(src, workload, seed, work):
    """{relative path: sha256} of the inputs and ``--out`` files of one run."""
    inputs, out = work / "inputs", work / "out"
    run_g2i(src, ["synth", "--out", str(inputs), "--seed", str(seed), *workload.synth])
    run_g2i(src, ["run", "--out", str(out), "--seed", str(seed), *workload.run,
                  "--edges", str(inputs / "edges.tsv"),
                  "--features", str(inputs / "features.csv"),
                  "--labels", str(inputs / "labels.csv")])
    return {f"{d.name}/{name}": sha for d in (inputs, out)
            for name, sha in file_sha256(d).items()}


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def drift_report(outs):
    """Lines on how far ``importance.csv`` and ``eval.csv`` moved between the
    ``--out`` directories ``{label: out}`` of two trees."""
    shap = {label: {(r["feature"], r["modality"], r["class"]): float(r["shap_raw"])
                    for r in _rows(out / "importance.csv")}
            for label, out in outs.items()}
    (a, sa), (b, sb) = shap.items()
    if sa.keys() != sb.keys():
        lines = ["importance.csv: the trees score different features or classes"]
    else:
        delta = max(abs(sa[key] - sb[key]) for key in sa)
        lines = [f"largest |delta shap_raw|: {delta:.3g}"]
    # class -> (feature, modality) of its largest shap_raw; the first row wins a tie
    tops = {label: {cls: max((key for key in values if key[2] == cls), key=values.get)[:2]
                    for cls in dict.fromkeys(key[2] for key in values)}
            for label, values in shap.items()}
    moved = [f"{cls} {tops[a][cls]} -> {tops[b].get(cls)}"
             for cls in tops[a] if tops[a][cls] != tops[b].get(cls)]
    lines.append("top feature moved: " + "; ".join(moved) if moved
                 else "every class keeps its top feature")
    for label, out in outs.items():
        metrics = ", ".join(f"{r['metric']} {r['value']}" for r in _rows(out / "eval.csv"))
        lines.append(f"{label} eval: {metrics}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="LABEL=SRC: a src/ directory to run; give exactly two")
    parser.add_argument("--seeds", default="7", help="comma-separated seeds (default 7)")
    args = parser.parse_args(argv)
    trees = parse_trees(parser, args.tree)
    if len(args.tree) != 2 or len(trees) != 2:
        parser.error("give exactly two --tree entries with different labels")
    seeds = [int(s) for s in args.seeds.split(",")]

    differ = False
    with tempfile.TemporaryDirectory(prefix="g2i-bytes-") as work:
        for name in CHECKED_WORKLOADS:
            for seed in seeds:
                hashes = {}
                for label, src in trees.items():
                    try:
                        hashes[label] = artifacts(src, WORKLOADS[name], seed,
                                                  Path(work) / f"{name}-{seed}-{label}")
                    except RuntimeError as exc:
                        print(f"{name} seed {seed} {label}: {exc}")
                        hashes[label] = {}
                        differ = True
                (a, ha), (b, hb) = hashes.items()
                changed = sorted(f for f in ha.keys() | hb.keys() if ha.get(f) != hb.get(f))
                print(f"{name} seed {seed}: files {a} {len(ha)}, {b} {len(hb)}; "
                      f"{len(changed)} differ")
                for f in changed:
                    print(f"  {f}: {a} {ha.get(f, 'missing')}, {b} {hb.get(f, 'missing')}")
                differ = differ or bool(changed)
                if (all(hashes.values()) and
                        {"out/importance.csv", "out/eval.csv"} & set(changed)):
                    outs = {label: Path(work) / f"{name}-{seed}-{label}" / "out"
                            for label in trees}
                    for line in drift_report(outs):
                        print(f"  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
