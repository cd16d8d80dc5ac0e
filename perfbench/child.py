"""One fresh g2i process of the benchmark, driven by ``run.py``.

  python3 perfbench/child.py '<json spec>'

The spec's ``mode`` is ``setup`` (import g2i and write a workload's inputs
with ``g2i synth``) or ``run`` (``g2i run`` on those inputs, optionally
traced). A run writes its result as JSON to ``spec["result"]``: exit code,
wall and CPU time of ``g2i run``, peak RSS, the artifact paths that
``cli._paths`` names, and the spans when traced.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _artifacts(cli, argv):
    """Every artifact path the run's config names, by name."""
    cfg = cli.build_config(cli.make_parser().parse_args(argv))
    paths = {name: str(path) for name, path in cli._paths(cfg).items()}
    for name in ["features", *sorted(cfg.modalities)]:
        paths[f"feature_layout_{name}"] = str(cli._f_layout_path(cfg, name))
    return paths


def main(spec):
    sys.path.insert(0, spec["src"])
    from g2i import cli

    command = {"setup": "synth", "run": "run"}[spec["mode"]]
    argv = [command, "--out", spec["out"], "--seed", str(spec["seed"]), *spec["flags"]]
    if spec["mode"] == "setup":
        return cli.main(argv)

    inputs = Path(spec["inputs"])
    argv += ["--edges", str(inputs / "edges.tsv"), "--features", str(inputs / "features.csv"),
             "--labels", str(inputs / "labels.csv")]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    wall, cpu = time.perf_counter(), time.process_time()
    rc = cli.main(argv)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    result = {
        "rc": rc,
        "run_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts": _artifacts(cli, argv),
        "spans": tracer.spans if tracer else None,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
