"""Benchmark entry point: measure one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's ``src`` directory and writes its outputs
under ``.bench_out/`` at the checkout root. The measurement runs in one
child process (worker.py), so that peak_rss_mb is the peak resident
memory of a process that ran this workload and nothing else. The last
line of standard output is the result JSON: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run, each with the unit BENCHMARK.json gives it. See README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "richardsfv").is_dir():
        print(f"error: no richardsfv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # one directory per workload: each run overwrites the solver outputs
    out = ROOT / ".bench_out" / args.workload
    env = dict(os.environ)
    env.pop("RICHARDS_THREADS", None)  # sweeps only; keep the default 1
    # one BLAS thread: the measurement is one thread of one process, so
    # it does not depend on how the host schedules a second CPU
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: measurement exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1] if done.returncode == 0 else lines))
    if done.returncode != 0 or not lines:
        return done.returncode or 1

    result = json.loads(lines[-1])
    values = result.pop("values")
    if not args.trace:
        # ru_maxrss is in KiB on Linux: the largest of the waited-for
        # children, which is the worker
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values["peak_rss_mb"] = peak / 1024
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
