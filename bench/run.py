"""evicalc benchmark: one workload per run, every metric by name and unit.

    python3 bench/run.py --workload cli_golden|kb_fold|monotone_survey \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it needs nothing installed beyond what
the test suite needs.  Each workload runs in fresh interpreters
(worker.py): several that only set up, for the set-up time, and one that
also runs the timed loop.  With ``--trace 1`` the worker records spans per
layer instead (tracing.py) and the end-to-end metrics are not reported.
The last line of output is one JSON object; README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_golden", "kb_fold", "monotone_survey")
SETUP_SAMPLES = 5  # set-up time is the median of this many fresh starts
IMPORT_SAMPLES = 5


def worker(args, setup_only: bool) -> tuple[float, dict | None]:
    """Start worker.py; returns (seconds to its "ready" line, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(150, proc.kill)  # a stuck worker ends the run
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"{args.workload}: worker failed (exit {proc.returncode})")
    return setup, None if setup_only else json.loads(rest.splitlines()[-1])


def end_to_end(args) -> dict:
    setups = [worker(args, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, result = worker(args, setup_only=False)
    setups.append(setup)
    op_s, ref_s = result["op_s"], result["ref_s"]
    if not op_s:
        sys.exit(f"{args.workload}: no op succeeded")
    ratios = [o / r for o, r in zip(op_s, ref_s)]
    metrics = {
        "op_ref_p50": (statistics.median(ratios), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    # Shown, not recorded: wall-clock op times follow the machine's drift
    # in speed (README.md, "Steadiness"), and the 90th percentile needs ten
    # samples beyond it, which not every workload reaches in a run.
    print(f"op_ms_p50: {statistics.median(op_s) * 1000:.3f} ms")
    if len(op_s) >= 100:
        print(f"op_ms_p90: {statistics.quantiles(op_s, n=10)[-1] * 1000:.3f} ms")
    print(f"ops_per_s: {len(op_s) / sum(op_s):.4f} 1/s")
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return result


def import_ms(env: dict) -> tuple[float, float]:
    """(whole import, third-party share) of `import evicalc.cli`, in ms,
    from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import evicalc.cli"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    rows = []  # (depth, top-level package, cumulative us)
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip().split(".")[0], int(parts[1])))

    def third_party(top: str) -> bool:
        return top != "evicalc" and top not in sys.stdlib_module_names

    total = deps = 0
    tree: list[tuple[int, str, int]] = []
    for row in rows:  # children come before the module importing them
        if row[0] > 0:
            tree.append(row)
            continue
        if row[1] == "evicalc":
            total += row[2]
            for k, (depth, top, cum) in enumerate(tree):
                parent = next((r for r in tree[k + 1:] if r[0] == depth - 1),
                              row)
                if third_party(top) and not third_party(parent[1]):
                    deps += cum
        tree = []
    return total / 1000, deps / 1000


def start_metrics() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    imports = [import_ms(env) for _ in range(IMPORT_SAMPLES)]
    bare = []
    for _ in range(IMPORT_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append((perf_counter() - start) * 1000)
    return {
        "cli.import_ms": {"value": statistics.median(i for i, _ in imports),
                          "unit": "ms"},
        "cli.import_deps_ms": {
            "value": statistics.median(d for _, d in imports), "unit": "ms"},
        "cli.bare_start_ms": {"value": statistics.median(bare), "unit": "ms"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("src/evicalc/__init__.py", "tests/oracles.py",
                   "tests/golden", "scripts/golden_tables.sh"):
        if not (ROOT / needed).exists():
            print(f"error: {needed} is missing; run from an evicalc checkout",
                  file=sys.stderr)
            return 2
    (BENCH / "out").mkdir(exist_ok=True)

    if args.trace:
        _, result = worker(args, setup_only=False)
        result["metrics"] = {**result.pop("layers"), **start_metrics()}
    else:
        result = end_to_end(args)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"attempted: {result['attempted']}  failed: {result['failed']}  "
          f"correct: {str(result['correct']).lower()}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
