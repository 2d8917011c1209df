"""Run the lcs-enum benchmark on one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn. With ``--trace 0`` the run measures the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it runs the traced stream and
reports the per-layer metrics. A readable report goes to stderr. The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out`` appends the full record (metrics,
quartiles, digest, environment) as one JSON line, the input of
``compare.py``.

Exit codes: 0 all checks passed, 1 an output check failed, 2 the checkout
holds no lcs_enum sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _environment(seed: int) -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "load_before": os.getloadavg(), "seed": seed,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _report(name: str, record: dict) -> None:
    env = record["env"]
    print(f"== {name}  seed {env['seed']}  trace {record['trace']}  "
          f"python {env['python']}  nproc {env['nproc']}  load "
          f"{env['load_before'][0]:.2f} -> {env['load_after'][0]:.2f}  "
          f"sha {env['git_sha'] or 'unknown'}", file=sys.stderr)
    for metric, entry in record["metrics"].items():
        print(f"   {metric:<42} {entry['value']:>16.6g} {entry['unit']}",
              file=sys.stderr)
    print(f"   {'failed_frac':<42} {record['failed_frac']:>16.6g} ratio "
          f"({record['failed']}/{record['attempted']})", file=sys.stderr)
    details = record["details"]
    if "gap_ms_tail_percentile" in details:
        print(f"   gap_ms_tail is p{details['gap_ms_tail_percentile']:g} of "
              f"{details['gap_samples']} gaps; stream digest "
              f"{details.get('digest', '-')[:16]}", file=sys.stderr)
    for note in details.get("pin_notes", []):
        print(f"   note: {note}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"   FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "lcs_enum" / "__init__.py").is_file():
        print(f"perfbench: no lcs_enum sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import tracing
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the full record as a JSON line")
    args = parser.parse_args(argv)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    pins = measure.load_pins()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in names:
            env = _environment(args.seed)
            ctx = measure.Context(ROOT, workdir)
            if args.trace:
                values, details, tally = tracing.trace(
                    WORKLOADS[name], args.seed, args.seconds, ctx)
            else:
                values, details, tally = measure.measure(
                    WORKLOADS[name], args.seed, args.seconds, ctx, pins)
            env["load_after"] = os.getloadavg()
            missing = [m for m in units if m not in values]
            if missing and not tally.failed:
                tally.fail(f"no value measured for {', '.join(missing)}")
            metrics = {m: {"value": values[m], "unit": units[m]}
                       for m in units if m in values}
            record = {"workload": name, "trace": args.trace,
                      "seconds": args.seconds, "env": env,
                      "correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "failed_frac": tally.failed / max(tally.attempted, 1),
                      "metrics": metrics, "details": details,
                      "problems": tally.problems}
            _report(name, record)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            summary["correct"] &= record["correct"]
            summary["attempted"] += tally.attempted
            summary["failed"] += tally.failed
            prefix = f"{name}/" if len(names) > 1 else ""
            summary["metrics"].update(
                {prefix + m: entry for m, entry in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
