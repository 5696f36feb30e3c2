"""Run the bpc benchmark.

    python3 benchmarks/run.py --workload fill --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --quick

Each workload issues a fixed list of answers (``bpc`` subcommands run
in-process, see bpcbench.py) in an order drawn from ``--seed``, repeats
the whole list while another pass fits in ``--seconds``, and checks
every answer against benchmarks/expected.json.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it first times
untraced passes for half the budget, then traced ones, and reports the
per-layer metrics (per pass) and the tracing overhead.  Times are
scaled to a reference machine speed measured by a calibration probe
(see bpcbench.py); the report prints the measured ones beside them.
The last line
of stdout is the result object; the lines before it are a readable
report and the environment record.  ``--workload all`` runs each
workload in its own process, one after the other.
"""

import argparse
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import bpcbench

SPANS_DIR = bpcbench.ROOT / ".bench_out"


def _report(result, details):
    lines = [f"workload {details['workload']} seed {details['seed']}: "
             f"{details['answers']} answers x {details['passes']} passes"]
    for name, m in result["metrics"].items():
        measured = details["measured"].get(name, (None, ""))[0]
        raw = f" (measured {measured:.6g} s)" if m["unit"] == "s" and measured else ""
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}{raw}")
    a, f = result["attempted"], result["failed"]
    lines.append(f"  fail_frac {f}/{a} = {f / a:.4g} (answers that raised or failed a check)")
    if "answer_s.p85" in result["metrics"]:
        k = details["answers"]
        lines.append(f"  answer_s: {k} samples, each answer's median over {details['passes']} passes;"
                     f" {0.15 * (k - 1):.3g} lie beyond p85")
    known = sorted({i for i, _ in details["failures"]} - set(details["unexpected"]))
    if known:
        lines.append(f"  known defects failing: {', '.join(known)}")
    if details["unexpected"]:
        lines.append(f"  UNEXPECTED failures: {', '.join(details['unexpected'])}")
    return "\n".join(lines)


def _write_spans(details):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{details['workload']}-seed{details['seed']}.json"
    path.write_text(json.dumps([asdict(s) for s in details["spans"]]))
    return path


def _run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    code = 0
    for name in bpcbench.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bpcbench.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="only the smallest n of each part of each workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        result, details = bpcbench.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except (ImportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for answer_id, problems in dict(details["failures"]).items():
        print(f"{answer_id}: {'; '.join(problems)}", file=sys.stderr)
    print(_report(result, details))
    if args.trace:
        print(f"spans: {_write_spans(details)}")
    print(json.dumps({"env": details["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
