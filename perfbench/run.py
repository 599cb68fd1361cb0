#!/usr/bin/env python3
"""splitsim benchmark: the package's CLI timed end to end, and traced per module.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-randomized --seed 1 --seconds 25 --trace 0

Each run makes the workload's inputs from ``--seed``, then starts worker
processes one after another until ``--seconds`` have passed (at least two).
Each worker imports ``splitsim.cli`` and runs one pass: the workload's CLI
calls back to back, in process, as a CLI user gets them in a fresh process.
A worker's time from start to imported ``splitsim.cli`` is one set-up sample
and its pass time one wall-time sample. Every call's output is checked
against its oracle and must be byte-identical in every worker.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one worker
that alternates untraced and traced passes for ``--seconds`` (at least two
of each) and prints the per-layer metrics, writing every span to
``.bench_out/``. ``--seconds 0`` gives the fewest passes.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 once that line is printed, and 2 if the run
could not be made (for example, no ``src/splitsim`` under the current
directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_WORKERS = 2
# Generous ceiling on one worker beyond its measuring time; a worker that
# overruns it is killed and the run fails.
WORKER_GRACE_S = 150


def _child_env() -> dict:
    """The worker's environment: BLAS threads pinned to the usable cores."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _provenance(root: Path, src: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((src / "splitsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def _quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _grade(calls: list, passes: list, outputs: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems). A call fails if it exits non-zero, its
    output misses the oracle, or its bytes differ from the first pass."""
    verdicts: dict = {}
    attempted = failed = 0
    problems = []
    for p, rows in enumerate(passes):
        for i, row in enumerate(rows):
            attempted += 1
            why = []
            if row["rc"] != 0:
                why.append(f"exit {row['rc']}: {outputs[row['digest']]['stderr'].strip()[-300:]}")
            if row["digest"] != passes[0][i]["digest"]:
                why.append("output bytes differ from the first pass")
            if row["digest"] not in verdicts:
                try:
                    verdicts[row["digest"]] = calls[i].check(outputs[row["digest"]])
                except (KeyError, TypeError, ValueError) as exc:
                    verdicts[row["digest"]] = [f"unreadable output: {exc!r}"]
            why += verdicts[row["digest"]]
            if why:
                failed += 1
                problems.append(f"pass {p} call {i} ({calls[i].argv[0]}): " + "; ".join(why))
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "splitsim" / "cli.py").is_file():
        print(f"no splitsim package under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = root / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        calls = workloads.build(args.workload, args.seed, args.size, work.relative_to(root))
        env = _child_env()
        plan = {
            "calls": [{"argv": c.argv, "outputs": c.outputs} for c in calls],
            "seconds": args.seconds if args.trace else 0,
            "min_passes": 4 if args.trace else 1,
            "trace": bool(args.trace),
            "spans": str(out_dir / f"spans-{tag}.jsonl"),
        }
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup, results = [], []
        start = time.perf_counter()
        while True:
            spawned = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--src", str(src),
                 "--plan", str(plan_path), "--result", str(result_path)],
                cwd=root, env=env, check=True, stdout=sys.stderr,
                timeout=plan["seconds"] + WORKER_GRACE_S,
            )
            results.append(json.loads(result_path.read_text(encoding="utf-8")))
            setup.append(results[-1]["ready_at"] - spawned)
            # Start another worker only if it should end within the time given.
            now = time.perf_counter()
            if args.trace or (len(results) >= MIN_WORKERS
                              and now - start + (now - spawned) > args.seconds):
                break
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [rows for r in results for rows in r["passes"]]
    outputs = {k: v for r in results for k, v in r["outputs"].items()}
    attempted, failed, problems = _grade(calls, passes, outputs)
    untraced = [t for r in results for t in r["untraced_s"]]
    first = results[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        **_provenance(root, src),
        **first["versions"],
        "blas_threads_requested": env["OPENBLAS_NUM_THREADS"],
        "calls": [list(c.argv) for c in calls],
        "call_median_s": [
            statistics.median(rows[i]["seconds"] for rows in passes)
            for i in range(len(calls))
        ],
        "problems": problems,
    }
    if args.trace:
        metrics, not_applicable, trace_problems = spans.layer_metrics(
            first["summaries"], untraced, first["traced_s"])
        problems += trace_problems
        record.update(untraced_wall_s=_quartiles(untraced),
                      traced_wall_s=_quartiles(first["traced_s"]),
                      not_applicable=not_applicable, summaries=first["summaries"],
                      spans_file=plan["spans"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in results) / 1024.0,
                            "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        record.update(setup_s=_quartiles(setup), wall_s=_quartiles(untraced),
                      setup_samples_s=setup, pass_s=untraced, failed_frac=failed / attempted)
    record["metrics"] = metrics
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("provenance: " + json.dumps(
        {k: record[k] for k in ("workload", "seed", "git_commit", "src_sha256", "python",
                                "numpy", "blas", "nproc", "blas_threads")}))
    if args.trace:
        print(f"not applicable on {args.workload}: {', '.join(not_applicable) or 'none'}")
    else:
        w = record["wall_s"]
        print(f"wall_s quartiles: q1={w['q1']:.4f} median={w['median']:.4f} "
              f"q3={w['q3']:.4f} n={w['n']}; failed_frac={record['failed_frac']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
