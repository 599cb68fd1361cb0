"""Child process of the splitsim benchmark.

Imports ``splitsim.cli`` from the checkout's ``src`` and runs a plan of CLI
calls in process, as back-to-back passes (one client, closed loop); a pass is
one round of the calls. The parent (``run.py``) starts it and reads its
result file.

    python3 perfbench/worker.py --src SRC --plan PLAN --result RESULT

Plan keys: ``calls`` (each ``argv`` and the ``outputs`` files it writes),
``seconds``, ``min_passes``, ``trace`` and ``spans``. The result records
``ready_at``, the ``time.perf_counter()`` reading once ``splitsim.cli`` is
imported. On Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the parent can subtract its own reading taken before the start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_call(cli, call: dict) -> tuple[object, float, str, dict]:
    """One CLI call; returns (exit code, seconds, output digest, outputs)."""
    for path in call["outputs"]:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(call["argv"]))
        except Exception:  # a traceback is a failed call, not a failed run
            rc = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    outputs = {"stdout": out.getvalue(), "files": {}}
    for path in call["outputs"]:
        p = Path(path)
        outputs["files"][path] = p.read_text(encoding="utf-8") if p.is_file() else None
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    outputs["stderr"] = err.getvalue()
    return rc, seconds, digest, outputs


def _blas_threads():
    """Threads OpenBLAS uses, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import splitsim.cli

    ready_at = time.perf_counter()
    if Path(splitsim.cli.__file__).resolve().parent != src / "splitsim":
        print(f"imported splitsim from {splitsim.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    calls = plan["calls"]
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()

    passes, outputs = [], {}
    untraced_s, traced_s, summaries = [], [], []
    start = time.perf_counter()
    while True:
        # Trace mode alternates untraced and traced passes; the first pass is
        # always untraced and is the reference for the output bytes.
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            lo = len(tracer)
            tracer.install()
        rows, wall = [], 0.0
        pass_start = time.perf_counter()
        try:
            for i, call in enumerate(calls):
                if traced:
                    tracer.item_id = len(passes) * len(calls) + i
                rc, seconds, digest, out = _run_call(splitsim.cli, call)
                wall += seconds
                rows.append({"rc": rc, "seconds": seconds, "digest": digest})
                outputs.setdefault(digest, out)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            summaries.append(tracer.pass_summary(lo))
            traced_s.append(wall)
        else:
            untraced_s.append(wall)
        passes.append(rows)
        # Start another step (a pass, or an untraced and traced pair) only if
        # it should end within the time given, judged by the last pass.
        now = time.perf_counter()
        step = 1 if tracer is None else 2
        late = now - start + step * (now - pass_start) > plan["seconds"]
        if late and len(passes) >= plan["min_passes"] and len(passes) % step == 0:
            break

    if tracer is not None:
        tracer.write_jsonl(plan["spans"])
    result = {
        "ready_at": ready_at,
        "passes": passes,
        "outputs": outputs,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "summaries": summaries,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": _versions(),
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
