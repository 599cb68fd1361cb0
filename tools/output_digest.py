#!/usr/bin/env python3
"""One SHA-256 per benchmark CLI call, to compare the outputs of two trees.

Runs every call of the four ``perfbench/workloads.py`` workloads at full size
for each of the seeds 1-3, in process, with one BLAS thread, and prints one
line per call: workload, seed, call index, subcommand and the SHA-256 of its
exit code, stdout, stderr and the bytes of each file it writes. The work directory's
path is replaced by a placeholder before hashing, so two runs agree exactly
when their outputs do.

    python3 tools/output_digest.py --src src > head.txt
    python3 tools/output_digest.py --src ../base/src > base.txt
    diff base.txt head.txt

The inputs always come from this tree's ``perfbench/``, which is read only;
``--src`` picks the ``splitsim`` package under test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _digest(cli, call, work: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(call.argv))
        except Exception as exc:  # a traceback is an output like any other
            rc = f"exception {type(exc).__name__}: {exc}"
    files = {}
    for path in call.outputs:
        p = Path(path)
        files[str(p.relative_to(work))] = (
            hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
        )
    record = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
    text = json.dumps(record, sort_keys=True).replace(str(work), "<work>")
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding splitsim/")
    args = ap.parse_args(argv)

    # Before numpy is first imported, so the BLAS library starts with one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave perfbench/ and --src as they are
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import splitsim.cli as cli
    import workloads

    if Path(cli.__file__).resolve().parent != src / "splitsim":
        print(f"imported splitsim from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                for i, call in enumerate(workloads.build(name, seed, "full", work)):
                    print(f"{name} seed={seed} call={i} {call.argv[0]} {_digest(cli, call, work)}",
                          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
