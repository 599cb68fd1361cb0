#!/usr/bin/env python3
"""One SHA-256 per CLI call, to compare the outputs of two trees.

Runs every call of the four ``perfbench/workloads.py`` workloads at full size
for each of the seeds 1-3, then the calls of ``EXTRA_CALLS``: four scaling
configs that the benchmark leaves out, three Lemma-1 campaigns and two
Lemma-2 searches. All run in process, with one BLAS thread unless the
caller sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``. It prints one line per call: its name, its subcommand
and the SHA-256 of its exit code, stdout, stderr and the bytes of each file
it writes. The work directory's path is replaced by a placeholder before
hashing, so two runs agree exactly when their outputs do.

    python3 tools/output_digest.py --src src > head.txt
    python3 tools/output_digest.py --src ../base/src > base.txt
    diff base.txt head.txt
    OPENBLAS_NUM_THREADS=2 python3 tools/output_digest.py --src src | diff head.txt -
    taskset -c 0 python3 tools/output_digest.py --src src | diff head.txt -

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
# Name, then a scaling config or the arguments of a call before ``--out``.
# The scaling configs are the README example, list-form t_values with a
# couplings object and a k_cap that leaves failures, mapping-form t_values
# with a panel_size, and the 3-qubit default grids. Only the 2,500-instance
# campaign has shards longer than one evaluation chunk, so its shards cross
# chunk boundaries. Run under ``taskset -c 0``, every campaign stays in
# process, so comparing with a run on more cores compares with the shards.
EXTRA_CALLS = (
    ("scaling-readme", {"schemes": ["strang", "alg2"], "fixed_eps": 1e-4, "fixed_t": 1.0}),
    ("scaling-list", {
        "schemes": ["trotter", "alg2"], "t_values": [0.25, 0.5, 1.0],
        "eps_values": [1e-2, 1e-3, 1e-4], "fixed_eps": 1e-3,
        "couplings": {"jx": 0.8, "jz": 1.1, "hx": 0.6}, "k_cap": 256, "n_qubits": 3,
    }),
    ("scaling-mapping", {
        "schemes": ["strang", "alg1"],
        "t_values": {"strang": [2.0, 4.0, 8.0], "alg1": [0.5, 1.0, 2.0]},
        "eps_values": [1e-3, 1e-4], "panel_size": 8, "seed": 3, "n_qubits": 2,
    }),
    ("scaling-3-qubits", {"n_qubits": 3}),
    ("bound-check-300", ["bound-check", "--instances", "300", "--seed", "5"]),
    ("bound-check-1000", ["bound-check", "--instances", "1000", "--seed", "5"]),
    ("bound-check-2500", ["bound-check", "--instances", "2500", "--seed", "11"]),
    ("verify-lemma2-33", ["verify-lemma2", "--n", "33"]),
    ("verify-lemma2-64", ["verify-lemma2", "--n", "64"]),
)


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


def _extra_call(workloads, spec, work: Path):
    """The CLI call of one ``EXTRA_CALLS`` entry, its inputs written to ``work``."""
    out = str(work / "out.json")
    if isinstance(spec, dict):
        config = work / "scaling.json"
        config.write_text(json.dumps(spec))
        argv = ("scaling", "--config", str(config), "--out", out)
    else:
        argv = (*spec, "--out", out)
    return workloads.Call(argv, (out,), check=None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding splitsim/")
    args = ap.parse_args(argv)

    # Before numpy is first imported, so the BLAS library starts with one
    # thread unless the caller asked for another count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
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
    for name, spec in EXTRA_CALLS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            call = _extra_call(workloads, spec, work)
            print(f"{name} {call.argv[0]} {_digest(cli, call, work)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
