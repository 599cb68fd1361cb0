"""The Lemma-1 campaign gives the same report in process and in forked shards.

The reference is the in-process campaign, one shard; two and three shards
must give the same report. The shard count is forced through the private
``_shard_count`` helper; nothing else changes.
Forked shards must be gone when a campaign returns or raises, running or
zombie, and a shard's exception, floating-point ones included, must reach
the caller. A shard killed by a signal is an error, not a wait, and the
campaign keeps no more than one evaluation chunk of the instances it draws.
"""

import functools
import gc
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitsim.harness
from splitsim import cli
from splitsim.harness import lemma1_campaign


def _assert_no_child():
    """This process has no child left, running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _campaign_json(monkeypatch, n_instances, seed, shards):
    with monkeypatch.context() as mp:
        mp.setattr(splitsim.harness, "_shard_count", lambda n: shards)
        return lemma1_campaign(n_instances, seed).to_json()


@functools.lru_cache(maxsize=None)
def _in_process(n_instances, seed):
    with pytest.MonkeyPatch.context() as mp:
        return _campaign_json(mp, n_instances, seed, 1)


@pytest.mark.parametrize("n_instances", [1, 25, 26, 251, 1000])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharding_changes_no_byte(monkeypatch, n_instances, shards):
    doc = _campaign_json(monkeypatch, n_instances, 3, shards)
    assert doc == _in_process(n_instances, 3)
    _assert_no_child()


def test_violations_stay_in_index_order(monkeypatch):
    monkeypatch.setattr(splitsim.harness, "DOMINANCE_SLACK", -10.0)
    sharded = _campaign_json(monkeypatch, 60, 4, 3)
    reference = _campaign_json(monkeypatch, 60, 4, 1)
    assert [v["index"] for v in sharded["violations"]] == list(range(60))
    assert sharded == reference


def test_shard_count_follows_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    counts = {n: splitsim.harness._shard_count(n) for n in (1, 249, 499, 500, 999, 1000, 10**6)}
    assert counts == {1: 1, 249: 1, 499: 1, 500: 2, 999: 3, 1000: 4, 10**6: 8}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert splitsim.harness._shard_count(10**6) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # no CPU affinity: in process
    assert splitsim.harness._shard_count(10**6) == 1


def _raise_in(where, exc_factory):
    """Stacked Lemma-1 kernel that fails in the caller (``where == "caller"``)
    or in every forked worker, and works elsewhere."""
    real, caller = splitsim.harness._lemma1_reports, os.getpid()

    def report(*args, **kwargs):
        if (os.getpid() == caller) == (where == "caller"):
            exc_factory()
        return real(*args, **kwargs)

    return report


def _value_error():
    raise ValueError("shard failed")


def _overflow():
    np.float64(1e308) * np.float64(10.0)


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_shard_error_reaches_the_caller(monkeypatch, where):
    monkeypatch.setattr(splitsim.harness, "_shard_count", lambda n: 2)
    monkeypatch.setattr(splitsim.harness, "_lemma1_reports", _raise_in(where, _value_error))
    with pytest.raises(ValueError, match="shard failed"):
        lemma1_campaign(26, 0)
    _assert_no_child()


def test_failed_fork_reaches_the_caller(monkeypatch):
    def fork():
        raise OSError("no process left")

    monkeypatch.setattr(splitsim.harness, "_shard_count", lambda n: 2)
    monkeypatch.setattr(splitsim.harness.os, "fork", fork)
    with pytest.raises(OSError, match="no process left"):
        lemma1_campaign(26, 0)
    _assert_no_child()


def test_worker_runs_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(splitsim.harness, "_shard_count", lambda n: 2)
    monkeypatch.setattr(splitsim.harness, "_lemma1_reports", _raise_in("worker", _overflow))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            lemma1_campaign(26, 0)
    _assert_no_child()


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def alarm():
    """Fails the test after 20 s instead of letting a waiting campaign hang."""

    def expire(signum, frame):
        pytest.fail("the campaign was still waiting after 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_killed_shard_is_an_error_not_a_wait(monkeypatch, capsys, tmp_path, alarm):
    monkeypatch.setattr(splitsim.harness, "_shard_count", lambda n: 2)
    monkeypatch.setattr(splitsim.harness, "_lemma1_reports", _raise_in("worker", _sigkill_self))
    with pytest.raises(ChildProcessError, match="instance 13 was killed by SIGKILL"):
        lemma1_campaign(26, 0)
    _assert_no_child()

    out = tmp_path / "campaign.json"
    argv = ["bound-check", "--instances", "26", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SIGKILL" in err
    assert "Traceback" not in err
    assert not out.exists()
    _assert_no_child()


@pytest.mark.parametrize("n_instances", [2000, 5000])
def test_campaign_keeps_no_drawn_instance(monkeypatch, n_instances):
    live = []

    def evaluate(d, insts):
        if insts[-1].index == n_instances - 1:
            objects = gc.get_objects()
            live.append(sum(isinstance(o, splitsim.harness._Instance) for o in objects))
        return [], 0, 0.5, 1.0, 1.0

    monkeypatch.setattr(splitsim.harness, "_shard_count", lambda n: 1)
    monkeypatch.setattr(splitsim.harness, "_evaluate_dimension", evaluate)
    assert lemma1_campaign(n_instances, 0).best_observed_over_bound == 0.5
    # The last chunk alone, as large at 5000 instances as at 2000.
    assert live == [splitsim.harness._CHUNK_INSTANCES]


def test_cli_import_leaves_multiprocessing_out():
    src = Path(splitsim.harness.__file__).resolve().parents[1]
    code = "import sys, splitsim.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout.strip() == "False", done.stderr
