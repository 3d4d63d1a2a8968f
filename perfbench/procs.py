"""Child processes that are always stopped: each runs in its own process
group, and the group is killed on timeout or when this process is told to
stop (SIGTERM), so CLI processes and their shard workers never outlive a run.
"""

import os
import signal
import subprocess
import time

_active = set()  # process groups started here and not yet reaped


def _kill_group(pgid):
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.5)


def _on_sigterm(signum, frame):
    for pgid in list(_active):
        _kill_group(pgid)
    raise SystemExit(128 + signum)


def stop_children_on_sigterm():
    signal.signal(signal.SIGTERM, _on_sigterm)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in a new process group and wait for it; on timeout kill the
    group.  Returns (exit code, or None on timeout; stderr bytes)."""
    with subprocess.Popen(cmd, stderr=subprocess.PIPE, start_new_session=True,
                          **kwargs) as proc:
        _active.add(proc.pid)
        try:
            _, stderr = proc.communicate(timeout=timeout)
            return proc.returncode, stderr
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            _, stderr = proc.communicate()
            return None, stderr
        finally:
            _active.discard(proc.pid)
