"""Process plumbing: forked passes, store servers, and reaping everything.

Every process the benchmark starts is tracked here and stopped before the
run ends, whether the run succeeds, fails or is interrupted:

* passes run in a child forked from the benchmark process after its imports, so each
  pass starts from the same clean interpreter state (no interned terms, no
  SFA compile cache, no alphabet memo) without paying for a fresh
  interpreter; the child leads its own process group, so any worker it
  forks is killed with it;
* store servers are ``repro store serve`` subprocesses, started one at a
  time and waited on through ``--ready-file`` plus a handshake;
* the benchmark process makes itself a child subreaper, so an orphaned grandchild (a
  worker whose pass died) is re-parented to it and can be found, killed and
  reaped by :func:`reap_strays`.
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

_PR_SET_CHILD_SUBREAPER = 36


class PassFailed(RuntimeError):
    """A forked pass crashed, timed out or reported an exception."""


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux); a no-op where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                          ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's reaped descendants, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_forked(fn: Callable[[], object], timeout: float) -> object:
    """Run ``fn`` in a forked child; return its JSON-able result.

    The child leads a new process group; after it ends (or is killed on
    timeout) the whole group is killed and reaped, so nothing it forked can
    outlive the pass.  Raises :class:`PassFailed` on any failure.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        payload = b""
        try:
            os.setpgid(0, 0)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            payload = json.dumps({"result": fn()}).encode()
        except BaseException:  # report every failure to the parent, then exit
            payload = json.dumps({"error": traceback.format_exc()}).encode()
        finally:
            try:
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
            finally:
                os._exit(0)
    os.close(write_fd)
    chunks: list[bytes] = []
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    timed_out = True
                    break
                ready, _, _ = select.select([pipe], [], [], left)
                if not ready:
                    continue
                chunk = pipe.read(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        _kill_group(pid)
    if timed_out:
        raise PassFailed(f"pass timed out after {timeout:.0f}s")
    try:
        message = json.loads(b"".join(chunks) or b"{}")
    except ValueError as exc:
        raise PassFailed(f"pass sent an unreadable result: {exc}") from None
    if "error" in message:
        raise PassFailed(message["error"])
    if "result" not in message:
        raise PassFailed("pass died without a result")
    return message["result"]


def _kill_group(pid: int) -> None:
    """Kill a pass's process group and reap every member that is ours."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-pid, 0)
        except ChildProcessError:
            return


def live_children() -> list[int]:
    """Pids whose parent is this process (Linux ``/proc`` scan)."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry.name))
    return found


def reap_strays() -> int:
    """Kill and reap every remaining child; returns how many there were."""
    strays = live_children()
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in strays:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return len(strays)


class StoreServer:
    """One ``repro store serve`` subprocess wrapping a fresh local store."""

    def __init__(self, root: Path, store_dir: Path, env: dict) -> None:
        self.store_dir = store_dir
        self.ready_file = store_dir.with_suffix(".ready")
        self.log_path = store_dir.with_suffix(".log")
        self.url = ""
        self.identity: dict = {}
        self.start_seconds = 0.0
        self.ready_file.unlink(missing_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "store", "serve",
                 "--store", str(store_dir), "--host", "127.0.0.1", "--port", "0",
                 "--ready-file", str(self.ready_file)],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        try:
            self.url, self.identity = self._wait_ready(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.start_seconds = time.perf_counter() - started

    def _wait_ready(self, timeout: float) -> tuple[str, dict]:
        from repro.store.remote import RemoteStoreBackend

        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"store server exited with {self.process.returncode}: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}"
                )
            text = self.ready_file.read_text() if self.ready_file.exists() else ""
            if text.endswith("\n"):
                break
            if time.monotonic() > deadline:
                raise RuntimeError("store server did not become ready")
            time.sleep(0.002)
        url = text.strip()
        backend = RemoteStoreBackend(url)
        try:
            return url, backend.handshake()
        finally:
            backend.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
