"""Slow-oracle reference digests, computed outside the timed region.

:class:`RefPool` starts two worker processes (one per core) running
this file.  Each worker optionally performs the full sim-grid set-up
first and times it (these are set-up repetitions for the ``setup_s``
median), then answers requests on stdin, one JSON line each::

    {"items": [[id, workload, bar, machine], ...]}

by simulating every item with the slow per-op oracle
(``fast_path=False``) and writing ``{"digests": {id: sha256}}`` on
stdout.  Workers keep their compiled workloads between requests, so a
run can check its timed rounds one by one at little extra cost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Sequence

import lib

#: Two workers: one per core of the machine the benchmark is sized for.
WORKERS = 2

#: Longest wait for one answer; the slow oracle runs at ~0.4 s a point.
TIMEOUT_S = 150.0


def split(items: Sequence[Sequence]) -> List[List]:
    """Deal items to one list per worker, keeping each workload on one list
    (a worker compiles only the workloads it simulates), balancing
    item counts greedily, largest workload first."""
    by_workload: Dict[str, List] = {}
    for item in items:
        by_workload.setdefault(item[1], []).append(item)
    shares: List[List] = [[] for _ in range(WORKERS)]
    for group in sorted(by_workload.values(), key=lambda g: (-len(g), g[0][1])):
        min(shares, key=len).extend(group)
    return shares


class RefPool:
    """Two reference workers; :meth:`close` ends them.

    With ``setup``, each worker times one full sim-grid set-up before
    it answers; the seconds are in :attr:`setup_s`.
    """

    def __init__(self, work: str, env: Dict[str, str], setup: bool = False):
        argv = [sys.executable, os.path.abspath(__file__)]
        if setup:
            argv.append("--setup")
        self.procs: List[subprocess.Popen] = []
        self.setup_s: List[float] = []
        try:
            for index in range(WORKERS):
                with open(os.path.join(work, f"refs-{index}.err"), "wb") as err:
                    self.procs.append(lib.spawn(
                        argv, cwd=work, env=env, stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE, stderr=err,
                    ))
            for proc in self.procs:
                seconds = self._answer(proc)["setup_s"]
                if seconds is not None:
                    self.setup_s.append(seconds)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _answer(proc: subprocess.Popen) -> Dict:
        timer = threading.Timer(TIMEOUT_S, lib.kill_group, args=(proc,))
        timer.start()
        try:
            line = proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"reference worker {proc.pid} died; see refs-*.err")
        return json.loads(line)

    def compute(self, items: Sequence[Sequence]) -> Dict[str, str]:
        """``{id: digest}`` for ``items``, the workers in parallel."""
        for proc, share in zip(self.procs, split(items)):
            proc.stdin.write((json.dumps({"items": share}) + "\n").encode())
            proc.stdin.flush()
        digests: Dict[str, str] = {}
        for proc in self.procs:
            digests.update(self._answer(proc)["digests"])
        return digests

    def close(self) -> None:
        """End the workers (EOF on stdin) and wait for them."""
        for proc in self.procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                lib.reap(proc, 30.0)
            except (ChildProcessError, TimeoutError):
                pass
            finally:
                lib.kill_group(proc)
                proc.stdout.close()
        self.procs = []


def main(argv: List[str]) -> int:
    import sims

    tracer = lib.Tracer(False)
    bundles: Dict = {}
    setup_s: Optional[float] = None
    if "--setup" in argv:
        bundles, setup_s = sims.grid_setup(tracer)
    print(json.dumps({"setup_s": setup_s}), flush=True)
    for line in sys.stdin:
        digests = {}
        for item_id, workload, bar, machine in json.loads(line)["items"]:
            if workload not in bundles:
                bundles[workload] = sims.compile_bundle(workload, tracer)
            digests[item_id] = sims.reference_digest(bundles[workload], bar, machine)
        print(json.dumps({"digests": digests}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
