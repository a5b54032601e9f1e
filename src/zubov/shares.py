"""One job split into interleaved shares, run on every usable core.

`run` computes ``[share(0), ..., share(w - 1)]``: share 0 in the calling
process, the others in workers forked with
``multiprocessing.get_context("fork")``, each sending its result back
through a pipe.  A caller deals its work so that share j holds items j,
j + w, j + 2w, ...; `count` picks ``w`` from the job's size in work
units, so each caller keeps its own threshold of work per process.  Two
callers use it: `ode.estimate_V_batch` integrates lattice rows and
`interval.bnb_minimize` lowers the level of the groups of a paused
search tree.

`beside` runs two different jobs at once, the second in a worker.  It
has two callers, each kept because a benchmark workload pays for it:
`verify.verify_roa` runs its local search, face and inclusion proofs
beside its decrease band (`check-vdp`), and `verify.find_max_level` its
local and c1 searches beside its face searches (`certify-vdp`).

Every worker is joined before `run` returns or raises, one still running
when a share fails (or on Ctrl-C) is terminated first, and an error in
a share is raised again in the caller.  On Linux a worker dies with a
killed caller.  A tracer that wraps a function a share calls sees only
the calling process's share.

Forking a process that has started threads can deadlock the child if a
thread held a lock at the fork, and the prover's workers call BLAS.
numpy's bundled OpenBLAS shuts its thread pool down before each fork
and a child starts its own on its first product.  Checked with OpenBLAS
0.3.31 on Linux: the caller holds one thread right after the fork, and
50 children, each forked while the pool was busy, computed a 400x400
product with the caller's bits and none hung.  Python 3.12 and later
warn when they fork a process that has threads; whether they do here
has not been checked.
"""

from __future__ import annotations

import os
import signal
from typing import Callable

__all__ = ["beside", "count", "run"]


def count(units: int) -> int:
    """Shares for a job of ``units`` work units: one per usable core, but
    at most one per unit.  1 where the cores are unknown, and in a
    daemonic process (a multiprocessing pool's worker), which may not
    start processes."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    w = min(len(os.sched_getaffinity(0)), units)
    if w < 2:
        return 1
    import multiprocessing as mp     # only here: it is slow to import
    return 1 if mp.current_process().daemon else w


def run(share: Callable[[int], object], w: int) -> list:
    """``[share(0), ..., share(w - 1)]``: share 0 runs here, the others in
    forked workers that send their result back through a pipe.  Every
    worker is joined before this returns or raises; one still running
    when a share fails (or on Ctrl-C) is terminated first."""
    if w == 1:
        return [share(0)]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    workers, results = [], []
    try:
        for j in range(1, w):
            recv, send = ctx.Pipe(duplex=False)
            readers = [r for _, r in workers] + [recv]
            p = ctx.Process(target=_worker, args=(share, j, readers, send, os.getpid()),
                            daemon=True)
            try:
                p.start()
            finally:
                send.close()
            workers.append((p, recv))
        results.append(share(0))
        for p, recv in workers:
            try:
                ok, value = recv.recv()
            except EOFError:
                p.join()
                raise RuntimeError(f"share worker ended with exit code {p.exitcode} "
                                   "before sending its share") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for i, (p, recv) in enumerate(workers, 1):
            if i >= len(results):       # its share was not received
                p.terminate()
            p.join()
            recv.close()


def beside(job: Callable[[], object], side: Callable[[], object]) -> tuple:
    """``(job(), side())``: ``side`` in a forked worker while ``job`` runs
    here if there are two usable cores (`count`), else ``side()`` and then
    ``job()`` here.  Either way an error of ``side`` wins, and one of
    ``job`` is raised once ``side`` has finished.  The fork pays
    only where ``side`` is a sizeable share of the work; its callers are
    `verify.verify_roa` (`check-vdp`) and `verify.find_max_level`
    (`certify-vdp`)."""
    if count(2) < 2:
        done = side()
        return job(), done

    def share(j):
        if j:
            return side()
        try:
            return True, job()
        except Exception as e:      # held until side's outcome is known
            return False, e

    (ok, value), done = run(share, 2)
    if not ok:
        raise value
    return value, done


def _worker(share, j: int, readers: list, send, caller: int) -> None:
    """A forked worker's body: ``share(j)`` or the error it raised, sent
    as ``(ok, value)``.  Ctrl-C is left to the parent, which ends it.

    On Linux the kernel kills the worker when its ``caller`` dies
    (``PR_SET_PDEATHSIG``; a caller already gone is seen at once).  The
    worker also closes the read ends it inherited, so that a send to a
    dead parent fails instead of waiting for a reader forever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if os.uname().sysname == "Linux":
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)        # 1 = PR_SET_PDEATHSIG
        if os.getppid() != caller:
            os._exit(0)
    for r in readers:
        r.close()
    try:
        msg = (True, share(j))
    except Exception as e:          # re-raised in the parent
        msg = (False, e)
    try:
        send.send(msg)
    except BrokenPipeError:         # the parent is gone
        pass
    except Exception as e:          # an error that does not pickle
        send.send((False, RuntimeError(f"share {j} could not be sent: {e}")))
    finally:
        send.close()
