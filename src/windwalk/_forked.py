"""The forked path shards of ``_stepper.run_length_groups``: shard 0 of a
batch stepped in this process, every other shard in a child made by
``os.fork``, and the parts joined in path order.

``_stepper`` imports this module only when a batch is cut into shards, so a
process that never shards a batch, such as every ``windwalk limits`` call or
a small ``verify_lln``, neither loads nor compiles it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import List, NoReturn, Tuple

import numpy as np
# The shards' generators come from numpy.random: imported here, before any
# fork, it is not imported again in every child.
import numpy.random  # noqa: F401

from ._stepper import _run_shard


def run_forked(kernel, metric, n_steps, shards) -> Tuple[np.ndarray, np.ndarray]:
    """Shard 0 stepped here and every other shard in a forked child.

    It starts no thread, and a child runs only the stepper and one write
    to its pipe before ``os._exit``.  stdout and stderr are flushed before
    each fork, so no child holds a copy of output still to be written.
    ``children`` maps the pid of each child not yet reaped to the read end
    of its pipe; the ``finally`` kills and reaps every child left in it."""
    children = {}
    parts = []
    try:
        for shard in shards[1:]:
            read, write = os.pipe()
            try:
                for stream in (sys.stdout, sys.stderr):
                    if stream is not None:
                        stream.flush()
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                inherited = [read] + [pipe.fileno() for pipe in children.values()]
                _shard_child(kernel, metric, n_steps, shard, write, inherited)
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        parts.append(_run_shard(kernel, metric, n_steps, shards[0]))
        for pid, pipe in list(children.items()):
            with pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if not message:
                raise ChildProcessError(f"a path shard's process ended with exit code "
                                        f"{os.waitstatus_to_exitcode(status)} and sent no result")
            ok, value = pickle.loads(message)
            if not ok:
                raise pickle.loads(value)
            parts.append(value)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _shard_child(kernel, metric, n_steps, shard, write: int, inherited: List[int]) -> NoReturn:
    """The body of a forked child: step ``shard`` and write ``(True,
    arrays)``, or ``(False, pickled exception)``, to the pipe ``write``.  It
    leaves only through ``os._exit``, so no ``finally``, handler or exit
    hook of the frames it inherited runs twice.  An exception that does not
    survive pickling is sent as a ``RuntimeError`` naming its type and
    message."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            result = (True, _run_shard(kernel, metric, n_steps, shard))
        except BaseException as exc:  # raised again in the parent
            try:
                value = pickle.dumps(exc)
                pickle.loads(value)
            except Exception:
                value = pickle.dumps(RuntimeError(f"{type(exc).__qualname__}: {exc}"))
            result = (False, value)
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)
