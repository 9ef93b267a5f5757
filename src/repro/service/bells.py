"""Wake-ups for queue waiters: ``AF_UNIX`` datagram bells under ``bells/``.

Three kinds of code wait on the queue: an idle worker waits for work, a
job's :class:`~repro.service.queue.QueueExecutor` waits for its items to
finish, and a ``/progress`` stream waits for either.  Each binds a
:class:`Bell` — a datagram socket with a short name in
``<queue_dir>/bells/`` — **before** its first state check, then waits on
it with its poll interval as the timeout.  A transition that a waiter
cares about rings every bell of that waiter's kind (:func:`ring`) after
its transaction commits.  Because the socket exists before the first
check, a ring that lands between a check and the wait is buffered by
the kernel, not lost.

Rings are hints, never the source of truth: a waiter always re-reads the
queue after waking, and waking only on its timeout is exactly the old
polling behaviour.  So every failure degrades to polling:

* a bell that cannot be bound (the path exceeds the ``AF_UNIX`` limit,
  or the filesystem has no sockets) waits by sleeping;
* a ring that fails is dropped;
* a ring refused by a stale bell (its waiter was SIGKILLed before it
  could unlink it) removes the stale file.

>>> import tempfile
>>> bells = Path(tempfile.mkdtemp()) / "bells"
>>> with Bell(bells, WORKER_BELLS) as bell:
...     ring(bells, WORKER_BELLS)
...     bell.wait(5.0)
True
>>> sorted(os.listdir(bells))  # a closed bell removes its file
[]
"""

from __future__ import annotations

import os
import select
import socket
import time
from pathlib import Path
from typing import Any, List, Optional

__all__ = ["Bell", "JOB_BELLS", "WORKER_BELLS", "ring"]

#: bell-name prefix of idle workers: rung when an item becomes leasable
WORKER_BELLS = "w"
#: bell-name prefix of job waiters: rung when an item or job changes state
JOB_BELLS = "j"


class Bell:
    """One waiter's bell: bound on construction, unlinked on :meth:`close`."""

    def __init__(self, directory: Path, kind: str) -> None:
        #: the bound socket path, or ``None`` when this bell polls instead
        self.path: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        path = os.path.join(directory, kind + os.urandom(4).hex())
        try:
            os.makedirs(directory, exist_ok=True)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        except OSError:
            return
        try:
            sock.bind(path)
        except OSError:
            sock.close()
            return
        sock.setblocking(False)
        self._sock = sock
        self.path = path

    def wait(self, timeout: float) -> bool:
        """Block until a ring or ``timeout`` seconds; ``True`` if rung.

        Every buffered ring is consumed, so one wake-up answers all the
        rings that arrived while the waiter was busy.
        """
        if self._sock is None:
            time.sleep(timeout)
            return False
        select.select([self._sock], [], [], timeout)
        rung = False
        while True:
            try:
                self._sock.recv(16)
            except OSError:  # BlockingIOError once drained
                return rung
            rung = True

    def wake(self) -> None:
        """Ring this bell from its own process (a signal handler's exit)."""
        if self.path is not None:
            _ring_paths([self.path])

    def close(self) -> None:
        if self._sock is None:
            return
        self._sock.close()
        self._sock = None
        try:
            os.unlink(self.path)  # type: ignore[arg-type]
        except OSError:
            pass

    def __enter__(self) -> "Bell":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _send(sock: socket.socket, path: str) -> None:
    try:
        sock.sendto(b"\0", socket.MSG_DONTWAIT, path)
    except BlockingIOError:
        pass  # the buffer is full of rings already: the waiter will wake
    except ConnectionRefusedError:
        # nobody is bound any more: a waiter killed before its close()
        try:
            os.unlink(path)
        except OSError:
            pass
    except OSError:
        pass  # vanished bell, path over the AF_UNIX limit: its waiter polls


def _ring_paths(paths: List[str]) -> None:
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
    except OSError:
        return
    with sock:
        for path in paths:
            _send(sock, path)


def ring(directory: Path, kind: str) -> None:
    """Wake every bell of ``kind`` in ``directory``; never raises."""
    try:
        names = [name for name in os.listdir(directory) if name.startswith(kind)]
    except OSError:
        return
    if names:
        _ring_paths([os.path.join(directory, name) for name in names])
