"""Live progress of a running task list (stderr, throttled).

One line, rewritten in place, showing done/total, how many rows came
from the cache, and an ETA extrapolated from the executed-task rate::

    sweep: 128/512 done (96 cached) 12.3 tasks/s ETA 0:31

The reporter writes to ``stderr`` only — artifacts and ``--json``
output on ``stdout`` stay byte-identical whether progress is on or off.
When ``stderr`` is not a terminal the rewrite degrades to plain
newline-separated lines (still throttled), so CI logs stay readable.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Throttled done/total + ETA reporting for one ``run_tasks`` call."""

    def __init__(
        self,
        total: int,
        label: str = "tasks",
        stream: Optional[TextIO] = None,
        min_interval: float = 0.2,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.cached = 0
        self.executed = 0
        self._start = time.perf_counter()
        self._last_emit = 0.0
        self._open_line = False

    @property
    def done(self) -> int:
        return self.cached + self.executed

    def add_cached(self, count: int) -> None:
        """Record rows served by the cache."""
        self.cached += count
        self.emit()

    def add_executed(self, count: int) -> None:
        """Record freshly executed (and checkpointed) rows."""
        self.executed += count
        self.emit()

    def _eta_seconds(self) -> Optional[float]:
        remaining = self.total - self.done
        if remaining <= 0 or self.executed == 0:
            return None
        elapsed = time.perf_counter() - self._start
        if elapsed <= 0:
            return None
        return remaining / (self.executed / elapsed)

    def _line(self) -> str:
        parts = [f"{self.label}: {self.done}/{self.total} done ({self.cached} cached)"]
        elapsed = time.perf_counter() - self._start
        if self.executed and elapsed > 0:
            parts.append(f"{self.executed / elapsed:.1f} tasks/s")
        eta = self._eta_seconds()
        if eta is not None:
            minutes, seconds = divmod(int(eta + 0.5), 60)
            parts.append(f"ETA {minutes}:{seconds:02d}")
        return " ".join(parts)

    def emit(self, force: bool = False) -> None:
        """Write the current line (throttled unless ``force``)."""
        now = time.perf_counter()
        if not force and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        line = self._line()
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write(f"\r\x1b[2K{line}")
            self._open_line = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Emit the final state and terminate the in-place line."""
        self.emit(force=True)
        if self._open_line:
            self.stream.write("\n")
            self.stream.flush()
            self._open_line = False
