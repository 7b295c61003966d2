"""Trace replay: JSON-lines arrival logs driving the simulator.

The log format is one JSON object per line, sorted by time::

    {"time": 0.0,    "task": "cam0"}
    {"time": 0.0312, "task": "cam1"}
    {"time": 0.0333, "task": "cam0"}

— deliberately boring, so logs can be recorded from a live run
(:func:`record_arrivals`), exported from a production trace, or written
by hand in a test.  :class:`ReplayArrivals` feeds a log back into the
scheduler: each task receives exactly the logged arrival instants, and
tasks absent from the log simply never release.

Replay streams are the one *finite* arrival source: when a task's logged
arrivals run out, its release chain stops (the scheduler handles
exhaustion; no sentinel needed).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from repro.core.task import TaskSpec
from repro.workloads.arrivals.base import (
    ArrivalProcess,
    derive_arrival_seed,
)

#: One logged arrival: (absolute time, task name).
ArrivalEvent = Tuple[float, str]


def write_arrival_log(
    path: Union[str, Path], events: Iterable[ArrivalEvent]
) -> int:
    """Write arrivals as JSON lines; returns the number written.

    Events must already be in non-decreasing time order (the order a
    recorded run produces naturally); out-of-order input and non-finite
    times are rejected so a corrupt log is caught at write time, not
    replay time.
    """
    last = float("-inf")
    count = 0
    with open(path, "w") as handle:
        for time, task in events:
            if not math.isfinite(time):
                raise ValueError(f"non-finite arrival time {time}")
            if time < last:
                raise ValueError(
                    f"arrival log not sorted: {time} after {last}"
                )
            last = time
            handle.write(json.dumps({"time": time, "task": task}) + "\n")
            count += 1
    return count


def read_arrival_log(path: Union[str, Path]) -> List[ArrivalEvent]:
    """Read a JSON-lines arrival log back into ``(time, task)`` pairs.

    Raises ``ValueError`` on malformed lines, missing fields, non-finite
    or negative times or out-of-order records — replaying a
    silently-truncated or shuffled log would produce confusing scheduler
    behaviour.  ``json`` parses the ``NaN`` and ``Infinity`` literals,
    and a NaN time passes every ordering comparison, so finiteness is
    checked first.
    """
    events: List[ArrivalEvent] = []
    last = float("-inf")
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                time = float(record["time"])
                task = str(record["task"])
            except (ValueError, TypeError, KeyError) as error:
                raise ValueError(
                    f"{path}:{lineno}: malformed arrival record ({error})"
                ) from None
            if not math.isfinite(time):
                raise ValueError(
                    f"{path}:{lineno}: non-finite arrival time {time}"
                )
            if time < 0.0:
                raise ValueError(
                    f"{path}:{lineno}: negative arrival time {time}"
                )
            if time < last:
                raise ValueError(
                    f"{path}:{lineno}: arrival log not sorted "
                    f"({time} after {last})"
                )
            last = time
            events.append((time, task))
    return events


def record_arrivals(
    process: ArrivalProcess,
    tasks: Sequence[TaskSpec],
    horizon: float,
    seed: int = 0,
) -> List[ArrivalEvent]:
    """Materialise a process into a replayable log (arrivals < horizon).

    Uses the same per-task seed derivation the scheduler uses, so a
    recorded log replays the exact arrival instants the live run saw::

        events = record_arrivals(MmppArrivals(), tasks, horizon=4.0, seed=7)
        write_arrival_log("arrivals.jsonl", events)
        # later / elsewhere:
        run_simulation(tasks, RunConfig(..., arrival="replay:path=arrivals.jsonl"))
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    events: List[ArrivalEvent] = []
    for task in tasks:
        stream = process.stream(
            task, derive_arrival_seed(seed, process.name, task.name)
        )
        for time in stream:
            if time >= horizon:
                break
            events.append((time, task.name))
    events.sort(key=lambda event: event[0])
    return events


class ReplayArrivals(ArrivalProcess):
    """Replay a recorded or hand-written arrival log.

    Constructed either from in-memory events or lazily from a log file
    (``path``); the spec-string form is ``"replay:path=arrivals.jsonl"``.
    The instance is picklable either way — file contents are read on
    first use in whichever process runs the simulation, and in-memory
    events are stored as a plain tuple.
    """

    name = "replay"

    def __init__(
        self,
        events: Iterable[ArrivalEvent] = (),
        path: Union[str, Path, None] = None,
    ) -> None:
        self._events: Tuple[ArrivalEvent, ...] = tuple(
            (float(time), str(task)) for time, task in events
        )
        self._path = str(path) if path is not None else None
        if self._events and self._path:
            raise ValueError("pass events or path, not both")

    def events(self) -> Tuple[ArrivalEvent, ...]:
        """The replayed events (reads the log on first call when lazy)."""
        if self._path is not None and not self._events:
            self._events = tuple(read_arrival_log(self._path))
        return self._events

    def stream(self, task: TaskSpec, seed: int) -> Iterator[float]:
        times = [time for time, name in self.events() if name == task.name]

        def generate() -> Iterator[float]:
            yield from times

        return generate()

    def describe(self) -> str:
        if self._path is not None:
            return f"replay of arrival log {self._path}"
        return f"replay of {len(self._events)} in-memory arrivals"
