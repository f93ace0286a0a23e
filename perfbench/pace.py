"""Pace kernel: how fast the CPU a sample runs on is going, moment by moment.

The host's speed is not constant: on a shared host a fixed kernel runs at
two speeds about 1.6x apart, switching every few seconds, and busy spells
last minutes.  Host seconds of a sample therefore measure the host as
much as the program.  ``run.py`` pins itself, and so every process it
starts, to one CPU and runs this script beside each sample.  At the
lowest priority it gets about 2% of that CPU, in short slices spread
through the sample, so it sees the host speed the sample sees without
slowing the sample much.  Its rate (chunks of fixed work
per CPU second) turns the sample's CPU seconds into seconds at a
reference pace (``run.at_ref_pace``).

The kernel is plain interpreter work (dict, list, integer and float
operations and method calls), like the simulator's own hot loops, and
uses nothing from ``repro``, so no change to the program moves it.

Prints ``ready`` once running.  On SIGTERM it prints its timeline, one
``[monotonic, cpu, chunks]`` point every ``EVERY`` chunks, as one JSON
list and exits.
"""

import ctypes
import gc
import json
import os
import signal
import sys
import time
from array import array

#: Chunks between timeline points (about a millisecond, so even the few
#: slices the kernel gets in a short set-up window show as progress).
EVERY = 8


class Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def bump(self, x: float) -> None:
        self.value = self.value * 0.5 + x


def chunk(table: dict, stack: list, cell: Cell) -> None:
    """One fixed unit of work."""
    for i in range(400):
        key = i % 61
        table[key] = table.get(key, 0) + (i * i) % 7
        stack.append(i)
        if len(stack) > 32:
            stack.pop(0)
        cell.bump(i * 0.25)


def die_with_parent() -> None:
    """Exit (through SIGTERM) if ``run.py`` dies first (Linux only)."""
    try:
        pr_set_pdeathsig = 1
        ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def yield_cpu() -> None:
    """Take as little of the shared CPU as the scheduler allows.  The
    kernel needs only short slices spread over the sample; run in its
    own session, it must lower its autogroup's nice as well as its own."""
    try:
        os.nice(19)
        with open("/proc/self/autogroup", "w") as group:
            group.write("19")
    except OSError:
        pass


def main() -> None:
    # The timeline lives in flat arrays and the collector is off, so the
    # kernel's cost per chunk does not grow with the timeline.
    gc.disable()
    stamps, cpus, counts = array("d"), array("d"), array("q")

    def mark(chunks: int) -> None:
        stamps.append(time.monotonic())
        cpus.append(time.process_time())
        counts.append(chunks)

    def dump(*_):
        sys.stdout.write(json.dumps(list(zip(stamps, cpus, counts))) + "\n")
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, dump)
    die_with_parent()
    yield_cpu()
    table, stack, cell = {}, [], Cell()
    chunks = 0
    mark(chunks)
    print("ready", flush=True)
    while True:
        for _ in range(EVERY):
            chunk(table, stack, cell)
        chunks += EVERY
        mark(chunks)


if __name__ == "__main__":
    main()
