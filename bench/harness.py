"""Closed-loop runner: one caller, one thread, no think time.

Each operation runs under a per-operation deadline enforced with a
one-shot interval timer; its output is checked after the clock stops, so
checking never counts as the program's time.  A wrong output, an
exception or a missed deadline each count as one failure.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from spans import DeadlineExceeded, Tracer


@dataclass
class Op:
    id: int
    name: str
    family: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass
class LoopResult:
    """Latencies of every attempt, one list per round.

    The host this benchmark was built on changes speed by up to 1.7x in
    phases of about ten seconds, so the summaries use each operation's best
    time over the rounds: noise only ever adds time, and the best of 20 or
    more tries is what a run can reproduce."""

    rounds: list[list[float]] = field(default_factory=list)
    failures: list[tuple[int, str, str]] = field(default_factory=list)  # (op id, name, cause)

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def busy_s(self) -> float:
        return sum(map(sum, self.rounds))

    def best(self, rounds: list[list[float]] | None = None) -> list[float]:
        """Each operation's shortest time over the given rounds (all by default)."""
        return [min(times) for times in zip(*(rounds or self.rounds))]

    def ok_per_s(self, rounds: list[list[float]] | None = None) -> float:
        """Correct operations per second of a round run at best times."""
        ok_per_round = (self.attempted - len(self.failures)) / len(self.rounds)
        return ok_per_round / sum(self.best(rounds))


MISSED = "missed the"


def _alarm(signum, frame):
    raise DeadlineExceeded()


def timed_call(fn: Callable[[], object], deadline_s: float) -> tuple[object, float, str | None]:
    """(output, seconds, error).  The outer handler also catches an alarm
    that fires between the call's return and the timer being cleared."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                out = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            return out, time.perf_counter() - start, None
        except DeadlineExceeded:
            return None, time.perf_counter() - start, f"{MISSED} {deadline_s:g} s deadline"
        except Exception as exc:  # any other exception is a failed operation
            return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)


def run_op(op: Op, deadline_s: float, tracer: Tracer) -> tuple[float, str | None]:
    tracer.op = op.id
    if tracer.enabled:
        sp = tracer.open(f"op.{op.family}")
    out, seconds, error = timed_call(op.call, deadline_s)
    if tracer.enabled:
        tracer.close(sp, None)
        if error is not None:
            sp.error = "deadline_missed" if error.startswith(MISSED) else "fail"
    tracer.op = None
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:  # a check that cannot even run is a wrong output
            error = f"check raised {type(exc).__name__}: {exc}"
    return seconds, error


def run_loop(
    ops: list[Op], seconds: float, deadline_s: float, tracer: Tracer, rounds: int | None = None, alternate: bool = False
) -> LoopResult:
    """Whole rounds of ops until their summed time reaches ``seconds`` (or
    exactly ``rounds`` rounds).  Stopping only between rounds keeps the mix
    of operation kinds identical in every run.  With ``alternate``, even
    rounds are traced and odd rounds are not, in pairs, so the two are
    compared under the same machine conditions."""
    res = LoopResult()
    while True:
        if alternate:
            tracer.enabled = len(res.rounds) % 2 == 0
        times = []
        for op in ops:
            dt, error = run_op(op, deadline_s, tracer)
            times.append(dt)
            if error is not None:
                res.failures.append((op.id, op.name, error))
        res.rounds.append(times)
        n = len(res.rounds)
        done = (n >= rounds) if rounds is not None else (res.busy_s >= seconds)
        if done and not (alternate and n % 2):
            return res


def percentile_ms(res: LoopResult, q: int) -> float:
    """q-th percentile (1..99) in milliseconds over the operations of a
    round, each at its best time over the run."""
    return statistics.quantiles(res.best(), n=100, method="inclusive")[q - 1] * 1000
