"""Engine-internal invariant checking (the opt-in per-cycle observer).

An :class:`InvariantChecker` is a callable passed as the engine's
``cycle_hook``; :class:`~repro.ultrascalar.ring.RingProcessor` — which
models all three designs — invokes it once at the end of every
:meth:`step`.  Normal runs pass no hook, so they execute exactly the
pre-verification code.

Checked properties (violations raise :class:`InvariantViolation`):

* **Commit-window FIFO order** — the engine's commit log (one row per
  committed instruction) has strictly increasing sequence numbers, and
  each row's static index equals the previous row's ``next_pc``:
  commitment follows the architectural control-flow path in order,
  never reorders, never skips.  Each cycle reads only the rows
  appended since the last, and never builds the result's record views.
* **CSPP ready-bit monotonicity** — once a station's result is DONE (its
  ready bit asserted into the prefix network), it stays DONE until the
  station is deallocated or squashed; a ready bit never de-asserts while
  the same instruction occupies the station.
* **Ordering-cursor consistency** — the engine's Figure 5 cursors (the
  oldest unfinished store, memory operation and control transfer) equal
  a naive walk of the occupied stations.
* **Producer links equal CSPP routing** — for every occupied station and
  every register it reads, a walk of the occupied stations in CSPP
  order (oldest first, the committed register file inserted at the
  oldest) gives the nearest preceding writer.  The engine's producer
  link must be that writer (or the register file).  A WAITING station
  must read the walk's value through the link wherever it is ready and
  count the rest as pending; an issued, uncommitted station must have
  issued with exactly the walk's values.  For the one-cluster ring (the
  Ultrascalar II) this walk is the grid routing
  :func:`repro.circuits.grid.route_arguments` computes.

The last three properties are checked in one walk of the occupied
stations per cycle, which reads each station's state once.  When
several fail in the same cycle, the ready bit is reported first, then
the cursors, then the producer links.
"""

from __future__ import annotations

from repro.ultrascalar.ring import DONE, EMPTY, NONE_PENDING, WAITING, RingProcessor


class InvariantViolation(AssertionError):
    """An engine-internal property failed during execution."""


class InvariantChecker:
    """Per-cycle invariant observer; install as an engine ``cycle_hook``.

    One checker can watch several engines at once (it keys its
    bookkeeping by engine identity), so a differential run can share a
    single instance across all designs.  :attr:`checks` counts the
    individual property evaluations performed, for reporting.
    """

    def __init__(self) -> None:
        self.checks = 0
        #: per engine id: position -> seq of each station DONE last cycle
        self._done_seen: dict[int, dict[int, int]] = {}
        #: per engine id: committed-stream length already validated
        self._commit_cursor: dict[int, int] = {}

    # ------------------------------------------------------------------

    def __call__(self, engine) -> None:
        if isinstance(engine, RingProcessor):
            self._check_commit_fifo(engine)
            self._check_stations(engine)

    # ------------------------------------------------------------------

    def _fail(self, engine, message: str) -> None:
        raise InvariantViolation(f"{type(engine).__name__} @ cycle {engine.cycle}: {message}")

    def _check_commit_fifo(self, engine) -> None:
        """Committed stream is FIFO and follows the architectural path."""
        self.checks += 1
        start = self._commit_cursor.get(id(engine), 0)
        log = engine.commit_log  # CommitRow: static_index, seq, ..., next_pc (slot 6), ...
        for k in range(max(1, start), len(log)):
            static_index, seq = log[k][:2]
            previous_seq, next_pc = log[k - 1][1], log[k - 1][6]
            if seq <= previous_seq:
                self._fail(
                    engine,
                    f"commit FIFO violated: seq {seq} committed after seq {previous_seq}",
                )
            if static_index != next_pc:
                self._fail(
                    engine,
                    f"commit stream left the architectural path: commit {k} "
                    f"is instruction {static_index}, expected {next_pc}",
                )
        self._commit_cursor[id(engine)] = len(log)

    def _check_stations(self, engine: RingProcessor) -> None:
        """Ready bits, ordering cursors and producer links, in one walk.

        The walk visits the occupied stations once, oldest first, and
        remembers the first failure of each property; the first link
        failure ends the link checks.  When several properties fail,
        the ready bit is reported first, then the cursors, then the
        links.
        """
        self.checks += 3
        seen = self._done_seen.get(id(engine), {})
        done_now: dict[int, int] = {}
        cursors = [NONE_PENDING, NONE_PENDING, NONE_PENDING]  # stores, mem, branches
        writer = [None] * engine.L  # nearest preceding writer so far
        ready_failure = link_failure = None
        stations, n, oldest = engine.stations, engine.n, engine.oldest
        for k in range(engine.count):
            station = stations[(oldest + k) % n]
            state = station.state
            position, seq, decoded = station.index, station.seq, station.decoded

            if state is DONE:
                done_now[position] = seq
            else:
                # a ready bit seen last cycle stays set
                if seen.get(position) == seq and ready_failure is None:
                    ready_failure = (
                        f"ready bit de-asserted: station {position} (seq {seq}) "
                        "was DONE and is no longer"
                    )
                # the Figure 5 cursors: the oldest unfinished store,
                # memory operation and control transfer
                if decoded.is_store and cursors[0] == NONE_PENDING:
                    cursors[0] = seq
                if decoded.is_memory and cursors[1] == NONE_PENDING:
                    cursors[1] = seq
                if decoded.is_control and cursors[2] == NONE_PENDING:
                    cursors[2] = seq

            if link_failure is None:
                committed = k < engine.committed_count  # and not yet freed
                link_failure = _check_links(engine, station, state, committed, writer)
                if decoded.dest is not None:
                    writer[decoded.dest] = station
        self._done_seen[id(engine)] = done_now

        if ready_failure is not None:
            self._fail(engine, ready_failure)
        got = engine.ordering_cursors()
        for name, g, w in zip(("stores", "mem", "branches"), got, cursors):
            if g != w:
                self._fail(
                    engine,
                    f"CSPP {name}-ordering cursor diverged from the "
                    f"specification walk: engine seq {g}, walk seq {w}",
                )
        if link_failure is not None:
            self._fail(engine, link_failure)


def _check_links(engine: RingProcessor, station, state, committed, writer) -> str | None:
    """Check *station*'s producer links and operand values against the
    CSPP walk's nearest preceding writers; the failure message, if any."""
    waiting = state is WAITING
    pending = 0
    for port, (reg, link) in enumerate(zip(station.decoded.sources, station.producers)):
        want = writer[reg]
        if link is not None and link.state is EMPTY:
            link = None  # deallocated: reads the register file
        if link is not want:
            return (
                f"station {station.index} (seq {station.seq}) links "
                f"r{reg} to {_describe(link)}, CSPP routes it from "
                f"{_describe(want)}"
            )
        if committed:
            continue  # younger commits may have overwritten the register file
        if want is None:
            value = engine.committed_regs[reg]
        elif want.state is DONE:
            value = want.result
        elif waiting:
            pending += 1
            continue
        else:
            return (
                f"station {station.index} (seq {station.seq}) issued "
                f"before {_describe(want)} produced r{reg}"
            )
        got = engine._operand(link, reg) if waiting else station.operands[port]
        if got != value:
            return (
                f"station {station.index} (seq {station.seq}) reads "
                f"r{reg} = {got} through its producer link, CSPP "
                f"routes {value}"
            )
    if waiting and station.pending != pending:
        return (
            f"station {station.index} (seq {station.seq}) waits on "
            f"{station.pending} operands, CSPP shows {pending} not ready"
        )
    return None


def _describe(station) -> str:
    if station is None:
        return "the register file"
    return f"station {station.index} (seq {station.seq})"
