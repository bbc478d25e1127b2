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
  oldest) gives the nearest preceding writer.  A station holds one
  producer link per source register, and the link must be that writer
  (or the register file), on committed stations too.  A WAITING
  station must read the walk's value through the link wherever it is
  ready and count the rest as pending; an issued, uncommitted station
  must have issued with exactly the walk's values, one per source
  register.  For the one-cluster ring (the Ultrascalar II) this walk is
  the grid routing :func:`repro.circuits.grid.route_arguments` computes.

The last three properties are checked in one walk of the occupied
stations per cycle, which reads each station once.  When several fail
in the same cycle, the ready bit is reported first, then the cursors,
then the producer links.

Every station is re-derived on every cycle; the walk is written to do
that with little host work.  It slices the ring's occupied run out
once, keeps last cycle's ready bits as a set of seqs, checks the links
inline, and takes one of three paths per station, each doing only the
checks that apply: committed (links only), waiting (links, the values
read through them, the pending count) or issued (links and the issued
values).  It reads station fields, the committed register file, the
commit log, :meth:`~repro.ultrascalar.ring.RingProcessor.ordering_cursors`
(the value it checks) and ``_operand`` (the read path it checks), never
the engine's incremental structures: its writer table, wake lists,
arrival and finishing queues, ready lists, cursor queues or memory maps.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary, ref

from repro.ultrascalar.ring import DONE, EMPTY, NONE_PENDING, WAITING, RingProcessor


class InvariantViolation(AssertionError):
    """An engine-internal property failed during execution."""


class _Watch:
    """What the checker remembers of one engine between its cycles."""

    __slots__ = ("engine", "commit_cursor", "done")

    def __init__(self, engine: RingProcessor) -> None:
        #: the engine, held weakly: a finished engine's address can be
        #: reused by the next, which must not inherit this state
        self.engine = ref(engine)
        #: committed-stream length already validated
        self.commit_cursor = 0
        #: seqs of the stations DONE at the previous cycle
        self.done: set[int] = set()


class InvariantChecker:
    """Per-cycle invariant observer; install as an engine ``cycle_hook``.

    One checker can watch several engines at once (it keys its
    bookkeeping by the engine object, without keeping the engine alive),
    so a differential run can share a single instance across all
    designs.  :attr:`checks` counts the individual property evaluations
    performed, for reporting.
    """

    def __init__(self) -> None:
        self.checks = 0
        self._watches: WeakKeyDictionary[RingProcessor, _Watch] = WeakKeyDictionary()
        #: the watch called last; an engine is called once per cycle, so
        #: the next call is almost always for the same one
        self._last: _Watch | None = None

    # ------------------------------------------------------------------

    def __call__(self, engine) -> None:
        if isinstance(engine, RingProcessor):
            watch = self._last
            if watch is None or watch.engine() is not engine:
                watch = self._watches.get(engine)
                if watch is None:
                    watch = self._watches[engine] = _Watch(engine)
                self._last = watch
            self.checks += 1
            if len(engine.commit_log) > watch.commit_cursor:
                self._check_commit_fifo(engine, watch)
            self._check_stations(engine, watch)

    # ------------------------------------------------------------------

    def _fail(self, engine, message: str) -> None:
        raise InvariantViolation(f"{type(engine).__name__} @ cycle {engine.cycle}: {message}")

    def _check_commit_fifo(self, engine, watch: _Watch) -> None:
        """Committed stream is FIFO and follows the architectural path:
        each row appended since the previous cycle (there is at least
        one), against the row before it."""
        log = engine.commit_log  # CommitRow: static_index, seq, ..., next_pc (slot 6), ...
        start = watch.commit_cursor or 1
        earlier = log[start - 1]
        for k in range(start, len(log)):
            row = log[k]
            if row[1] <= earlier[1]:
                self._fail(
                    engine,
                    f"commit FIFO violated: seq {row[1]} committed after seq {earlier[1]}",
                )
            if row[0] != earlier[6]:
                self._fail(
                    engine,
                    f"commit stream left the architectural path: commit {k} "
                    f"is instruction {row[0]}, expected {earlier[6]}",
                )
            earlier = row
        watch.commit_cursor = len(log)

    def _check_stations(self, engine: RingProcessor, watch: _Watch) -> None:
        """Ready bits, ordering cursors and producer links, in one walk.

        The walk visits the occupied stations once, oldest first, and
        remembers the first failure of each property; the first link
        failure ends the link checks.  When several properties fail,
        the ready bit is reported first, then the cursors, then the
        links.
        """
        self.checks += 3
        count, committed, regs = engine.count, engine.committed_count, engine.committed_regs
        operand = engine._operand  # the read path a waiting station's values take
        seen = watch.done
        done = set()
        add_done = done.add
        writer = [None] * engine.L  # nearest preceding writer so far
        # the Figure 5 cursors: the oldest unfinished store, memory
        # operation and control transfer
        stores = memory = branches = NONE_PENDING
        unplaced = 3
        # an occupied station is EMPTY, so a link to it reads the register file
        stale_writer = False
        ready_failure = link_failure = None
        oldest, n = engine.oldest, engine.n
        end = oldest + count
        stations = engine.stations
        walk = stations[oldest:end] if end <= n else _arc(stations, oldest, count, n)
        for k, station in enumerate(walk):
            state = station.state
            decoded = station.decoded
            if state is DONE:
                add_done(station.seq)
            else:
                seq = station.seq
                # a ready bit seen last cycle stays set
                if seq in seen and ready_failure is None:
                    ready_failure = (
                        f"ready bit de-asserted: station {station.index} (seq {seq}) "
                        "was DONE and is no longer"
                    )
                if unplaced:
                    if decoded.is_store and stores == NONE_PENDING:
                        stores = seq
                        unplaced -= 1
                    if decoded.is_memory and memory == NONE_PENDING:
                        memory = seq
                        unplaced -= 1
                    if decoded.is_control and branches == NONE_PENDING:
                        branches = seq
                        unplaced -= 1
                if state is EMPTY:
                    stale_writer = True

            # each producer link against the walk's nearest preceding
            # writer, then what the station read or issued through it
            sources = decoded.sources
            if link_failure is not None:
                pass
            elif len(station.producers) != len(sources):
                link_failure = _wrong_arity(station, "producer links", station.producers)
            elif not sources or k < committed:
                # a committed station's values go unchecked: younger
                # commits may have overwritten the register file since
                for reg, link in zip(sources, station.producers):
                    want = writer[reg]
                    if link is not want:
                        if want is not None or link.state is not EMPTY:
                            link_failure = _misrouted(station, reg, link, want)
                            break
                    elif stale_writer and link is not None and link.state is EMPTY:
                        link_failure = _misrouted(station, reg, link, want)
                        break
                else:
                    if state is WAITING and station.pending != 0:
                        link_failure = _miscounted(station, 0)
            elif state is WAITING:
                # reads each ready value through its link, counts the rest
                pending = 0
                for reg, link in zip(sources, station.producers):
                    want = writer[reg]
                    if link is not want:
                        if want is not None or link.state is not EMPTY:
                            link_failure = _misrouted(station, reg, link, want)
                            break
                        link = None  # deallocated: reads the register file
                    elif stale_writer and link is not None and link.state is EMPTY:
                        link_failure = _misrouted(station, reg, link, want)
                        break
                    if want is None:
                        value = regs[reg]
                    elif want.state is DONE:
                        value = want.result
                    else:
                        pending += 1
                        continue
                    got = operand(link, reg)
                    if got != value:
                        link_failure = _misread(station, reg, got, value)
                        break
                else:
                    if station.pending != pending:
                        link_failure = _miscounted(station, pending)
            elif len(station.operands) != len(sources):
                link_failure = _wrong_arity(station, "issued operands", station.operands)
            else:
                # issued, with exactly the walk's values
                operands = station.operands
                port = 0
                for reg, link in zip(sources, station.producers):
                    want = writer[reg]
                    if link is not want:
                        if want is not None or link.state is not EMPTY:
                            link_failure = _misrouted(station, reg, link, want)
                            break
                    elif stale_writer and link is not None and link.state is EMPTY:
                        link_failure = _misrouted(station, reg, link, want)
                        break
                    if want is None:
                        value = regs[reg]
                    elif want.state is DONE:
                        value = want.result
                    else:
                        link_failure = (
                            f"station {station.index} (seq {station.seq}) issued "
                            f"before {_describe(want)} produced r{reg}"
                        )
                        break
                    if operands[port] != value:
                        link_failure = _misread(station, reg, operands[port], value)
                        break
                    port += 1

            dest = decoded.dest
            if dest is not None:
                writer[dest] = station
        watch.done = done

        if ready_failure is not None:
            self._fail(engine, ready_failure)
        got = engine.ordering_cursors()
        walked = (stores, memory, branches)
        if got != walked:
            for name, g, w in zip(("stores", "mem", "branches"), got, walked):
                if g != w:
                    self._fail(
                        engine,
                        f"CSPP {name}-ordering cursor diverged from the "
                        f"specification walk: engine seq {g}, walk seq {w}",
                    )
        if link_failure is not None:
            self._fail(engine, link_failure)


def _arc(items: list, start: int, length: int, n: int) -> list:
    """``length`` items of the ring *items* (of size *n*) from *start* on."""
    end = start + length
    if end <= n:
        return items[start:end]
    if length <= n:
        return items[start:] + items[: end - n]
    return [items[k % n] for k in range(start, end)]


def _misrouted(station, reg: int, link, want) -> str:
    if link is not None and link.state is EMPTY:
        link = None  # deallocated: reads the register file
    return (
        f"station {station.index} (seq {station.seq}) links "
        f"r{reg} to {_describe(link)}, CSPP routes it from "
        f"{_describe(want)}"
    )


def _wrong_arity(station, what: str, values: tuple) -> str:
    return (
        f"station {station.index} (seq {station.seq}) has {len(values)} {what} "
        f"for {len(station.decoded.sources)} source registers"
    )


def _misread(station, reg: int, got, value) -> str:
    return (
        f"station {station.index} (seq {station.seq}) reads "
        f"r{reg} = {got} through its producer link, CSPP routes {value}"
    )


def _miscounted(station, pending: int) -> str:
    return (
        f"station {station.index} (seq {station.seq}) waits on "
        f"{station.pending} operands, CSPP shows {pending} not ready"
    )


def _describe(station) -> str:
    if station is None:
        return "the register file"
    return f"station {station.index} (seq {station.seq})"
