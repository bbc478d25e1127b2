"""The Ultrascalar ring processor: Ultrascalar I, Ultrascalar II and the hybrid.

A wrap-around ring of ``n`` execution stations.  Register values flow
from each writer to younger readers through one CSPP circuit per
logical register; the oldest station inserts the committed register
file.  Three 1-bit CSPP conditions sequence instructions: oldest
tracking / deallocation, load-after-store ordering, and
store-after-everything ordering with branch commitment.

The model is cycle-accurate with respect to the paper's timing rules:

* arguments become visible to a consumer one cycle after the producer
  finishes ("newly computed results propagate through the datapath" at
  the end of each clock cycle, and "forward new results in one clock
  cycle");
* a mispredicted branch squashes all younger stations the cycle it
  resolves, and fetch restarts on the following cycle ("Nothing needs
  to be done to recover from misprediction except to fetch new
  instructions from the correct program path");
* a station is deallocated and refilled once it and every older
  station have finished.

The paper's three designs have "identical scheduling policies" and
differ only in how stations refill, which here is the cluster size
``C``: stations free ``C`` at a time, once all ``C`` have committed.

* ``C = 1`` is the Ultrascalar I: per-station refill.
* ``1 < C < n`` is the hybrid: clusters act as "super execution
  stations" and refill as a unit.
* ``C = n`` is the Ultrascalar II: one cluster of ``n`` stations, the
  batch.  The ring never wraps, which is the US-II's non-wrap-around
  datapath, and "stations idle waiting for everyone to finish before
  refilling".  A station's arguments come from the nearest preceding
  writer in the batch, the routing :func:`repro.circuits.grid.
  route_arguments` computes for the US-II grid.

A partly filled leading cluster also frees once its stations have
committed and fetch can deliver nothing more (stalled, or HALT fetched):
the US-II's "batch full or no more" rule, without which a program that
ends without HALT would never drain.

The simulation is event-driven, so the host work per cycle follows
state changes rather than ``n``:

* the occupied stations are a contiguous run of the ring, kept as the
  oldest position, a count and a commit pointer;
* at fetch each station links to its producers through a per-register
  last-writer table — CSPP's nearest preceding writer — and a producer
  finishing wakes its consumers for the cycle its value arrives;
* the three Figure 5 conditions are cursors: the oldest unfinished
  store, memory operation and control transfer;
* executing stations and memory requests are kept in their own maps;
* nothing is decoded per run: fetch delivers static indices, and each
  station points at its row of the program's decoded table
  (:attr:`repro.isa.program.Program.decoded`, built on the program's
  first run and shared by every later one); the row's int opcode code
  indexes Figure 3's latencies (:data:`~repro.isa.latency.PAPER_LATENCIES`)
  and the interpreter's semantics table, so no enum member is hashed
  per instruction;
* freeing a station is a state write (see :func:`_release`): its slot
  gets a fresh station at the next fetch;
* commit builds no record objects: it appends one plain row to
  :attr:`RingProcessor.commit_log`, and the result's ``committed`` and
  ``timings`` views are built from the log only when first read.

Host work per instruction, not per cycle, bounds a run, so the path
from fetch to commit makes few calls per instruction: one
:meth:`~RingProcessor._allocate`, one :meth:`~RingProcessor._operand`
per issued operand (read by source count, in one issue loop for every
kind), one :func:`_release` when its station frees and one
:meth:`~RingProcessor._commit`.  Readying, issuing and finishing are
loops inside the phases, and a finished producer wakes its consumers in
one loop, :meth:`~RingProcessor._wake_consumers`; self-timed and
global-clock runs share these loops and differ only in the latency term.
"""

from __future__ import annotations

import sys
from collections import defaultdict, deque
from operator import attrgetter

from repro.frontend.branch_predictor import BranchPredictor
from repro.frontend.fetch import FetchUnit
from repro.isa.interpreter import SEMANTICS
from repro.isa.latency import PAPER_LATENCIES
from repro.isa.program import Decoded, Program
from repro.telemetry.session import resolve_tracer
from repro.telemetry.tracer import Tracer
from repro.ultrascalar.memsys import MemorySystem
from repro.ultrascalar.processor import CommitRow, ProcessorConfig, ProcessorResult
from repro.ultrascalar.station import Station, StationState
from repro.util.bitops import to_unsigned, tree_level_distance

EMPTY = StationState.EMPTY
WAITING = StationState.WAITING
EXECUTING = StationState.EXECUTING
MEMORY = StationState.MEMORY
DONE = StationState.DONE

#: cursor value when no station holds back younger ones
NONE_PENDING = sys.maxsize

_by_seq = attrgetter("seq")


def _release(station: Station) -> None:
    """Free *station* (deallocation or squash): mark it EMPTY.

    The slot gets a fresh :class:`Station` at its next fetch, so nothing
    else is reset; dropping the links to older stations keeps a freed
    station from holding its predecessors alive.
    """
    station.state = EMPTY
    station.producers = ()
    station.prev_writer = None


class RingProcessor:
    """See module docstring.  Built by :class:`repro.api.Processor`,
    which checks that ``cluster_size`` divides the window."""

    def __init__(
        self,
        program: Program,
        config: ProcessorConfig,
        predictor: BranchPredictor,
        memory: MemorySystem,
        cluster_size: int = 1,
        initial_registers: list[int] | None = None,
        tracer: Tracer | None = None,
        cycle_hook=None,
    ):
        self.program = program
        self.config = config
        self.predictor = predictor
        self.memory = memory
        self.cluster_size = cluster_size
        self.n = config.window_size
        self.L = program.spec.num_registers

        self.stations = [Station(i) for i in range(self.n)]
        self.oldest = 0  # ring position holding the oldest instruction
        self.count = 0  # occupied stations, from `oldest` on
        self.committed_count = 0  # of those, committed and not yet freed
        self.committed_regs = list(initial_registers or [0] * self.L)
        if len(self.committed_regs) != self.L:
            raise ValueError("initial register file has wrong size")

        self.tracer = resolve_tracer(tracer)
        self._tracing = self.tracer.enabled
        # opt-in per-cycle observer (see repro.verify.invariants); None in
        # normal runs, so the only cost is one attribute test per cycle
        self._cycle_hook = cycle_hook
        if cluster_size == self.n:
            self._refill_mode = "whole_batch"
        elif cluster_size == 1:
            self._refill_mode = "per_station"
        else:
            self._refill_mode = "per_cluster"
        self.fetch = FetchUnit(program, predictor, width=config.fetch_width)
        self.fetch_width = config.fetch_width
        self.self_timed = config.self_timed
        self.cycle = 0
        self.seq = 0
        #: one CommitRow per committed instruction, in commit order
        self.commit_log: list[CommitRow] = []
        self.halted = False
        self.squashed = 0
        self.mispredictions = 0
        self.forwarded_loads = 0
        # self-timed bookkeeping: where and when each committed register
        # value was physically produced (commitment does not teleport
        # data; it still flows from the producing station's position)
        self._reg_source_pos: list[int | None] = [None] * self.L
        self._reg_source_cycle: list[int] = [0] * self.L

        self._rows = program.decoded
        self._latency = PAPER_LATENCIES
        # per register, its youngest allocated writer: the nearest
        # preceding writer CSPP routes the next fetched station's value from
        self._writer: list[Station | None] = [None] * self.L
        # WAITING stations whose operands have all arrived, by kind, each
        # list kept in place; _ready_of maps a static index to its kind's
        self._ready_alu: list[Station] = []
        self._ready_loads: list[Station] = []
        self._ready_stores: list[Station] = []
        self._ready_of = [
            self._ready_loads if row.is_load else self._ready_stores if row.is_store
            else self._ready_alu
            for row in self._rows
        ]
        # cycle -> stations whose last operand arrives that cycle
        self._arrivals: defaultdict[int, list[Station]] = defaultdict(list)
        # cycle -> EXECUTING stations whose functional unit finishes then
        self._finishing: defaultdict[int, list[Station]] = defaultdict(list)
        self._alu_busy = 0  # EXECUTING stations holding a shared ALU
        self._in_memory: dict[int, Station] = {}  # request id -> station
        # not yet DONE, oldest first: the Figure 5 conditions' cursors
        self._stores: deque[Station] = deque()
        self._memory_ops: deque[Station] = deque()
        self._controls: deque[Station] = deque()
        # address -> youngest issued store to it (memory renaming)
        self._last_store: dict[int, Station] = {}

    # ------------------------------------------------------------------
    # ring helpers
    # ------------------------------------------------------------------

    def _forward_latency(self, producer_pos: int, consumer_pos: int) -> int:
        """Cycles for a result to travel producer -> consumer.

        Global single-phase clock: always 1 ("all communications between
        components being completed in one clock cycle").  Self-timed:
        one cycle per H-tree level the signal must climb — neighbouring
        stations communicate in a single cycle, far stations pay for the
        longer wires (the paper's Section 7 pipelining discussion).  The
        per-instruction path calls it only when self-timed.
        """
        if not self.self_timed:
            return 1
        return max(1, tree_level_distance(producer_pos, consumer_pos))

    def _operand(self, producer: Station | None, reg: int) -> int:
        """The value of *reg* a station linked to *producer* reads.

        A producer still allocated supplies its result; once it has
        been deallocated its value is in the committed register file,
        which the oldest station inserts into the CSPP.  Every issued
        operand is read here.
        """
        if producer is None or producer.state is EMPTY:
            return self.committed_regs[reg]
        return producer.result

    @staticmethod
    def _first_pending(queue: deque[Station]) -> int:
        """Seq of the oldest station in *queue* not yet DONE."""
        while queue:
            state = queue[0].state
            if state is not DONE and state is not EMPTY:
                return queue[0].seq
            queue.popleft()  # finished, or since deallocated
        return NONE_PENDING

    def ordering_cursors(self) -> tuple[int, int, int]:
        """The Figure 5 CSPP conditions as cursors.

        Returns the seqs of the oldest unfinished store, unfinished
        memory operation and unresolved control transfer
        (:data:`NONE_PENDING` when there is none).  All stations older
        than a station have finished their stores iff its seq is at most
        the first cursor, and likewise for the other two.
        """
        return (
            self._first_pending(self._stores),
            self._first_pending(self._memory_ops),
            self._first_pending(self._controls),
        )

    # ------------------------------------------------------------------
    # per-cycle phases
    # ------------------------------------------------------------------

    def _phase_fetch(self) -> None:
        """Refill empty stations from the fetch unit.

        Because clusters free as a unit (see :meth:`_phase_commit`), the
        empty positions always form the contiguous tail of the ring
        order, so filling them in order preserves ring contiguity.
        """
        budget = min(self.fetch_width, self.n - self.count)
        stalled = self.fetch.stalled()
        if budget == 0 or stalled:
            if self._tracing:
                if stalled:
                    self.tracer.count("fetch.stall_cycles.starved")
                else:
                    self.tracer.count("fetch.stall_cycles.window_full")
            return
        group = self.fetch.fetch_cycle(budget=budget)
        if self._tracing and group:
            self.tracer.count("fetch.cycles_active")
            self.tracer.count("fetch.instructions", len(group))
        rows = self._rows
        allocate = self._allocate
        predictions = iter(self.fetch.predictions)
        for static_index in group:
            decoded = rows[static_index]
            allocate(static_index, decoded, next(predictions) if decoded.is_branch else None)

    def _allocate(self, static_index: int, decoded: Decoded, predicted: bool | None) -> None:
        """Load an instruction into the next free station and link its operands."""
        pos = (self.oldest + self.count) % self.n
        station = Station(pos, static_index, predicted, WAITING, self.seq, self.cycle, decoded)
        self.stations[pos] = station
        self.count += 1
        self.seq += 1

        # Link each source to its nearest preceding writer.  A finished
        # producer's value arrives a forwarding latency after it
        # completed; an unfinished one will wake this station.
        writers = self._writer
        self_timed = self.self_timed
        ready_cycle = 0
        pending = 0
        producers = []
        for reg in decoded.sources:
            producer = writers[reg]
            if producer is None or producer.state is EMPTY:
                producers.append(None)  # deallocated: the register file holds it
                source_pos = self._reg_source_pos[reg] if self_timed else None
                if source_pos is not None:
                    arrival = self._reg_source_cycle[reg] + self._forward_latency(source_pos, pos)
                    if arrival > ready_cycle:
                        ready_cycle = arrival
                continue
            producers.append(producer)
            if producer.state is DONE:
                latency = self._forward_latency(producer.index, pos) if self_timed else 1
                arrival = producer.complete_cycle + latency
                if arrival > ready_cycle:
                    ready_cycle = arrival
            else:
                pending += 1
                producer.consumers.append(station)
        station.producers = tuple(producers)
        station.pending = pending
        station.ready_cycle = ready_cycle

        dest = decoded.dest
        if dest is not None:
            station.prev_writer = writers[dest]
            writers[dest] = station
        if decoded.is_memory:
            self._memory_ops.append(station)
            if decoded.is_store:
                self._stores.append(station)
        elif decoded.is_control:
            self._controls.append(station)
        if not pending:
            self._schedule(station)

    def _schedule(self, station: Station) -> None:
        """Make *station* issuable from its ``ready_cycle`` on."""
        if station.ready_cycle > self.cycle:
            self._arrivals[station.ready_cycle].append(station)
        else:
            self._ready_of[station.static_index].append(station)

    def _wake_consumers(self, producer: Station) -> None:
        """*producer* finished this cycle: its value starts towards each
        consumer, and arrives on a later cycle."""
        complete = producer.complete_cycle
        arrival = complete + 1
        self_timed = self.self_timed
        arrivals = self._arrivals
        for consumer in producer.consumers:
            if consumer.state is not WAITING:
                continue  # squashed
            if self_timed:
                arrival = complete + self._forward_latency(producer.index, consumer.index)
            if arrival > consumer.ready_cycle:
                consumer.ready_cycle = arrival
            consumer.pending -= 1
            if not consumer.pending:
                arrivals[consumer.ready_cycle].append(consumer)
        producer.consumers = []

    def _phase_issue(self) -> None:
        """Issue this cycle's ready stations: each reads its operands
        through its producer links, then executes or goes to memory."""
        cycle = self.cycle
        arrived = self._arrivals.pop(cycle, None)
        if arrived:
            ready_of = self._ready_of
            for station in arrived:
                if station.state is WAITING:
                    ready_of[station.static_index].append(station)

        # Shared-ALU arbitration (Memo 2): the oldest requesters win the
        # ALUs that stations executing since earlier cycles leave free;
        # NOP and HALT need none.  (It runs before memory operations
        # issue: a store-forwarded load holds an ALU from the next cycle.)
        issuing = []
        pool = self._ready_alu
        if pool:
            pool.sort(key=_by_seq)
            num_alus = self.config.num_alus
            if num_alus is None:
                issuing = pool[:]
                pool.clear()
            else:
                free = num_alus - self._alu_busy
                denied = []
                for station in pool:
                    if station.decoded.uses_alu:
                        if free <= 0:
                            denied.append(station)
                            continue
                        free -= 1
                    issuing.append(station)
                if self._tracing and denied:
                    self.tracer.count("issue.alu_denied", len(denied))
                pool[:] = denied

        # Loads wait for every older store; a store waits for every older
        # memory operation and control transfer.  A load and a store
        # never both pass in one cycle, so memory requests leave in age
        # order.
        loads = self._ready_loads
        if loads:
            loads.sort(key=_by_seq)
            first_store = self._first_pending(self._stores)
            passed = 0
            for station in loads:
                if station.seq > first_store:
                    break
                passed += 1
            issuing += loads[:passed]
            del loads[:passed]
        stores = self._ready_stores
        if stores:
            stores.sort(key=_by_seq)
            oldest = stores[0]
            older_memory_done = oldest.seq == self._first_pending(self._memory_ops)
            if older_memory_done and oldest.seq < self._first_pending(self._controls):
                issuing.append(oldest)
                del stores[0]
        if not issuing:
            return

        operand = self._operand
        latency = self._latency
        finishing = self._finishing
        tracing = self._tracing
        for station in issuing:
            decoded = station.decoded
            # read the operands through the producer links, by source
            # count (the sources are rs1, then rs2)
            sources = decoded.sources
            if len(sources) == 2:
                producers = station.producers
                operands = station.operands = (
                    operand(producers[0], sources[0]),
                    operand(producers[1], sources[1]),
                )
            elif sources:
                operands = station.operands = (operand(station.producers[0], sources[0]),)
            else:
                operands = ()
            station.issue_cycle = cycle
            if tracing:
                self._trace_issue(station)
            if decoded.is_memory:
                self._issue_memory(station, operands)
                continue
            if decoded.uses_alu:
                self._alu_busy += 1
            station.state = EXECUTING
            finishing[cycle + latency[decoded.code] - 1].append(station)
        if tracing:
            self.tracer.count("issue.cycles_active")
            self.tracer.count("issue.instructions", len(issuing))

    def _issue_memory(self, station: Station, operands: tuple[int, ...]) -> None:
        """Send an issued load or store to memory, or forward a load."""
        decoded = station.decoded
        address = station.address = to_unsigned(operands[0] + decoded.imm)
        if decoded.is_store:
            request_id = self.memory.submit_store(address, operands[1], leaf=station.index)
            if self.config.store_forwarding:
                self._last_store[address] = station
        else:
            # memory renaming: stores issue in age order and all older
            # ones have, so the youngest store issued to this address is
            # the nearest preceding one — if it is still allocated
            forwarder = self._last_store.get(address)
            if forwarder is not None and forwarder.state is not EMPTY:
                self.forwarded_loads += 1
                if self._tracing:
                    self.tracer.count("mem.store_forward_hits")
                station.result = forwarder.operands[1]
                # one cycle on an ALU: it finishes in this cycle's execute phase
                station.state = EXECUTING
                self._alu_busy += 1
                self._finishing[self.cycle].append(station)
                return
            request_id = self.memory.submit_load(address, leaf=station.index)
        station.memory_request_id = request_id
        station.state = MEMORY
        self._in_memory[request_id] = station

    def _trace_issue(self, station: Station) -> None:
        """Record forwarding provenance and memory traffic for one issue."""
        decoded = station.decoded
        for producer in station.producers:
            if producer is not None and producer.state is not EMPTY:
                hops = tree_level_distance(producer.index, station.index)
                self.tracer.count("forward.from_station")
                self.tracer.count(f"forward.hops.{hops}")
                self.tracer.count(
                    "forward.latency_cycles",
                    self._forward_latency(producer.index, station.index),
                )
            else:
                self.tracer.count("forward.from_regfile")
        if decoded.is_load:
            self.tracer.count("mem.loads")
        elif decoded.is_store:
            self.tracer.count("mem.stores")

    def _phase_execute(self) -> None:
        """Finish functional units; resolve branches; handle squashes."""
        cycle = self.cycle
        finishing = self._finishing.pop(cycle, None)
        if not finishing:
            return
        if len(finishing) > 1:
            finishing.sort(key=_by_seq)
        for station in finishing:
            if station.state is not EXECUTING:
                continue  # squashed
            decoded = station.decoded
            station.state = DONE
            station.complete_cycle = cycle
            if decoded.uses_alu:
                self._alu_busy -= 1
            if decoded.is_branch:
                operands = station.operands
                station.taken = SEMANTICS[decoded.code](operands[0], operands[1])
                if station.taken != station.predicted_taken:
                    actual_next = decoded.target if station.taken else station.static_index + 1
                    self._mispredict(station, actual_next)
                    return  # younger stations were squashed; stop this phase
            elif decoded.is_control:  # a jump
                station.taken = True
            elif decoded.uses_alu and not decoded.is_load:
                # (NOP and HALT compute nothing; a store-forwarded load's
                # result was preset at issue)
                operands = station.operands
                station.result = SEMANTICS[decoded.code](
                    operands[0] if operands else 0,
                    operands[1] if len(operands) > 1 else 0,
                    decoded.imm,
                )
            if station.consumers:
                self._wake_consumers(station)

    def _mispredict(self, station: Station, actual_next: int) -> None:
        """Squash everything younger than *station* and redirect fetch."""
        self.mispredictions += 1
        keep = (station.index - self.oldest) % self.n + 1
        for k in range(self.count - 1, keep - 1, -1):  # youngest first
            current = self.stations[(self.oldest + k) % self.n]
            if current.state is MEMORY:
                self._in_memory.pop(current.memory_request_id, None)
            elif current.state is EXECUTING and current.decoded.uses_alu:
                self._alu_busy -= 1
            dest = current.decoded.dest
            if dest is not None:
                self._writer[dest] = current.prev_writer
            _release(current)
            self.squashed += 1
        self.count = keep
        cursors = (self._stores, self._memory_ops, self._controls)
        for queue in (*cursors, self._ready_alu, self._ready_loads, self._ready_stores):
            while queue and queue[-1].state is EMPTY:
                queue.pop()  # squashed, at the young end
        # rewind the fetch sequence numbering to just after the branch
        self.seq = station.seq + 1
        self.fetch.redirect(actual_next)

    def _phase_memory(self) -> None:
        completions = self.memory.tick()
        if not completions:
            return
        for request_id, value in completions.items():
            station = self._in_memory.pop(request_id, None)
            if station is None:
                continue  # squashed
            station.state = DONE
            station.complete_cycle = self.cycle
            if station.decoded.is_load:
                station.result = value
                if station.consumers:
                    self._wake_consumers(station)

    def _phase_commit(self) -> None:
        """Commit finished oldest instructions; deallocate whole clusters.

        Commitment (applying results to the architectural register file,
        in program order) is per instruction; *deallocation* frees an
        aligned cluster of ``cluster_size`` stations only once every
        station in it has committed — the hybrid's "super execution
        station" behaviour.  With ``cluster_size == 1`` this is exactly
        the Ultrascalar I's per-station reuse.
        """
        count, committed = self.count, self.committed_count
        if committed < count:
            stations, oldest, n = self.stations, self.oldest, self.n
            commit = self._commit
            while committed < count:
                station = stations[(oldest + committed) % n]
                if station.state is not DONE:
                    break
                commit(station)
                committed += 1
            self.committed_count = committed

        # `oldest` is always cluster-aligned: the initial fill starts at
        # position 0 and clusters free as aligned units.
        cluster_size = self.cluster_size
        while self.committed_count >= cluster_size:
            self._free(cluster_size)
        if self.count and self.committed_count == self.count and self.fetch.stalled():
            self._free(self.count)  # partly filled, and nothing more will come

    def _commit(self, station: Station) -> None:
        decoded = station.decoded
        static_index = station.static_index
        result = station.result
        reg = decoded.dest
        if reg is not None and result is not None:
            self.committed_regs[reg] = result
            if self.self_timed:
                self._reg_source_pos[reg] = station.index
                self._reg_source_cycle[reg] = station.complete_cycle
        taken = station.taken
        next_pc = static_index + 1
        if decoded.is_control and taken:
            next_pc = decoded.target
        self.commit_log.append(
            (
                static_index,
                station.seq,
                station.operands,
                result,
                station.address,
                taken,
                next_pc,
                station.fetch_cycle,
                station.issue_cycle,
                station.complete_cycle,
                self.cycle,
            )
        )
        if decoded.is_branch:
            self.predictor.update(static_index, bool(taken))
        if decoded.is_halt:
            self.halted = True
        if self._tracing:
            self.tracer.count("commit.instructions")
            self.tracer.event(
                str(self.program.instructions[static_index]),
                cat="instruction",
                ts=station.issue_cycle,
                dur=station.complete_cycle - station.issue_cycle + 1,
                tid=station.index,
                seq=station.seq,
                static_index=static_index,
                fetch_cycle=station.fetch_cycle,
                commit_cycle=self.cycle,
            )

    def _free(self, stations: int) -> None:
        """Deallocate the leading cluster's first *stations* stations."""
        ring, oldest, n = self.stations, self.oldest, self.n
        for k in range(stations):
            _release(ring[(oldest + k) % n])
        self.oldest = (oldest + self.cluster_size) % n
        self.count -= stations
        self.committed_count -= stations
        if self._tracing:
            self.tracer.count(f"fetch.refills.{self._refill_mode}")
            self.tracer.count("fetch.refilled_stations", stations)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the processor one clock cycle."""
        self._phase_fetch()
        if self._tracing:
            self.tracer.count("cycles")
            self.tracer.count("commit.window_occupancy", self.count)
        self._phase_issue()
        self._phase_execute()
        self._phase_memory()
        self._phase_commit()
        if self._cycle_hook is not None:
            self._cycle_hook(self)
        self.cycle += 1

    def _stuck(self) -> str:
        """Why a run that reached ``max_cycles`` has not finished."""
        why = [f"{len(self.commit_log)} committed", f"{self.count} stations occupied"]
        if self.committed_count < self.count:
            first = self.stations[(self.oldest + self.committed_count) % self.n]
            instruction = self.program.instructions[first.static_index]
            why.append(f"oldest uncommitted is seq {first.seq} ({instruction}) {first.state.value}")
        why.append("fetch stalled" if self.fetch.stalled() else "fetch not stalled")
        return f"exceeded max_cycles={self.config.max_cycles}: {', '.join(why)}"

    def run(self) -> ProcessorResult:
        """Run to completion (HALT committed, or program exhausted)."""
        step, stalled, max_cycles = self.step, self.fetch.stalled, self.config.max_cycles
        while not self.halted and (self.count or not stalled()):
            if self.cycle >= max_cycles:
                raise RuntimeError(self._stuck())
            step()
        if self._tracing:
            self.tracer.count("commit.squashed", self.squashed)
            self.tracer.count("commit.mispredictions", self.mispredictions)
            for name, value in self.memory.counters().items():
                self.tracer.count(name, value)
            for name, value in self.fetch.counters().items():
                self.tracer.count(name, value)
        return ProcessorResult(
            cycles=self.cycle,
            commit_log=self.commit_log,
            registers=list(self.committed_regs),
            memory=self.memory.final_state(),
            halted=self.halted,
            instructions=self.program.instructions,
            squashed=self.squashed,
            mispredictions=self.mispredictions,
            forwarded_loads=self.forwarded_loads,
            stats=self.tracer.snapshot(),
        )
