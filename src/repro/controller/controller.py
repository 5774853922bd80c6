"""FR-FCFS memory controller with command-accurate latency composition.

The controller services one request *atomically*: when a request is
selected it computes the (PRE,) ACT, RD command times and the completion
time in one step, honoring per-bank timing constraints, the shared data
bus, and any blocking intervals (periodic refresh, RFM commands, PRAC
back-off recovery) that defenses or the refresh scheduler installed
through :meth:`MemoryController.block_banks`.  A block on a subset of
banks raises those banks' ``busy_until`` and closes them; a block on a
whole rank touches only the rank's :class:`~repro.dram.bank.RankState`
(its busy horizon and close epoch) in O(1), and each bank folds it in
lazily the next time the controller reads that bank.

This models the same latency *structure* as a per-cycle DRAM simulator
for the quantities the paper measures -- the latency gaps between row
hits, row conflicts, refreshes and preventive actions -- at a tiny
fraction of the cost, which is what makes the reproduction feasible in
pure Python.

Hot-path organization
---------------------
The pending queue is kept *per bank* (:class:`_BankQueue`): each bank
holds its requests in a seq-ordered FIFO plus a per-row FIFO map.  The
FR-FCFS key of the whole bank -- ``(start, not favored_hit, seq)`` --
is then computable in O(1): the best candidate of a bank is the oldest
request to the open row when the row is favored, else the oldest
request overall.  A select scans only the *occupied* banks (typically
one or two in the paper's attack workloads) instead of every queued
request, and servicing a request is O(1) instead of the former
O(queue) ``list.remove``.  Every request precomputes its flat bank
index and bank reference once, at submit time.

Every read of a bank's ``open_row``, ``hit_streak`` or ``busy_until``
-- the wake-elision test in :meth:`MemoryController.submit_tail`, both
selection paths of ``_on_wake``, subset blocks and
:meth:`MemoryController.bank` -- first syncs a stale bank (its
``epoch`` lags its rank's).  Every write of a bank's ``busy_until``
also raises ``RankState.drain``, which is what lets aligned whole-rank
blocks and REF find the rank's drain time without visiting its banks.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable

from repro.dram.address import AddressMapper, Coord
from repro.dram.bank import BankState, RankState
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import BlockInterval, BlockKind, MemoryStats


class Request:
    """One memory request (a 64-byte read or write)."""

    __slots__ = ("addr", "coord", "is_write", "arrive", "callback", "seq",
                 "start_service", "complete", "kind", "flat", "bank",
                 "bank_queue", "_in_queue")

    def __init__(self, addr: int, coord: Coord, is_write: bool, arrive: int,
                 callback: Callable[["Request"], None], seq: int) -> None:
        self.addr = addr
        self.coord = coord
        self.is_write = is_write
        self.arrive = arrive
        self.callback = callback
        self.seq = seq
        self.start_service: int | None = None
        self.complete: int | None = None
        #: "hit" | "miss" | "conflict", filled at service time.
        self.kind: str | None = None
        #: Flat bank id within the rank; filled by the controller.
        self.flat: int = 0
        #: The owning :class:`BankState`; filled by the controller.
        self.bank: BankState | None = None
        #: The owning :class:`_BankQueue`; filled by the controller.
        self.bank_queue = None
        #: Whether the request still sits in a bank queue (lazy FIFO
        #: deletion marker).
        self._in_queue = False

    @property
    def latency(self) -> int:
        """Queue + service latency (ps); valid after completion."""
        if self.complete is None:
            raise RuntimeError("request not complete yet")
        return self.complete - self.arrive


class _BankQueue:
    """Pending requests of one bank, organized for O(1) FR-FCFS heads.

    ``fifo`` holds requests in seq (submission) order; requests serviced
    out of FIFO order (favored row hits) are lazily deleted via the
    request's ``_in_queue`` flag.  ``by_row`` maps row -> deque of that
    row's pending requests, also in seq order, so the oldest favored hit
    is ``by_row[open_row][0]``.
    """

    __slots__ = ("bank", "fifo", "by_row", "size")

    def __init__(self, bank: BankState) -> None:
        self.bank = bank
        self.fifo: deque[Request] = deque()
        self.by_row: dict[int, deque[Request]] = {}
        self.size = 0

    def append(self, req: Request) -> None:
        req._in_queue = True
        self.fifo.append(req)
        row_q = self.by_row.get(req.coord.row)
        if row_q is None:
            self.by_row[req.coord.row] = deque((req,))
        else:
            row_q.append(req)
        self.size += 1

    def head(self) -> Request:
        """Oldest live request (callers guarantee ``size > 0``).

        The single-occupied-bank fast path in ``_on_wake`` inlines this
        lazy-popleft loop; keep the two in sync."""
        fifo = self.fifo
        while not fifo[0]._in_queue:
            fifo.popleft()
        return fifo[0]


class MemoryController:
    """Single-channel FR-FCFS memory controller."""

    def __init__(self, sim: Simulator, config: SystemConfig,
                 mapper: AddressMapper, stats: MemoryStats) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.timing = config.timing
        self.org = config.org
        self.mapper = mapper
        self.stats = stats
        self.ranks: list[RankState] = [
            RankState() for _ in range(self.org.ranks)]
        self.banks: list[list[BankState]] = [
            [BankState(r, b, rank_state)
             for b in range(self.org.banks_per_rank)]
            for r, rank_state in enumerate(self.ranks)
        ]
        self.defense = _NullDefense()
        self._bank_queues: list[list[_BankQueue]] = [
            [_BankQueue(bank) for bank in rank_banks]
            for rank_banks in self.banks
        ]
        #: Ordered set (dict keyed by identity) of bank queues with at
        #: least one pending request.  Dict insertion order is
        #: deterministic and the selection min-key has a globally unique
        #: seq tie-breaker, so iteration order cannot affect results.
        self._occupied: dict[_BankQueue, None] = {}
        self._queue_len = 0
        self._backlog: deque[Request] = deque()
        #: In-flight data-bus reservations, kept sorted by start as two
        #: parallel lists.  A burst takes the earliest gap at or after
        #: its ready time, so a short row-hit transfer is not serialized
        #: behind the full PRE+ACT+RD pipeline of an earlier-scheduled
        #: request to a different bank.  All bursts share one duration
        #: (tBL), so the end list is sorted too -- which the expiry
        #: pruning's bisect relies on.
        self._bus_starts: list[int] = []
        self._bus_ends: list[int] = []
        self._next_seq = 0
        self._wake_at: int | None = None
        self.queue_high_water = 0
        #: Wake-event elision switch (set by :class:`~repro.system.
        #: MemorySystem` from the resolved fast-forward config; see
        #: :meth:`submit_tail`).
        self.ff_elide = False
        #: addr -> (coord, flat, bank, bank_queue): decode and bank
        #: resolution done once per distinct address.
        self._addr_plan: dict[int, tuple] = {}
        # Hot-path constants and stable bound references: re-deriving a
        # config attribute or creating a bound method per request is
        # avoidable allocation/lookup work.
        self._queue_cap = config.queue_size
        self._column_cap = config.column_cap
        self._on_wake_cb = self._on_wake
        self._sched_call_at = sim.schedule_call_at
        t = config.timing
        self._tRC = t.tRC
        self._tRAS = t.tRAS
        self._tRP = t.tRP
        self._tRCD = t.tRCD
        self._tCL = t.tCL
        self._tBL = t.tBL
        #: On-chip frontend latency added between data-burst completion
        #: and the completion callback -- the callback models the data
        #: returning to the core.  Fusing this here (instead of a
        #: system-level relay event per request) saves one engine event
        #: and one dispatch per request.
        self._frontend = config.frontend_latency

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def attach_defense(self, defense) -> None:
        """Install a RowHammer defense (see :mod:`repro.defenses`)."""
        self.defense = defense

    def submit(self, addr: int, callback: Callable[[Request], None],
               is_write: bool = False) -> Request:
        """Enqueue a request; ``callback(request)`` fires once the data
        returns to the core (completion plus the frontend latency).
        ``request.complete`` records the DRAM-side completion time."""
        plan = self._addr_plan.get(addr)
        if plan is None:
            coord = self.mapper.decode(addr)
            flat = coord.bankgroup * self.org.banks_per_group + coord.bank
            plan = (coord, flat, self.banks[coord.rank][flat],
                    self._bank_queues[coord.rank][flat])
            if len(self._addr_plan) >= (1 << 16):
                self._addr_plan.clear()
            self._addr_plan[addr] = plan
        coord, flat, bank, bank_queue = plan
        sim = self.sim
        now = sim.now
        # Direct construction (no __init__ frame): this is the hottest
        # allocation in the simulator.
        req = _new_request(Request)
        req.addr = addr
        req.coord = coord
        req.is_write = is_write
        req.arrive = now
        req.callback = callback
        req.seq = self._next_seq
        req.start_service = None
        req.complete = None
        req.kind = None
        req.flat = flat
        req.bank = bank
        req.bank_queue = bank_queue
        self._next_seq += 1
        backlog = self._backlog
        if self._queue_len >= self._queue_cap:
            req._in_queue = False
            backlog.append(req)
        else:
            # _BankQueue.append, inlined.
            req._in_queue = True
            bank_queue.fifo.append(req)
            by_row = bank_queue.by_row
            row_q = by_row.get(coord.row)
            if row_q is None:
                by_row[coord.row] = deque((req,))
            else:
                row_q.append(req)
            size = bank_queue.size = bank_queue.size + 1
            self._queue_len += 1
            if size == 1:
                self._occupied[bank_queue] = None
        depth = self._queue_len + len(backlog)
        if depth > self.queue_high_water:
            self.queue_high_water = depth
        # Defer scheduling decisions to an immediate event so requests
        # submitted at the same instant are considered together (a hit
        # arriving "simultaneously" with a conflict must win FR-FCFS).
        # (_schedule_wake inlined: a wake at ``now`` is never in the
        # past, and an already-armed wake at or before ``now`` wins.)
        wake = self._wake_at
        if wake is None or wake > now:
            self._wake_at = now
            sim.schedule_call_at(now, self._on_wake_cb, now)
        return req

    def submit_tail(self, addr: int, callback: Callable[["Request"], None],
                    is_write: bool = False) -> Request:
        """:meth:`submit` for *tail* callers -- callers that schedule
        nothing else at the current instant after this call returns
        (closed-loop probe/noise/app loops whose callback ends with the
        submit).

        When the queue is empty and the engine has no other event
        pending at this instant, the deferred scheduler wake that
        ``submit`` arms would run next with exactly this request as its
        only candidate: FR-FCFS selection is trivial and the wake event
        can be *elided*.  The request is serviced inline and only its
        completion is scheduled.  Because nothing can run between this
        call and the elided wake, everything scheduled here receives
        seq numbers in the same relative order the wake path would have
        assigned -- the elision is bit-identical, not approximately so.

        Any failed precondition falls back to the deferred-wake path,
        so ``submit_tail`` is always safe to use from a tail position.
        Each elided wake counts in the engine's ``events_elided``.
        """
        sim = self.sim
        if self.ff_elide and self._queue_len == 0 and not self._backlog:
            now = sim.now
            # Simulator.quiescent_now, inlined (this is the hottest
            # controller entry point; keep the two in sync): the heap's
            # earliest event must lie after the current instant.
            heap = sim._heap
            if not heap or heap[0][0] > now:
                plan = self._addr_plan.get(addr)
                if plan is None:
                    coord = self.mapper.decode(addr)
                    flat = (coord.bankgroup * self.org.banks_per_group
                            + coord.bank)
                    plan = (coord, flat, self.banks[coord.rank][flat],
                            self._bank_queues[coord.rank][flat])
                    if len(self._addr_plan) >= (1 << 16):
                        self._addr_plan.clear()
                    self._addr_plan[addr] = plan
                coord, flat, bank, bank_queue = plan
                if bank.epoch != bank.rank_state.epoch:
                    bank.sync()
                if bank.busy_until <= now:
                    req = _new_request(Request)
                    req.addr = addr
                    req.coord = coord
                    req.is_write = is_write
                    req.arrive = now
                    req.callback = callback
                    req.seq = self._next_seq
                    req.start_service = now
                    req.complete = None
                    req.kind = None
                    req.flat = flat
                    req.bank = bank
                    req.bank_queue = bank_queue
                    req._in_queue = False
                    self._next_seq += 1
                    if self.queue_high_water < 1:
                        self.queue_high_water = 1
                    # The deferred path would arm a wake at ``now``
                    # which runs immediately after this callback and
                    # leaves the controller unarmed; mirror that end
                    # state (a previously armed future wake becomes
                    # stale either way).
                    self._wake_at = None
                    sim._events_elided += 1
                    stats = self.stats
                    if bank.open_row == coord.row:
                        # Row-hit service, inlined from _service_core
                        # (the dominant closed-loop case; keep in
                        # sync).  start == now since the bank is idle.
                        req.kind = "hit"
                        stats.row_hits += 1
                        bank.hit_streak += 1
                        tBL = self._tBL
                        earliest = now + self._tCL
                        ends = self._bus_ends
                        if ends and ends[0] <= now:
                            starts = self._bus_starts
                            cut = bisect_right(ends, now)
                            del starts[:cut]
                            del ends[:cut]
                        if not ends or earliest >= ends[-1]:
                            # Bus free at ``earliest`` (the closed-loop
                            # common case: the previous burst expired).
                            self._bus_starts.append(earliest)
                            ends.append(earliest + tBL)
                            done = earliest + tBL
                        else:
                            done = self._reserve_bus(
                                earliest, tBL, now) + tBL
                        busy = now + tBL
                        if bank.busy_until < busy:
                            bank.busy_until = busy
                            rank = bank.rank_state
                            if rank.drain < busy:
                                rank.drain = busy
                        if is_write:
                            stats.writes += 1
                        else:
                            stats.reads += 1
                        stats.requests_served += 1
                        req.complete = done
                        self._sched_call_at(done + self._frontend,
                                            req.callback, req)
                    else:
                        req.start_service = None
                        self._service_core(req, now)
                    return req
        return self.submit(addr, callback, is_write=is_write)

    def bank(self, rank: int, flat_id: int) -> BankState:
        """The bank's current state, with every whole-rank block so far
        applied."""
        bank = self.banks[rank][flat_id]
        if bank.epoch != bank.rank_state.epoch:
            bank.sync()
        return bank

    def block_banks(self, rank: int, bank_ids: frozenset[int] | None,
                    start: int, duration: int, kind: BlockKind,
                    align_to_busy: bool = True) -> int:
        """Block and close a set of banks (``None`` = whole rank) for
        ``duration``.

        With ``align_to_busy`` the block begins only after in-flight
        services on the affected banks drain (how REF/RFM wait for
        precharge); without it the block starts exactly at ``start``
        (FR-RFM's fixed-slot semantics).  Returns the actual block end.
        A whole-rank block costs O(1): it raises the rank's horizons
        and bumps its epoch, and each bank catches up on its next read.
        """
        rank_state = self.ranks[rank]
        if bank_ids is None:
            if align_to_busy and rank_state.drain > start:
                start = rank_state.drain
            end = start + duration
            if rank_state.busy_until < end:
                rank_state.busy_until = end
            if rank_state.drain < end:
                rank_state.drain = end
            rank_state.epoch += 1
        else:
            bank_list = self.banks[rank]
            affected = [bank_list[b] for b in bank_ids]
            for b in affected:
                if b.epoch != rank_state.epoch:
                    b.sync()
                if align_to_busy and b.busy_until > start:
                    start = b.busy_until
            end = start + duration
            for b in affected:
                if b.busy_until < end:
                    b.busy_until = end
                    if rank_state.drain < end:
                        rank_state.drain = end
                b.close()
        self.stats.record_block(
            BlockInterval(kind, start, end, rank, bank_ids))
        self._schedule_wake(end)
        return end

    @property
    def queued_requests(self) -> int:
        return self._queue_len + len(self._backlog)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, req: Request) -> None:
        bank_queue = req.bank_queue
        bank_queue.append(req)
        self._queue_len += 1
        if bank_queue.size == 1:
            self._occupied[bank_queue] = None

    def _schedule_wake(self, at: int) -> None:
        now = self.sim.now
        if at < now:
            at = now
        armed = self._wake_at
        if armed is not None and armed <= at:
            return
        self._wake_at = at
        self.sim.schedule_call_at(at, self._on_wake_cb, at)

    def _on_wake(self, at: int) -> None:
        """Issue every request whose commands can start now; then sleep
        until the earliest future start among the remaining requests.

        FR-FCFS selection -- earliest-startable first, then favored
        row hits under the column cap, ties by age -- is inlined into
        the loop body: it runs once per serviced request and once more
        to discover the next wake time, making it the single hottest
        piece of controller code.  Each occupied bank contributes its
        best candidate in O(1): the oldest request to the open row when
        that row is favored, else its oldest request overall."""
        # Re-arming an *earlier* wake leaves the later event in the
        # engine; it arrives here stale (its time no longer matches the
        # armed time) and must not trigger a spurious scheduler scan.
        if at != self._wake_at:
            return
        self._wake_at = None
        now = self.sim.now
        cap = self._column_cap
        occupied = self._occupied
        backlog = self._backlog
        while self._queue_len:
            if len(occupied) == 1:
                # Fast path: one occupied bank (the common case in the
                # paper's single-bank attack loops) needs no key tuples
                # or cross-bank comparison.
                for bank_queue in occupied:
                    break
                bank = bank_queue.bank
                if bank.epoch != bank.rank_state.epoch:
                    bank.sync()
                start = bank.busy_until
                if start > now:
                    self._schedule_wake(start)
                    return
                row_q = bank_queue.by_row.get(bank.open_row)
                if row_q and bank.hit_streak < cap:
                    best = row_q[0]
                else:
                    fifo = bank_queue.fifo
                    while not fifo[0]._in_queue:
                        fifo.popleft()
                    best = fifo[0]
            else:
                best = None
                best_key = None
                for bank_queue in occupied:
                    bank = bank_queue.bank
                    if bank.epoch != bank.rank_state.epoch:
                        bank.sync()
                    start = bank.busy_until
                    if start < now:
                        start = now
                    row_q = bank_queue.by_row.get(bank.open_row)
                    if row_q and bank.hit_streak < cap:
                        req = row_q[0]
                        key = (start, False, req.seq)
                    else:
                        req = bank_queue.head()
                        key = (start, True, req.seq)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = req
                start = best_key[0]
                if start > now:
                    self._schedule_wake(start)
                    return
            self._service(best, now)
            if backlog:
                self._enqueue(backlog.popleft())

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _service(self, req: Request, now: int) -> None:
        # Dequeue.  The serviced request is always the oldest of its
        # row (either the favored-hit head of that row, or the overall
        # oldest of the bank and hence oldest of its row too), so it is
        # the front of its row deque; the seq-ordered bank FIFO uses
        # lazy deletion via ``_in_queue``.
        bank_queue = req.bank_queue
        row = req.coord.row
        by_row = bank_queue.by_row
        row_q = by_row[row]
        row_q.popleft()
        if not row_q:
            del by_row[row]
        req._in_queue = False
        fifo = bank_queue.fifo
        if fifo[0] is req:
            fifo.popleft()
        bank_queue.size -= 1
        self._queue_len -= 1
        if bank_queue.size == 0:
            fifo.clear()
            del self._occupied[bank_queue]
        self._service_core(req, now)

    def _service_core(self, req: Request, now: int) -> None:
        """Command/latency composition of one selected request.

        Shared verbatim by the wake path (:meth:`_service`, after the
        dequeue) and the wake-elision path (:meth:`submit_tail`, where
        the request never enters a queue) -- one body, so the two paths
        cannot drift apart.  Both callers have just synced the bank
        while selecting it, and nothing runs in between, so it is read
        here without a second epoch check.
        """
        coord = req.coord
        bank = req.bank
        stats = self.stats

        start = bank.busy_until
        if start < now:
            start = now
        req.start_service = start

        if bank.open_row == coord.row:
            req.kind = "hit"
            stats.row_hits += 1
            bank.hit_streak += 1
            rd = start
        elif bank.open_row is None:
            req.kind = "miss"
            stats.row_misses += 1
            act = start
            min_act = bank.act_time + self._tRC
            if act < min_act:
                act = min_act
            # _do_activate, inlined.
            bank.open_row = coord.row
            bank.act_time = act
            bank.hit_streak = 1
            stats.activations += 1
            self.defense.on_activate(bank.rank, bank.flat_id, coord.row,
                                     act)
            rd = act + self._tRCD
        else:
            req.kind = "conflict"
            stats.row_conflicts += 1
            pre = start
            min_pre = bank.act_time + self._tRAS
            if pre < min_pre:
                pre = min_pre
            closed_row = bank.open_row
            bank.close()
            stats.precharges += 1
            self.defense.on_precharge(coord.rank, req.flat, closed_row,
                                      pre)
            act = pre + self._tRP
            # _do_activate, inlined.
            bank.open_row = coord.row
            bank.act_time = act
            bank.hit_streak = 1
            stats.activations += 1
            self.defense.on_activate(bank.rank, bank.flat_id, coord.row,
                                     act)
            rd = act + self._tRCD

        tBL = self._tBL
        data_start = self._reserve_bus(rd + self._tCL, tBL, now)
        done = data_start + tBL
        busy = rd + tBL
        if bank.busy_until < busy:
            bank.busy_until = busy
            rank = bank.rank_state
            if rank.drain < busy:
                rank.drain = busy

        if req.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.requests_served += 1
        req.complete = done
        self._sched_call_at(done + self._frontend, req.callback, req)

    def _reserve_bus(self, earliest: int, duration: int,
                     now: int | None = None) -> int:
        """Book the earliest bus slot of ``duration`` at or after
        ``earliest``; returns the slot's start time."""
        starts = self._bus_starts
        ends = self._bus_ends
        if ends:
            if now is None:
                now = self.sim.now
            if ends[0] <= now:
                # Prune *every* expired reservation (ends are sorted,
                # see the attribute comment), not just the front one --
                # an expired entry can never constrain a future slot,
                # and keeping them would let the list grow without
                # bound.
                cut = bisect_right(ends, now)
                del starts[:cut]
                del ends[:cut]
            if ends and earliest >= ends[-1]:
                # Fast path: the bus is free at or before ``earliest``
                # (the overwhelmingly common closed-loop probe case).
                starts.append(earliest)
                ends.append(earliest + duration)
                return earliest
        start = earliest
        insert_at = len(starts)
        for i, res_start in enumerate(starts):
            if start + duration <= res_start:
                insert_at = i
                break
            res_end = ends[i]
            if res_end > start:
                start = res_end
        starts.insert(insert_at, start)
        ends.insert(insert_at, start + duration)
        return start

_new_request = object.__new__


class _NullDefense:
    """Default no-op defense installed before :meth:`attach_defense`."""

    def on_activate(self, rank: int, bank: int, row: int, t: int) -> None:
        pass

    def on_precharge(self, rank: int, bank: int, row: int, t: int) -> None:
        pass

    def on_refresh(self, rank: int, t: int) -> None:
        pass
