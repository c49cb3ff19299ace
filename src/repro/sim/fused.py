"""The fused event loop: :meth:`System.advance` for plain and watched runs.

:meth:`~repro.sim.system.System.advance` has two loops over the same
state — the same ``heapq`` of ``(time, seq, kind, payload, aux)``
tuples and the same :class:`~repro.cpu.thread.ThreadModel`,
:class:`~repro.workloads.synthetic.AddressStream`,
:class:`~repro.dram.bank.Bank`, :class:`~repro.dram.channel.Channel`
and :class:`~repro.core.monitor.BehaviorMonitor` objects:

* the **dispatch loop** sends every event through the ``System``
  methods (``_issue_miss``, ``_try_schedule``, ...), which call the
  component methods, so every seam a wrapper can intercept is there;
* the **fused loop** (:func:`advance_fused`) performs the same
  statements with the call frames between them removed: the miss
  issue, the address stream, the stream prefetcher, the non-detailed
  bank access, the monitor's bookkeeping and in-order retirement are
  inlined over cached locals.

The fused loop runs unless detailed DRAM timings (the one feature it
does not implement) are on, or a component subclass or per-instance
wrapper could miss a call (:func:`fusable`).  Scheduler policy code
stays in charge: ``select`` and every lifecycle hook a policy overrides
are called exactly where the dispatch loop calls them (base-class no-op
hooks are skipped).  Observer hooks (:mod:`repro.sim.observer`), the
tracer's grant and write-drain events and epoch samples fire at the
dispatch loop's sites too, and quantum boundaries go through the
``System`` method.  Both loops execute the same operations in the same
order — same event order, same RNG draws, same float arithmetic, same
hook calls — which the parity suites
(``tests/engine/test_backend_parity.py``,
``tests/engine/test_instrument_parity.py``) pin bit-identical.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress, repeat

from repro.core.monitor import BehaviorMonitor
from repro.cpu.prefetch import (
    _BUFFER_BLOCKS, _THROTTLE_ACCURACY, _THROTTLE_WARMUP, _TRIGGER_STREAK,
    PREFETCH_HIT_LATENCY, PrefetchStats, StreamPrefetcher,
)
from repro.cpu.stats import ThreadStats
from repro.cpu.thread import JITTER, ThreadModel
from repro.dram.bank import Bank, BankAccess
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler
from repro.workloads.rng import _INV_2_53
from repro.workloads.synthetic import AddressStream


def _callable_names(cls) -> frozenset:
    """The names of ``cls``'s callable attributes (methods, nested
    classes, ...), gathered in C: no frame per attribute."""
    names = dir(cls)
    return frozenset(compress(names, map(
        callable, map(getattr, repeat(cls), names, repeat(None)))))


def _shadowed(obj, names: frozenset) -> bool:
    """True when an instance attribute hides one of ``names``, the
    callable attributes of ``obj``'s class: a per-instance wrapper (the
    end-to-end benchmark's traced run, fault injection)."""
    return not names.isdisjoint(vars(obj))


def fusable(system) -> bool:
    """True when the fused loop cannot be told apart from the dispatch
    loop.

    Requires non-detailed timings; every component exactly its base
    class and built on the system's config; and no per-instance method
    override on the system, scheduler or any component (prefetchers
    included).  Tracers, samplers and observers run on either loop, the
    sampling profiler (:mod:`repro.prof.profiler`) among them: it wraps
    nothing.  Each class's callable names are gathered once per call
    and met with each instance dict in one C call.
    """
    config = system.config
    if config.timings.detailed:
        return False
    monitor = system.monitor
    scheduler = system.scheduler
    if (
        type(monitor) is not BehaviorMonitor
        or _shadowed(system, _callable_names(type(system)))
        or _shadowed(scheduler, _callable_names(type(scheduler)))
        or _shadowed(monitor, _callable_names(BehaviorMonitor))
    ):
        return False
    if system.prefetchers:
        prefetcher_names = _callable_names(StreamPrefetcher)
        for prefetcher in system.prefetchers:
            if (
                type(prefetcher) is not StreamPrefetcher
                or type(prefetcher.stats) is not PrefetchStats
                or _shadowed(prefetcher, prefetcher_names)
            ):
                return False
    thread_names = _callable_names(ThreadModel)
    stream_names = _callable_names(AddressStream)
    stats_names = _callable_names(ThreadStats)
    for thread in system.threads:
        if (
            type(thread) is not ThreadModel
            or thread.config is not config
            or type(thread._addr) is not AddressStream
            or type(thread.stats) is not ThreadStats
            or _shadowed(thread, thread_names)
            or _shadowed(thread._addr, stream_names)
            or _shadowed(thread.stats, stats_names)
        ):
            return False
    channel_names = _callable_names(Channel)
    bank_names = _callable_names(Bank)
    for channel in system.channels:
        if (
            type(channel) is not Channel
            or channel.config is not config
            or _shadowed(channel, channel_names)
        ):
            return False
        for bank in channel.banks:
            if type(bank) is not Bank or _shadowed(bank, bank_names):
                return False
    return True


# -- [engine.setup] the call's cached locals and hook sites
def advance_fused(system, limit: int) -> None:
    """Dispatch every pending event with ``time <= limit``, inlined.

    Mirrors ``System._issue_miss`` / ``_try_schedule`` /
    ``_complete_request`` with ``ThreadModel.try_issue`` /
    ``issue_gap`` / ``on_request_completed``,
    ``AddressStream.next_location``, ``StreamPrefetcher.observe`` /
    ``consume`` / ``try_merge`` / ``fill``, the non-detailed
    ``Channel.start_service`` / ``Bank.begin_access`` and the
    ``BehaviorMonitor`` hooks, statement for statement.  Writes are
    rarer than reads, so the write buffer keeps its ``Channel`` methods.
    The event counter lives on the system (``system._seq``), so timers
    a policy pushes from its hooks interleave with the inlined pushes.

    The observer hook tuples and the tracer are read once per call; a
    grant builds its :class:`~repro.dram.bank.BankAccess` only for
    ``on_grant`` hooks, setting its slots without entering ``__init__``,
    and the ``on_event`` hooks are called with the popped tuple from the
    loop itself, so a run without them pays one branch per event.
    Calls that would do nothing enter no frame: an issue event whose
    window is full with no phase change due sets ``window_blocked`` in
    the loop, an arrival or a prefetch tests its bank's ``busy_until``
    before calling ``try_schedule``.

    Each ``# -- [layer.block]`` comment tags the block that runs to the
    next tag; the self-profiler (:mod:`repro.prof.profiler`) charges a
    sample taken on a line of the block to its tag.
    """
    from repro.sim.system import (
        _EV_BANK_FREE, _EV_DONE, _EV_ISSUE, _EV_PHIT, _EV_QUANTUM,
        _EV_SAMPLE, _EV_TIMER,
    )

    events = system._events
    config = system.config
    timings = config.timings
    t_rp = timings.t_rp
    t_rcd = timings.t_rcd
    burst = timings.burst
    fixed_overhead = timings.fixed_overhead
    page_closed = timings.page_policy == "closed"
    banks_per_channel = config.banks_per_channel
    num_banks = config.num_banks
    num_rows = config.num_rows
    ipc_peak = config.ipc_peak
    phased = config.phase_mean_cycles > 0
    model_writes = config.model_writes
    writeback_ratio = config.writeback_ratio
    wb_rng = system._wb_rng
    jitter_low, jitter_high = JITTER
    jitter_span = jitter_high - jitter_low
    threads = system.threads
    prefetchers = system.prefetchers
    channels = system.channels
    queues_by_ch = [channel.queues for channel in channels]
    banks_by_ch = [channel.banks for channel in channels]
    latency_sum = system._latency_sum
    latency_count = system._latency_count

    scheduler = system.scheduler
    cls = type(scheduler)
    # at each site the policy's hook (None when the policy keeps the
    # base no-op), then the observers' (System._bind_hooks builds the
    # tuples): a site nobody hooks costs an is-None and an empty-tuple
    # branch
    on_arrival = (
        scheduler.on_request_arrival
        if cls.on_request_arrival is not Scheduler.on_request_arrival
        else None
    )
    on_scheduled = (
        scheduler.on_request_scheduled
        if cls.on_request_scheduled is not Scheduler.on_request_scheduled
        else None
    )
    on_complete = (
        scheduler.on_request_complete
        if cls.on_request_complete is not Scheduler.on_request_complete
        else None
    )
    select = scheduler.select
    new_access = object.__new__
    arrival_hooks = system._on_arrival
    complete_hooks = system._on_complete
    decision_hooks = system._on_decision
    event_hooks = system._on_event
    grant_hooks = system._on_grant
    write_hooks = system._on_write
    timer_hooks = system._on_timer
    tracer = system._tracer

    # monitor structures that are never rebound; reset_quantum swaps
    # the inner per-channel lists and the per-quantum BLP lists, which
    # are therefore reached through their owners at use (the monitor
    # keeps no lifetime twins: reset_quantum folds the quantum in)
    monitor = system.monitor
    shadow_rows = monitor._shadow_rows
    shadow_accesses = monitor.shadow_accesses
    shadow_hits = monitor.shadow_hits
    service_cycles = monitor.service_cycles
    bank_outstanding = monitor._bank_outstanding
    active_banks = monitor._active_banks
    outstanding = monitor._outstanding
    last_update = monitor._last_update

    # -- [dram.grant] System._try_schedule + Channel.start_service +
    # Bank.begin_access (non-detailed) + monitor service
    def try_schedule(channel_id, bank_id, time):
        bank = banks_by_ch[channel_id][bank_id]
        if time < bank.busy_until:
            return
        queue = queues_by_ch[channel_id][bank_id]
        if not queue:
            # -- [dram.write] reads first (paper Table 3); drain a write
            # when the bank would otherwise idle
            if model_writes:
                channel = channels[channel_id]
                write = channel.next_write_for(bank_id)
                if write is not None:
                    access = channel.start_write_service(write, time)
                    data_end = access.data_end
                    if tracer is not None:
                        tracer.emit(
                            "dram_cmd", time, ch=channel_id, bank=bank_id,
                            row=write.row, tid=write.thread_id,
                            kind=access.kind, start=time, end=data_end,
                            write=True,
                        )
                    for hook in write_hooks:
                        hook(write, access, time)
                    seq = system._seq + 1
                    system._seq = seq
                    heappush(events, (data_end, seq, _EV_BANK_FREE,
                                      channel_id, bank_id))
            return
        # -- [dram.grant] the policy's select, then the bank access
        channel = channels[channel_id]
        request = select(channel, bank_id, time)
        if decision_hooks:
            # before start_service: the candidate queue is still intact
            for hook in decision_hooks:
                hook(channel, bank_id, request, time)
        queue.remove(request)  # a request equals only itself
        row = request.row
        tid = request.thread_id
        open_row = bank.open_row
        if open_row is None:
            bank.last_activate = time
            prep_done = time + t_rcd
            bank.row_closed += 1
        elif open_row == row:
            prep_done = time
            bank.row_hits += 1
        else:
            activate = time + t_rp
            bank.last_activate = activate
            prep_done = activate + t_rcd
            bank.row_conflicts += 1
        bus_free = channel.bus_free_until
        data_end = (prep_done if prep_done >= bus_free else bus_free) + burst
        if grant_hooks:
            # Bank.begin_access + Channel._begin_access's BankAccess,
            # from the row and bus owners this grant replaces; its slots
            # are set here rather than through BankAccess.__init__
            data_start = data_end - burst
            access = new_access(BankAccess)
            access.data_start = data_start
            access.data_end = data_end
            access.prep_done = prep_done
            if open_row is None:
                access.kind = "closed"
                access.activate_time = time
                access.row_blocker = None
            elif open_row == row:
                access.kind = "hit"
                access.activate_time = None
                access.row_blocker = None
            else:
                access.kind = "conflict"
                access.activate_time = bank.last_activate
                access.row_blocker = bank.open_row_owner
            access.bus_blocker = (channel.bus_owner
                                  if data_start > prep_done else None)
        if page_closed:
            bank.open_row = None
            bank.open_row_owner = None
        else:
            bank.open_row = row
            bank.open_row_owner = tid
        bank.busy_until = data_end
        busy_cycles = data_end - time
        bank.busy_cycles += busy_cycles
        channel.bus_owner = tid
        channel.bus_free_until = data_end
        request.start_service = time
        completion = data_end + fixed_overhead
        request.completion = completion
        channel.serviced_requests += 1
        if tracer is not None:
            kind = ("closed" if open_row is None
                    else "hit" if open_row == row else "conflict")
            tracer.write_row("grant", (time, channel_id, bank_id, tid,
                                       len(queue) + 1, row, kind, data_end))
        # -- [engine.monitor] BehaviorMonitor.on_request_service
        service_cycles[channel_id][tid] += busy_cycles
        # -- [dram.grant] the grant hooks and the bank's next events
        if on_scheduled is not None:
            on_scheduled(request, queue, busy_cycles, time)
        if grant_hooks:
            for hook in grant_hooks:
                hook(request, queue, access, completion, time)
        seq = system._seq
        system._seq = seq + 2
        heappush(events,
                 (data_end, seq + 1, _EV_BANK_FREE, channel_id, bank_id))
        heappush(events, (completion, seq + 2, _EV_DONE, request, 0))

    # -- [cpu.issue] ThreadModel.try_issue: the window check and the
    # issue
    def issue_miss(tid, time):
        # System._issue_miss + ThreadModel.try_issue / issue_gap +
        # AddressStream.next_location + StreamPrefetcher.observe /
        # consume / try_merge + monitor arrival
        thread = threads[tid]
        if phased and time >= thread._phase_end:
            thread._maybe_change_phase(time)
        rob = thread._rob
        if len(rob) >= thread.max_outstanding:
            thread.window_blocked = True
            return  # window full: the retry happens at a completion
        thread.window_blocked = False
        issue_id = thread.issued + 1
        thread.issued = issue_id
        rob.append(thread._pending_credit)
        thread._last_issue_time = time
        # -- [cpu.address] AddressStream.next_location
        addr = thread._addr
        rng = addr._rng
        pos = addr._pos
        if pos >= addr._spread:
            pos = 0
            spread = addr._spread_lo
            if spread != addr._spread_hi and rng.random() < addr._spread_frac:
                spread = addr._spread_hi
            addr._spread = spread
        gbank = (addr._base + pos) % num_banks
        addr._pos = pos + 1
        addr.accesses += 1
        last_row = addr._last_row
        last = last_row.get(gbank)
        if last is None:
            row = rng.integers(num_rows)
            last_row[gbank] = row
        else:
            i = rng._i
            if i < rng._n:  # BufferedPCG64.random(), buffer hit inlined
                rng._i = i + 1
                draw = (rng._buf[i] >> 11) * _INV_2_53
            else:
                draw = rng.random()
            if draw < addr._reuse_prob:
                addr.row_reuses += 1
                row = last
            else:
                # row exhausted: next row, and the bank window drifts
                row = (last + 1) % num_rows
                last_row[gbank] = row
                departed = addr._base
                addr._base = (departed + 1) % num_banks
                last_row.pop(departed, None)
                addr.drifts += 1
        channel_id = gbank // banks_per_channel
        bank_id = gbank % banks_per_channel
        to_dram = True
        if prefetchers is not None:
            # -- [cpu.prefetch] StreamPrefetcher.observe: keep the
            # prefetcher topped up whichever path the miss takes
            prefetcher = prefetchers[tid]
            pf_stats = prefetcher.stats
            inflight = prefetcher._inflight
            waiters = prefetcher._waiters
            credits = prefetcher._credits
            location = (channel_id, bank_id, row)
            key = (channel_id, bank_id)
            streams = prefetcher._streams
            streak_row, streak = streams.get(key, (None, 0))
            if streak_row == row:
                streak += 1
            else:
                streak = 1
                if credits:  # the stream moved on: evict stale blocks
                    prefetcher._evict_bank(channel_id, bank_id, row)
            streams[key] = (row, streak)
            if streak >= _TRIGGER_STREAK:
                issued = pf_stats.issued
                if (
                    issued >= _THROTTLE_WARMUP
                    and pf_stats.useful / issued < _THROTTLE_ACCURACY
                ):
                    prefetcher.throttled = True
                if not prefetcher.throttled:
                    top_up = prefetcher.degree - (
                        inflight.get(location, 0)
                        - len(waiters.get(location, ()))
                        + credits.get(location, 0)
                    )
                    if (
                        top_up > 0
                        and prefetcher._credit_total < _BUFFER_BLOCKS
                    ):
                        inflight[location] = (inflight.get(location, 0)
                                              + top_up)
                        pf_stats.issued += top_up
                        # -- [cpu.prefetch] System._inject_prefetches
                        queue = queues_by_ch[channel_id][bank_id]
                        bank = banks_by_ch[channel_id][bank_id]
                        for _ in range(top_up):
                            prefetch = MemoryRequest(
                                tid, channel_id, bank_id, row, time,
                                is_prefetch=True,
                            )
                            queue.append(prefetch)
                            if on_arrival is not None:
                                on_arrival(prefetch, time)
                            if arrival_hooks:
                                for hook in arrival_hooks:
                                    hook(prefetch, time)
                            if time >= bank.busy_until:  # else a no-op
                                try_schedule(channel_id, bank_id, time)
            # -- [cpu.prefetch] StreamPrefetcher.consume / try_merge
            count = credits.get(location, 0)
            if count > 0:
                if count > 1:
                    credits[location] = count - 1
                else:
                    del credits[location]
                prefetcher._credit_total -= 1
                pf_stats.useful += 1
                # the block was prefetched: completes at on-chip latency
                seq = system._seq + 1
                system._seq = seq
                heappush(events, (time + PREFETCH_HIT_LATENCY, seq, _EV_PHIT,
                                  tid, issue_id))
                to_dram = False
            elif inflight.get(location, 0) > len(waiters.get(location, ())):
                # merged into an in-flight prefetch (MSHR merge): no new
                # DRAM request; completes when the prefetch fills
                waiters.setdefault(location, []).append(issue_id)
                pf_stats.useful += 1
                to_dram = False
        # -- [dram.enqueue] the miss enters its bank queue
        if to_dram:
            request = MemoryRequest(tid, channel_id, bank_id, row, time,
                                    issue_id)
            queues_by_ch[channel_id][bank_id].append(request)
            # -- [engine.monitor] BehaviorMonitor.on_request_arrival
            shadow = shadow_rows[channel_id][tid]
            shadow_accesses[channel_id][tid] += 1
            if shadow.get(bank_id) == row:
                shadow_hits[channel_id][tid] += 1
            shadow[bank_id] = row
            dt = time - last_update[tid]
            if dt > 0 and outstanding[tid] > 0:
                monitor._blp_integral[tid] += active_banks[tid] * dt
                monitor._busy_time[tid] += dt
            last_update[tid] = time
            gbank = channel_id * banks_per_channel + bank_id
            counts = bank_outstanding[tid]
            count = counts.get(gbank, 0) + 1
            counts[gbank] = count
            if count == 1:
                active_banks[tid] += 1
            outstanding[tid] += 1
            # -- [dram.enqueue] the arrival hooks, a dirty line's
            # writeback and the bank's grant
            if on_arrival is not None:
                on_arrival(request, time)
            if arrival_hooks:
                for hook in arrival_hooks:
                    hook(request, time)
            if model_writes and wb_rng.random() < writeback_ratio:
                # the miss evicts a dirty line: buffer its writeback
                # (same bank as the fill; the evicted line's row is
                # unrelated)
                channels[channel_id].enqueue_write(MemoryRequest(
                    tid, channel_id, bank_id, int(wb_rng.integers(num_rows)),
                    time, is_write=True,
                ))
            if time >= banks_by_ch[channel_id][bank_id].busy_until:
                try_schedule(channel_id, bank_id, time)  # else a no-op
        # -- [cpu.issue_gap] ThreadModel.issue_gap
        gap = thread._current_ipm / ipc_peak
        rng = thread._rng
        i = rng._i
        if i < rng._n:
            rng._i = i + 1
            draw = (rng._buf[i] >> 11) * _INV_2_53
        else:
            draw = rng.random()
        gap *= jitter_low + jitter_span * draw
        gap += thread._gap_carry
        cycles = int(gap)
        if cycles < 1:
            cycles = 1
        thread._gap_carry = gap - cycles
        thread._pending_credit = cycles * ipc_peak
        thread.program_time += cycles
        seq = system._seq + 1
        system._seq = seq
        heappush(events, (time + cycles, seq, _EV_ISSUE, tid, 0))

    # -- [cpu.retire] a completion reaches its core
    def complete(request, time):
        # System._complete_request + BehaviorMonitor.on_request_complete
        # + StreamPrefetcher.fill + ThreadModel.on_request_completed +
        # ThreadStats.retire
        tid = request.thread_id
        if request.is_prefetch:
            if on_complete is not None:
                on_complete(request, time)
            if complete_hooks:
                for hook in complete_hooks:
                    hook(request, time)
            # -- [cpu.prefetch] StreamPrefetcher.fill: the block goes to
            # the prefetch buffer, or wakes a demand miss merged with
            # this prefetch
            prefetcher = prefetchers[tid]
            location = (request.channel_id, request.bank_id, request.row)
            inflight = prefetcher._inflight
            count = inflight.get(location, 0)
            if count > 1:
                inflight[location] = count - 1
            elif count == 1:
                del inflight[location]
            waiters = prefetcher._waiters
            waiting = waiters.get(location)
            if waiting:
                issue_id = waiting.pop(0)
                if not waiting:
                    del waiters[location]
                retire(tid, issue_id, time)
            elif prefetcher._credit_total >= _BUFFER_BLOCKS:
                prefetcher.stats.evicted += 1
            else:
                credits = prefetcher._credits
                credits[location] = credits.get(location, 0) + 1
                prefetcher._credit_total += 1
            return
        # -- [engine.monitor] BehaviorMonitor.on_request_complete
        dt = time - last_update[tid]
        if dt > 0 and outstanding[tid] > 0:
            monitor._blp_integral[tid] += active_banks[tid] * dt
            monitor._busy_time[tid] += dt
        last_update[tid] = time
        gbank = request.channel_id * banks_per_channel + request.bank_id
        counts = bank_outstanding[tid]
        count = counts[gbank] - 1
        if count:
            counts[gbank] = count
        else:
            del counts[gbank]
            active_banks[tid] -= 1
        outstanding[tid] -= 1
        # -- [cpu.retire] the completion hooks, the latency books and
        # in-order retirement: ThreadModel.on_request_completed +
        # ThreadStats.retire
        if on_complete is not None:
            on_complete(request, time)
        if complete_hooks:
            for hook in complete_hooks:
                hook(request, time)
        latency_sum[tid] += time - request.arrival
        latency_count[tid] += 1
        thread = threads[tid]
        rob = thread._rob
        if not rob:
            raise RuntimeError(
                f"thread {tid} completion with no outstanding misses"
            )
        head = thread.issued - len(rob) + 1
        if head != request.episode_id:
            # an older miss is still out: retire later, in order
            thread._completed.add(request.episode_id)
            return
        completed = thread._completed
        stats = thread.stats
        credit = thread._instr_credit
        while True:
            credit += rob.popleft()
            instrs = int(credit)
            credit -= instrs
            stats.quantum_instructions += instrs
            stats.quantum_misses += 1
            head += 1
            if not rob or head not in completed:
                break
            completed.discard(head)
        thread._instr_credit = credit
        if thread.window_blocked:
            # the window was stalled on this completion; the next
            # miss's compute is already done, so it issues now
            thread.window_blocked = False
            issue_miss(tid, time)

    # -- [cpu.retire] ThreadModel.on_request_completed +
    # ThreadStats.retire for a prefetch-buffer hit or a merged miss, as
    # complete() retires
    def retire(tid, issue_id, time):
        thread = threads[tid]
        rob = thread._rob
        if not rob:
            raise RuntimeError(
                f"thread {tid} completion with no outstanding misses"
            )
        head = thread.issued - len(rob) + 1
        if head != issue_id:
            # an older miss is still out: retire later, in order
            thread._completed.add(issue_id)
            return
        completed = thread._completed
        stats = thread.stats
        credit = thread._instr_credit
        while True:
            credit += rob.popleft()
            instrs = int(credit)
            credit -= instrs
            stats.quantum_instructions += instrs
            stats.quantum_misses += 1
            head += 1
            if not rob or head not in completed:
                break
            completed.discard(head)
        thread._instr_credit = credit
        if thread.window_blocked:
            # the window was stalled on this completion; the next
            # miss's compute is already done, so it issues now
            thread.window_blocked = False
            issue_miss(tid, time)

    # -- [engine.loop] pop the next event, move the clock, dispatch it
    pop = heappop
    while events and events[0][0] <= limit:
        event = pop(events)
        time, _seq, kind, payload, aux = event
        system.now = time
        if event_hooks:
            # on_event fires once the clock has moved, before dispatch
            for hook in event_hooks:
                hook(event)
        if kind == _EV_ISSUE:
            # -- [cpu.issue] ThreadModel.try_issue's window check, when
            # no phase change is due: a full window issues nothing (the
            # retry happens at a completion), so enters no frame
            thread = threads[payload]
            if (
                len(thread._rob) >= thread.max_outstanding
                and (not phased or time < thread._phase_end)
            ):
                thread.window_blocked = True
                continue
            # -- [engine.loop] dispatch the event
            issue_miss(payload, time)
        elif kind == _EV_DONE:
            complete(payload, time)
        elif kind == _EV_BANK_FREE:
            try_schedule(payload, aux, time)
        elif kind == _EV_PHIT:
            # a demand miss hit the prefetch buffer
            retire(payload, aux, time)
        elif kind == _EV_QUANTUM:
            system._quantum_boundary()
        elif kind == _EV_TIMER:
            # tuple keys are observer-owned (explain's shadows)
            if type(payload) is not tuple:
                scheduler.on_timer(time, payload)
            for hook in timer_hooks:
                hook(time, payload)
        elif kind == _EV_SAMPLE:
            system._take_sample()
