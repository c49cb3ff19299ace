"""The fast backend's run loops.

Two drivers over the same :class:`~repro.engine.wheel.TimingWheel`:

* :func:`_drive_observed` — the reference event loop with the heap
  swapped for the wheel.  Every event still dispatches through the
  ``System`` methods (``_issue_miss``, ``_try_schedule``, ...), so
  per-instance wrappers installed by the invariant oracle
  (:mod:`repro.validate.oracle`) and the self-profiler
  (:mod:`repro.prof`) keep intercepting exactly as on the reference
  backend, and tracer, sampler and observer sites run unchanged.
* :func:`_drive_bare` — the fully inlined loop used when nothing is
  watching: no tracer, observer or sampler, no prefetchers, write
  modelling or detailed timings, and no per-instance method
  overrides.  The wheel drain, the event dispatch, the CPU
  sliding-window model, the address stream, the non-detailed DRAM
  timing path and the behaviour monitor's bookkeeping are unrolled
  into one closure nest over cached locals — while still mutating the
  *same* ``Bank`` / ``Channel`` / ``BehaviorMonitor`` / ``ThreadStats``
  objects, so polled telemetry providers and the end-of-run results
  assembly read identical state.

Both drivers execute the reference semantics operation-for-operation
(same event order, same RNG draws, same float arithmetic in the same
order), which the cross-backend parity suite pins bit-identical.
:func:`drive` picks the loop per run; eligibility is decided from the
system's observer surface (see :func:`bare_eligible`).

Scheduler policy code remains fully in charge: ``select`` and every
overridden lifecycle hook are called exactly as the reference loop
calls them.  Hooks may push events (``System.schedule_timer``); the
bare loop hands its event bookkeeping back to the wheel around each
hook call so those pushes interleave correctly.  ``select`` /
``priority`` are assumed to be pure decision functions (they are for
every policy in the registry — the differential suite would catch a
violation as a parity break).
"""

from __future__ import annotations

import heapq

from repro.cpu.thread import MAX_OUTSTANDING_MISSES
from repro.dram.request import MemoryRequest
from repro.engine.rng import _INV_2_53
from repro.engine.wheel import _SAMPLE_FLAG, scan_occupancy
from repro.schedulers.base import Scheduler

#: (object-attribute path, method names) whose per-instance shadowing
#: forces the observed loop — the bare loop inlines past these seams.
_SYSTEM_SEAMS = (
    "_issue_miss", "_inject_prefetches", "_try_schedule",
    "_complete_request", "_quantum_boundary", "_push", "_push_sample",
    "schedule_timer", "_take_sample",
)
_SCHEDULER_SEAMS = (
    "select", "on_request_arrival", "on_request_scheduled",
    "on_request_complete", "on_quantum", "on_timer",
)
_CHANNEL_SEAMS = (
    "enqueue", "enqueue_write", "start_service", "start_write_service",
    "_begin_access", "next_write_for",
)
_BANK_SEAMS = ("begin_access", "is_idle", "classify")
_MONITOR_SEAMS = (
    "on_request_arrival", "on_request_service", "on_request_complete",
)


def _overridden(obj, names) -> bool:
    d = getattr(obj, "__dict__", None)
    if not d:
        return False
    return any(name in d for name in names)


def bare_eligible(system) -> bool:
    """True when the inlined loop preserves observable behaviour.

    The tracer or any attached observer (:mod:`repro.sim.observer`),
    the epoch sampler or another optional subsystem (prefetchers, write
    modelling, detailed timings), or a per-instance method wrapper
    (oracle, profiler, test doubles) routes the run through the
    observed loop instead.
    """
    if system._tracer is not None or system.observers:
        return False
    if (
        system._sampler is not None
        or system.prefetchers is not None
        or system.config.model_writes
        or system.config.timings.detailed
    ):
        return False
    if _overridden(system, _SYSTEM_SEAMS):
        return False
    if _overridden(system.scheduler, _SCHEDULER_SEAMS):
        return False
    if _overridden(system.monitor, _MONITOR_SEAMS):
        return False
    for channel in system.channels:
        if _overridden(channel, _CHANNEL_SEAMS):
            return False
        for bank in channel.banks:
            if _overridden(bank, _BANK_SEAMS):
                return False
    return True


def drive(system, horizon: int) -> None:
    """Run the fast backend's event loop up to ``horizon``.

    The cyclic-garbage collector is paused for the duration: the loop
    allocates short-lived tuples and requests at a rate that triggers
    constant gen-0 scans, and none of the engine's object graphs are
    cyclic (everything is freed by refcount).  The previous GC state is
    restored on every exit path.
    """
    import gc

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if bare_eligible(system):
            _drive_bare(system, horizon)
        else:
            _drive_observed(system, horizon)
    finally:
        if was_enabled:
            gc.enable()


def _drive_observed(system, horizon: int) -> None:
    """Wheel-driven loop dispatching through the ``System`` seams."""
    from repro.sim.system import (
        _EV_BANK_FREE, _EV_DONE, _EV_ISSUE, _EV_PHIT, _EV_QUANTUM,
        _EV_TIMER,
    )

    threads = system.threads
    scheduler = system.scheduler
    on_event = system._on_event
    on_timer = system._on_timer

    def handler(time, kind, payload, aux):
        system.now = time
        if on_event:
            for hook in on_event:
                hook(time, kind, payload, aux)
        if kind == _EV_ISSUE:
            system._issue_miss(payload)
        elif kind == _EV_BANK_FREE:
            system._try_schedule(payload, aux)
        elif kind == _EV_DONE:
            system._complete_request(payload)
        elif kind == _EV_QUANTUM:
            system._quantum_boundary()
        elif kind == _EV_TIMER:
            # tuple keys are observer-owned (explain's shadows)
            if type(payload) is not tuple:
                scheduler.on_timer(time, payload)
            for hook in on_timer:
                hook(time, payload)
        elif kind == _EV_PHIT:
            if threads[payload].on_request_completed(aux):
                system._issue_miss(payload)
        else:  # _EV_SAMPLE
            system._take_sample()

    system._wheel.drain(handler, horizon)


def _drive_bare(system, limit: int) -> None:
    """Fully inlined loop for unobserved runs.

    Mirrors the reference engine statement-for-statement —
    ``System._issue_miss`` / ``_try_schedule`` / ``_complete_request``,
    ``ThreadModel`` issue/retire, ``AddressStream.next_location``,
    non-detailed ``Channel.start_service`` / ``Bank.begin_access`` and
    ``BehaviorMonitor`` hooks — with the call frames between them
    removed and attribute chains hoisted into closure locals.

    Event bookkeeping (push counter, queued-event count, wheel cursor)
    is kept in local variables and written back to the wheel around
    every policy hook call, so hooks that push events via the regular
    ``System.schedule_timer`` path compose with the inline pushes.
    """
    batch = system._batch
    wheel = system._wheel
    monitor = system.monitor
    scheduler = system.scheduler
    channels = system.channels
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
    select = scheduler.select
    on_timer = scheduler.on_timer
    latency_sum = system._latency_sum
    latency_count = system._latency_count
    quantum_boundary = system._quantum_boundary
    queues_by_ch = [channel.queues for channel in channels]
    banks_by_ch = [channel.banks for channel in channels]
    heappush = heapq.heappush
    heappop = heapq.heappop

    # scheduler hooks that are base-class no-ops are skipped entirely
    cls = type(scheduler)
    hook_arrival = (
        scheduler.on_request_arrival
        if cls.on_request_arrival is not Scheduler.on_request_arrival
        else None
    )
    hook_scheduled = (
        scheduler.on_request_scheduled
        if cls.on_request_scheduled is not Scheduler.on_request_scheduled
        else None
    )
    hook_complete = (
        scheduler.on_request_complete
        if cls.on_request_complete is not Scheduler.on_request_complete
        else None
    )

    # CPU batch columns (repro.engine.cpu) — list objects are stable
    MAXW = MAX_OUTSTANDING_MISSES
    ipc_peak = batch.ipc_peak
    phase_mean = batch.phase_mean
    maybe_phase = batch.maybe_change_phase
    rob_len = batch.rob_len
    max_out = batch.max_outstanding
    window_blocked = batch.window_blocked
    issued_col = batch.issued
    head_id = batch.head_id
    completed_mask = batch.completed_mask
    credits = batch.credits
    pending_credit = batch.pending_credit
    gap_carry = batch.gap_carry
    instr_credit = batch.instr_credit
    program_time = batch.program_time
    last_issue = batch.last_issue_time
    current_ipm = batch.current_ipm
    phase_end = batch.phase_end
    stats = batch.stats
    jitters = batch.jitter
    addrs = batch.addr

    # monitor structures that are never rebound (reset_quantum swaps
    # inner per-channel lists and the per-quantum BLP arrays — those
    # are reached through ``monitor`` at use)
    shadow_rows = monitor._shadow_rows
    shadow_accesses = monitor.shadow_accesses
    shadow_hits = monitor.shadow_hits
    service_cycles = monitor.service_cycles
    l_service = monitor.lifetime_service_cycles
    l_accesses = monitor.lifetime_shadow_accesses
    l_hits = monitor.lifetime_shadow_hits
    l_blp = monitor.lifetime_blp_integral
    l_busy = monitor.lifetime_busy_time
    bank_outstanding = monitor._bank_outstanding
    active_banks = monitor._active_banks
    outstanding = monitor._outstanding
    last_update = monitor._last_update

    # wheel internals: cursor, push counter and queued count live in
    # locals (``time``/``seq``/``count``) and are flushed to the wheel
    # around every out-call that may push
    span = wheel.horizon
    buckets = wheel._ordinary
    occ_lo = wheel._occ_lo
    overflow = wheel._overflow
    time = wheel.now
    seq = wheel._seq
    count = wheel._count

    def try_schedule(channel_id, bank_id, time):
        # System._try_schedule + Channel.start_service +
        # Bank.begin_access (non-detailed), inlined
        nonlocal seq, count
        bank = banks_by_ch[channel_id][bank_id]
        if time < bank.busy_until:
            return
        queue = queues_by_ch[channel_id][bank_id]
        if not queue:
            return  # no write path in bare mode
        request = select(channels[channel_id], bank_id, time)
        index = 0
        while queue[index] is not request:  # ids unique: is == ==
            index += 1
        del queue[index]
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
        channel = channels[channel_id]
        bus_free = channel.bus_free_until
        data_start = prep_done if prep_done >= bus_free else bus_free
        data_end = data_start + burst
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
        system.sched_decisions += 1
        service_cycles[channel_id][tid] += busy_cycles
        l_service[tid] += busy_cycles
        if hook_scheduled is not None:
            wheel._seq = seq
            wheel._count = count
            wheel.now = system.now = time
            hook_scheduled(request, queue, busy_cycles, time)
            seq = wheel._seq
            count = wheel._count
        # push (data_end, _EV_BANK_FREE) and (completion, _EV_DONE)
        seq += 2
        count += 2
        if data_end - time < span:
            slot = data_end % span
            bucket = buckets[slot]
            if bucket is None:
                buckets[slot] = [(1, channel_id, bank_id)]
                group = slot >> 6
                lo = occ_lo[group]
                occ_lo[group] = lo | (1 << (slot & 63))
                if not lo:
                    wheel._occ_hi |= 1 << group
            else:
                bucket.append((1, channel_id, bank_id))
        else:
            heappush(overflow, (data_end, seq - 1, (1, channel_id, bank_id)))
        if completion - time < span:
            slot = completion % span
            bucket = buckets[slot]
            if bucket is None:
                buckets[slot] = [(2, request, 0)]
                group = slot >> 6
                lo = occ_lo[group]
                occ_lo[group] = lo | (1 << (slot & 63))
                if not lo:
                    wheel._occ_hi |= 1 << group
            else:
                bucket.append((2, request, 0))
        else:
            heappush(overflow, (completion, seq, (2, request, 0)))

    def issue_miss(tid, time):
        # System._issue_miss + ThreadModel.try_issue/issue_gap +
        # AddressStream.next_location + monitor arrival, inlined
        nonlocal seq, count
        if phase_mean > 0 and time >= phase_end[tid]:
            maybe_phase(tid, time)
        length = rob_len[tid]
        if length >= max_out[tid]:
            window_blocked[tid] = True
            return  # window full: the retry happens at completion
        window_blocked[tid] = False
        issue_id = issued_col[tid] + 1
        issued_col[tid] = issue_id
        if length == 0:
            head_id[tid] = issue_id
        credits[tid * MAXW + issue_id % MAXW] = pending_credit[tid]
        rob_len[tid] = length + 1
        last_issue[tid] = time
        # -- AddressStream.next_location
        addr = addrs[tid]
        pos = addr._pos
        if pos >= addr._spread:
            pos = 0
            spread_lo = addr._spread_lo
            if spread_lo == addr._spread_hi:
                addr._spread = spread_lo
            else:
                addr._spread = (
                    addr._spread_hi
                    if addr._rng.random() < addr._spread_frac
                    else spread_lo
                )
        gbank = (addr._base + pos) % num_banks
        addr._pos = pos + 1
        addr.accesses += 1
        last_row = addr._last_row
        last = last_row.get(gbank)
        if last is None:
            row = addr._rng.integers(num_rows)
            last_row[gbank] = row
        else:
            # BufferedPCG64.random(), buffer hit inlined
            rng = addr._rng
            i = rng._i
            if i < rng._n:
                rng._i = i + 1
                draw = (rng._buf[i] >> 11) * _INV_2_53
            else:
                draw = rng.random()
            if draw < addr._reuse_prob:
                addr.row_reuses += 1
                row = last
            else:
                row = (last + 1) % num_rows
                last_row[gbank] = row
                last_row.pop(addr._base, None)
                addr._base = (addr._base + 1) % num_banks
                addr.drifts += 1
        channel_id = gbank // banks_per_channel
        bank_id = gbank % banks_per_channel
        # -- enqueue + monitor arrival
        request = MemoryRequest(
            tid, channel_id, bank_id, row, time, issue_id
        )
        queues_by_ch[channel_id][bank_id].append(request)
        shadow = shadow_rows[channel_id][tid]
        shadow_accesses[channel_id][tid] += 1
        l_accesses[tid] += 1
        if shadow.get(bank_id) == row:
            shadow_hits[channel_id][tid] += 1
            l_hits[tid] += 1
        shadow[bank_id] = row
        dt = time - last_update[tid]
        if dt > 0 and outstanding[tid] > 0:
            weighted = active_banks[tid] * dt
            monitor._blp_integral[tid] += weighted
            monitor._busy_time[tid] += dt
            l_blp[tid] += weighted
            l_busy[tid] += dt
        last_update[tid] = time
        gbank_key = channel_id * banks_per_channel + bank_id
        counts = bank_outstanding[tid]
        bank_count = counts.get(gbank_key, 0) + 1
        counts[gbank_key] = bank_count
        if bank_count == 1:
            active_banks[tid] += 1
        outstanding[tid] += 1
        if hook_arrival is not None:
            wheel._seq = seq
            wheel._count = count
            wheel.now = system.now = time
            hook_arrival(request, time)
            seq = wheel._seq
            count = wheel._count
        try_schedule(channel_id, bank_id, time)
        # -- ThreadModel.issue_gap
        gap = current_ipm[tid] / ipc_peak
        jitter = jitters[tid]
        i = jitter._i
        if i < jitter._n:  # BufferedUniform.next(), buffer hit inlined
            jitter._i = i + 1
            gap *= jitter._buf[i]
        else:
            gap *= jitter.next()
        gap += gap_carry[tid]
        cycles = int(gap)
        if cycles < 1:
            cycles = 1
        gap_carry[tid] = gap - cycles
        pending_credit[tid] = cycles * ipc_peak
        program_time[tid] += cycles
        # push (time + cycles, _EV_ISSUE)
        seq += 1
        count += 1
        if cycles < span:
            slot = (time + cycles) % span
            bucket = buckets[slot]
            if bucket is None:
                buckets[slot] = [(0, tid, 0)]
                group = slot >> 6
                lo = occ_lo[group]
                occ_lo[group] = lo | (1 << (slot & 63))
                if not lo:
                    wheel._occ_hi |= 1 << group
            else:
                bucket.append((0, tid, 0))
        else:
            heappush(overflow, (time + cycles, seq, (0, tid, 0)))

    def complete(request, time):
        # System._complete_request + monitor complete +
        # ThreadModel.on_request_completed + ThreadStats.retire, inlined
        nonlocal seq, count
        tid = request.thread_id
        dt = time - last_update[tid]
        if dt > 0 and outstanding[tid] > 0:
            weighted = active_banks[tid] * dt
            monitor._blp_integral[tid] += weighted
            monitor._busy_time[tid] += dt
            l_blp[tid] += weighted
            l_busy[tid] += dt
        last_update[tid] = time
        gbank_key = (
            request.channel_id * banks_per_channel + request.bank_id
        )
        counts = bank_outstanding[tid]
        bank_count = counts[gbank_key] - 1
        if bank_count:
            counts[gbank_key] = bank_count
        else:
            del counts[gbank_key]
            active_banks[tid] -= 1
        outstanding[tid] -= 1
        if hook_complete is not None:
            wheel._seq = seq
            wheel._count = count
            wheel.now = system.now = time
            hook_complete(request, time)
            seq = wheel._seq
            count = wheel._count
        latency_sum[tid] += time - request.arrival
        latency_count[tid] += 1
        length = rob_len[tid]
        if not length:
            raise RuntimeError(
                f"thread {tid} completion with no outstanding misses"
            )
        head = head_id[tid]
        mask = completed_mask[tid] | (1 << (request.episode_id - head))
        if mask & 1:
            freed = 0
            credit_acc = instr_credit[tid]
            thread_stats = stats[tid]
            credit_base = tid * MAXW
            while mask & 1:
                credit_acc += credits[credit_base + (head + freed) % MAXW]
                mask >>= 1
                freed += 1
                instrs = int(credit_acc)
                credit_acc -= instrs
                thread_stats.instructions += instrs
                thread_stats.misses += 1
                thread_stats.quantum_instructions += instrs
                thread_stats.quantum_misses += 1
                thread_stats.episodes += 1
            head_id[tid] = head + freed
            rob_len[tid] = length - freed
            instr_credit[tid] = credit_acc
            completed_mask[tid] = mask
            if window_blocked[tid]:
                # the window was stalled on this completion; the next
                # miss's compute is already done — issue immediately
                window_blocked[tid] = False
                issue_miss(tid, time)
        else:
            completed_mask[tid] = mask

    # -- the drain loop (TimingWheel.drain with dispatch fused in) -----
    while count:
        edge = time + span
        while overflow and overflow[0][0] < edge:
            o_time, o_seq, entry = heappop(overflow)
            if o_seq & _SAMPLE_FLAG:  # pragma: no cover
                raise RuntimeError(
                    "sample event on the bare fast path (no sampler bound)"
                )
            slot = o_time % span
            bucket = buckets[slot]
            if bucket is None:
                buckets[slot] = [entry]
                group = slot >> 6
                lo = occ_lo[group]
                occ_lo[group] = lo | (1 << (slot & 63))
                if not lo:
                    wheel._occ_hi |= 1 << group
            else:
                bucket.append(entry)
        cursor = time % span
        bits = occ_lo[cursor >> 6] >> (cursor & 63)
        if bits:  # next populated slot within this 64-slot group
            delta = (bits & -bits).bit_length() - 1
        else:
            delta = scan_occupancy(wheel._occ_hi, occ_lo, cursor, span)
        if delta < 0:
            # window exhausted: every remaining event sits in overflow
            if overflow and overflow[0][0] <= limit:
                time = wheel.now = overflow[0][0]
                continue
            wheel.now = limit + 1
            break
        time += delta
        if time > limit:
            wheel.now = limit + 1
            break
        slot = time % span
        bucket = buckets[slot]
        for kind, payload, aux in bucket:  # appends are picked up live
            if kind == 0:       # _EV_ISSUE
                issue_miss(payload, time)
            elif kind == 2:     # _EV_DONE
                complete(payload, time)
            elif kind == 1:     # _EV_BANK_FREE
                try_schedule(payload, aux, time)
            elif kind == 3:     # _EV_QUANTUM
                wheel._seq = seq
                wheel._count = count
                wheel.now = system.now = time
                quantum_boundary()
                seq = wheel._seq
                count = wheel._count
            elif kind == 4:     # _EV_TIMER
                wheel._seq = seq
                wheel._count = count
                wheel.now = system.now = time
                on_timer(time, payload)
                seq = wheel._seq
                count = wheel._count
            else:  # pragma: no cover - PHIT/SAMPLE need prefetch/sampler
                raise RuntimeError(
                    f"event kind {kind} cannot occur on the bare fast path"
                )
        count -= len(bucket)
        buckets[slot] = None
        group = slot >> 6
        lo = occ_lo[group] & ~(1 << (slot & 63))
        occ_lo[group] = lo
        if not lo:
            wheel._occ_hi &= ~(1 << group)
        time += 1
    else:
        # queue fully drained before the limit; park like the wheel
        wheel.now = limit + 1
    wheel._seq = seq
    wheel._count = count
