"""EventLoop firing order, pinned against a reference scheduler.

``ReferenceLoop`` below is a deliberately naive scheduler: a Python list
kept sorted by ``(time, sequence)`` with ``bisect.insort``.  It states the
engine contract directly:

* events fire in ``(time, sequence)`` order, ties in scheduling order;
* a periodic re-arm takes its sequence number *before* its callback runs;
* cancellation is lazy (a cancelled entry is skipped when reached), and
  cancelling an event that already fired is a no-op;
* ``run_until(t_end)`` fires events at exactly ``t_end`` and leaves
  ``now`` clamped to the horizon.

Any program of ``call_at``/``schedule``/``call_every``/``cancel``/
``run_until``/``step`` — including scheduling and cancelling from inside
callbacks — must produce the same firing sequence on both, and leave the
same observable state.  Campaign digests being reproducible reduces to
exactly this property.
"""

from __future__ import annotations

import bisect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventLoop


class _RefHandle:
    def __init__(self, callback, period):
        self.callback = callback
        self.period = period
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceLoop:
    """Sorted-list scheduler with the EventLoop contract and nothing else."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.queue = []             # sorted (time, seq, handle) entries
        self.pushes = 0
        self.pops = 0

    def _insert(self, t, handle):
        self.seq += 1
        bisect.insort(self.queue, (t, self.seq, handle))
        self.pushes += 1
        return handle

    def call_at(self, time, callback):
        return self._insert(max(math.ceil(time), self.now),
                            _RefHandle(callback, 0))

    def schedule(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def call_every(self, period, callback, first=None):
        t = self.now + period if first is None else math.ceil(first)
        return self._insert(max(t, self.now), _RefHandle(callback, period))

    @property
    def pending(self):
        return sum(1 for _, _, h in self.queue if not h.cancelled)

    def _next(self, t_end=None):
        """Pop and fire the first live entry (``<= t_end``); False if none."""
        while self.queue:
            t, _, handle = self.queue[0]
            if t_end is not None and t > t_end:
                return False
            del self.queue[0]
            if handle.cancelled:
                continue
            self.now = t
            self.pops += 1
            if handle.period:
                self._insert(t + handle.period, handle)
            else:
                handle.cancelled = True     # fired: a later cancel is a no-op
            handle.callback()
            return True
        return False

    def step(self):
        return self._next()

    def run_until(self, t_end):
        t_end = int(t_end)
        while self._next(t_end):
            pass
        self.now = max(self.now, t_end)

    def run(self, max_events=None):
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count


# Offsets from sub-microsecond up to 2**40 ns, with clusters around
# power-of-two boundaries so near-ties and far-future events both appear.
_OFFSETS = st.one_of(
    st.integers(0, 5_000),
    st.integers(0, (1 << 21) + 3),
    st.integers((1 << 20) - 2, (1 << 20) + 2),
    st.integers(0, (1 << 29) + 7),
    st.integers((1 << 28) - 2, (1 << 28) + 2),
    st.integers((1 << 36) - 4_096, (1 << 36) + (1 << 20)),
    st.integers(0, 1 << 40),
)

_PERIODS = st.one_of(
    st.integers(1, 1_000),
    st.integers(1, 1 << 22),
    st.integers(1 << 27, 1 << 30),
)

# Ops runnable from inside a callback (no nested run_until/step — the
# loop forbids re-entrant draining just like asyncio does).
_NESTED_OP = st.one_of(
    st.tuples(st.just("at"), _OFFSETS),
    st.tuples(st.just("after"), _OFFSETS),
    st.tuples(st.just("every"), _PERIODS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)

_TOP_OP = st.one_of(
    st.tuples(st.just("at"), _OFFSETS, st.lists(_NESTED_OP, max_size=3)),
    st.tuples(st.just("after"), _OFFSETS, st.lists(_NESTED_OP, max_size=3)),
    st.tuples(st.just("every"), _PERIODS, st.lists(_NESTED_OP, max_size=2)),
    st.tuples(st.just("cancel"), st.integers(0, 63), st.just(())),
    st.tuples(st.just("run"), _OFFSETS, st.just(())),
    st.tuples(st.just("step"), st.just(0), st.just(())),
)

#: A periodic handle auto-cancels after this many fires so run_until over
#: a huge horizon stays bounded.
_MAX_FIRES = 30


def _interpret(make_loop, program):
    """Run ``program`` on a fresh loop; return (trace, final state)."""
    loop = make_loop()
    handles = []
    trace = []
    fires = {}
    tag_counter = [0]

    def schedule(kind, amount, nested):
        tag = tag_counter[0]
        tag_counter[0] += 1
        periodic = kind == "every"

        def cb():
            trace.append((tag, loop.now))
            n = fires.get(tag, 0) + 1
            fires[tag] = n
            if periodic and n >= _MAX_FIRES:
                handle.cancel()
                return
            for op in nested:
                apply(op, ())

        if kind == "at":
            handle = loop.call_at(loop.now + amount, cb)
        elif kind == "after":
            handle = loop.schedule(amount, cb)
        else:
            handle = loop.call_every(amount, cb)
        handles.append(handle)

    def apply(op, nested_tail):
        kind, amount = op[0], op[1]
        nested = op[2] if len(op) > 2 else nested_tail
        if kind in ("at", "after", "every"):
            schedule(kind, amount, nested)
        elif kind == "cancel":
            if handles:
                handles[amount % len(handles)].cancel()
        elif kind == "run":
            loop.run_until(loop.now + amount)
            trace.append(("now", loop.now, loop.pending))
        elif kind == "step":
            trace.append(("step", loop.step()))

    for op in program:
        apply(op, ())
    # Drain what's left so late/far events are compared too.
    loop.run(max_events=20_000)
    state = (loop.now, loop.pending, loop.pushes, loop.pops)
    return trace, state


@settings(max_examples=80, deadline=None)
@given(program=st.lists(_TOP_OP, min_size=1, max_size=40))
def test_random_program_equivalence(program):
    assert _interpret(EventLoop, program) == _interpret(ReferenceLoop, program)


@settings(max_examples=40, deadline=None)
@given(
    offsets=st.lists(_OFFSETS, min_size=1, max_size=30),
    horizon=_OFFSETS,
)
def test_one_shot_ordering_equivalence(offsets, horizon):
    """Pure call_at programs: identical (time, tie-break) firing order."""

    def run(make_loop):
        loop = make_loop()
        trace = []
        for i, off in enumerate(offsets):
            loop.call_at(off, (lambda v: lambda: trace.append((v, loop.now)))(i))
        loop.run_until(horizon)
        trace.append(("now", loop.now, loop.pending))
        loop.run()
        return trace

    assert run(EventLoop) == run(ReferenceLoop)


@settings(max_examples=20, deadline=None)
@given(
    offsets=st.lists(st.integers(0, 10_000), min_size=70, max_size=80),
    victims=st.sets(st.integers(0, 69), min_size=45),
)
def test_compaction_matches_reference(offsets, victims):
    """Cancelling most of a large heap from inside a callback compacts it
    mid-drain; the firing order must still match the reference."""

    def run(make_loop):
        loop = make_loop()
        trace = []
        handles = [loop.call_at(1 + off, (lambda v: lambda: trace.append(
            (v, loop.now)))(i)) for i, off in enumerate(offsets)]

        def replan():
            for i in sorted(victims):
                handles[i].cancel()
            loop.schedule(5, lambda: trace.append(("late", loop.now)))

        loop.call_at(0, replan)
        loop.run_until(20_000)
        return loop, (trace, loop.now, loop.pending, loop.pops)

    loop, observed = run(EventLoop)
    assert loop.compactions >= 1
    assert observed == run(ReferenceLoop)[1]


def test_far_future_event_interleaves_with_near_ones():
    """A far-future event must fire in exact order once the clock reaches
    it, even when nearer events are scheduled around it later."""

    def run(make_loop):
        loop = make_loop()
        trace = []
        far_t = (1 << 36) + 12_345
        loop.call_at(far_t, lambda: trace.append(("far", loop.now)))
        # March the clock most of the way there, then surround the far
        # event with near ones — same instant included.
        loop.run_until(far_t - 500)
        for d, tag in ((far_t - 100, "before"), (far_t, "same_a"),
                       (far_t, "same_b"), (far_t + 50, "after")):
            loop.call_at(d, (lambda v: lambda: trace.append((v, loop.now)))(tag))
        loop.run()
        return trace

    out = run(EventLoop)
    assert out == run(ReferenceLoop)
    assert [t for t, _ in out] == ["before", "far", "same_a", "same_b", "after"]


def test_mid_callback_same_instant_scheduling_matches():
    """Events scheduled at ``now`` from a callback fire this instant, after
    everything already queued for it."""

    def run(make_loop):
        loop = make_loop()
        trace = []

        def first():
            trace.append("first")
            loop.call_at(loop.now, lambda: trace.append("nested"))
            loop.schedule(0, lambda: trace.append("nested2"))

        loop.call_at(1000, first)
        loop.call_at(1000, lambda: trace.append("second"))
        loop.run_until(1000)
        return trace

    out = run(EventLoop)
    assert out == run(ReferenceLoop)
    assert out == ["first", "second", "nested", "nested2"]


def test_periodic_rearm_takes_sequence_before_callback():
    """A same-instant event scheduled by a periodic callback fires *after*
    the next period's tick at that instant, since the re-arm already took
    an earlier sequence number."""

    def run(make_loop):
        loop = make_loop()
        trace = []

        def tick():
            trace.append(("tick", loop.now))
            if loop.now == 100:
                loop.call_at(200, lambda: trace.append(("one-shot", loop.now)))

        loop.call_every(100, tick)
        loop.run_until(200)
        return trace

    out = run(EventLoop)
    assert out == run(ReferenceLoop)
    assert out == [("tick", 100), ("tick", 200), ("one-shot", 200)]


def test_cancel_after_fire_is_noop_on_both():
    for make_loop in (EventLoop, ReferenceLoop):
        loop = make_loop()
        h = loop.schedule(10, lambda: None)
        live = loop.schedule(20, lambda: None)
        loop.run_until(15)
        h.cancel()                 # already fired: must not double-decrement
        assert loop.pending == 1, make_loop
        live.cancel()
        assert loop.pending == 0, make_loop


def test_periodic_cancel_from_own_callback_matches():
    def run(make_loop):
        loop = make_loop()
        trace = []
        count = [0]

        def tick():
            count[0] += 1
            trace.append(loop.now)
            if count[0] == 5:
                handle.cancel()

        handle = loop.call_every(70_000, tick)
        loop.run_until(10**7)
        trace.append((loop.now, loop.pending))
        return trace

    out = run(EventLoop)
    assert out == run(ReferenceLoop)
    assert out[-1] == (10**7, 0)
