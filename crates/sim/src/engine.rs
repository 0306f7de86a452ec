//! The single-actor discrete-event engine.
//!
//! A simulation is one [`Actor`] driven by timestamped messages: those
//! scheduled from outside the simulation, and the timers the actor sets for
//! itself. The engine pops the earliest message, advances the virtual
//! clock to its timestamp, and hands it to the actor, which may set
//! further timers at or after the current time. Ties in timestamp are
//! broken by scheduling order (FIFO), which makes every run a pure
//! function of the initial messages and the actor's logic — the property
//! the experiment harness relies on for reproducibility. The engine owns
//! its actor by value, so the handler is a direct call and the caller gets
//! the actor back, typed, with [`Engine::into_actor`].

use crate::clock::SimClock;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The token [`Engine::add_actor`] returns and [`Engine::schedule`] takes.
/// An engine holds one actor, so the token names nothing the engine does
/// not know already.
#[derive(Debug, Clone, Copy)]
pub struct ActorId(());

/// A simulation component. `M` is the simulation-wide message type.
pub trait Actor<M> {
    /// Deliver one message. `ctx` exposes the clock and the actor's timers.
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Observe a sample boundary of a sampler registered with
    /// [`Engine::add_sampler`]. `at` is the boundary and `sink` the tag
    /// given at registration, so one actor can feed several samplers.
    /// The engine calls it between deliveries, before the one that
    /// crosses `at`, so the actor's state is exactly its state at `at`.
    /// Sampling only observes: it cannot set timers.
    fn sample(&mut self, _at: SimTime, _sink: u32) {}
}

/// A boxed actor is an actor, so a caller may hand the engine a `Box`.
impl<M, T: Actor<M> + ?Sized> Actor<M> for Box<T> {
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>) {
        (**self).handle(msg, ctx);
    }

    fn sample(&mut self, at: SimTime, sink: u32) {
        (**self).sample(at, sink);
    }
}

/// Delivery context handed to [`Actor::handle`].
///
/// It borrows the engine's event queue, so every timer lands in the queue
/// at once, stamped with the next sequence number: timers set during one
/// delivery keep their order, and all of them follow everything already
/// queued for the same instant.
pub struct Ctx<'a, M> {
    now: SimTime,
    queue: &'a mut Queue<M>,
}

impl<M> Ctx<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deliver `msg` back to this actor after `delay` (a zero delay lands
    /// after every message already queued for this instant — FIFO).
    pub fn timer(&mut self, delay: SimDuration, msg: M) {
        self.queue.push(self.now + delay, msg);
    }
}

/// A pending delivery as the heap orders it; the message itself waits in
/// its [`Queue`] slot so sifts move keys, never messages. 24 bytes by
/// alignment.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    /// Reversed so the `BinaryHeap` (a max-heap) yields the earliest
    /// `(at, seq)` first. `seq` is unique, so `(at, seq)` is a total order.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The pending messages: a min-heap of [`Key`]s over a slab of messages
/// with a free list.
///
/// While a delivery runs, the top key still names the message being
/// delivered (its slot already emptied) and `stale_top` is set. The
/// handler's first timer overwrites that key in place — one sift-down
/// instead of a pop and a push — and reuses its slot; if the handler sets
/// none, [`Engine::step`] pops the stale key afterwards.
struct Queue<M> {
    heap: BinaryHeap<Key>,
    slots: Vec<Option<M>>,
    free: Vec<u32>,
    seq: u64,
    stale_top: bool,
}

impl<M> Queue<M> {
    fn new() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            stale_top: false,
        }
    }

    fn push(&mut self, at: SimTime, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        let slot = if self.stale_top {
            self.heap.peek().expect("a stale top key").slot
        } else {
            self.free.pop().unwrap_or_else(|| {
                self.slots.push(None);
                u32::try_from(self.slots.len() - 1).expect("more than u32::MAX pending messages")
            })
        };
        debug_assert!(self.slots[slot as usize].is_none(), "slot {slot} in use");
        self.slots[slot as usize] = Some(msg);
        let key = Key { at, seq, slot };
        if std::mem::take(&mut self.stale_top) {
            *self.heap.peek_mut().expect("a stale top key") = key;
        } else {
            self.heap.push(key);
        }
    }
}

/// The event loop: owns the actor, the clock, and the event queue.
///
/// The queue is a binary heap of compact `(at, seq)` keys over a slab of
/// messages. The actor sets timers straight into it through [`Ctx`], and
/// a delivery whose handler sets any replaces its own key in place, so the
/// common one-in-one-out step costs a single sift-down.
///
/// ```
/// use rp_sim::{Actor, Ctx, Engine, SimDuration, SimTime};
///
/// struct Countdown(u32);
/// impl Actor<u32> for Countdown {
///     fn handle(&mut self, n: u32, ctx: &mut Ctx<u32>) {
///         self.0 += 1;
///         if n > 0 {
///             ctx.timer(SimDuration::from_secs(1), n - 1);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let actor = engine.add_actor(Countdown(0));
/// engine.schedule(SimTime::ZERO, actor, 3);
/// let end = engine.run_until_idle(100);
/// assert_eq!(end, SimTime::from_secs(3)); // three 1 s timers elapsed
/// assert_eq!(engine.into_actor().0, 4); // the actor comes back, typed
/// ```
pub struct Engine<M, A> {
    now: SimTime,
    delivered: u64,
    peak_queue: usize,
    queue: Queue<M>,
    actor: Option<A>,
    clock: SimClock,
    samplers: Vec<Sampler>,
    /// Earliest pending sampler boundary (`None` when no samplers are
    /// registered). Lets `step()` skip the sampler scan entirely on the
    /// overwhelmingly common deliveries that cross no boundary.
    samplers_next: Option<SimTime>,
}

/// A periodic sample boundary registered with [`Engine::add_sampler`].
struct Sampler {
    period: SimDuration,
    next: SimTime,
    sink: u32,
}

impl<M, A> Default for Engine<M, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, A> Engine<M, A> {
    /// An empty engine at `t = 0`.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            delivered: 0,
            peak_queue: 0,
            queue: Queue::new(),
            actor: None,
            clock: SimClock::new(),
            samplers: Vec::new(),
            samplers_next: None,
        }
    }

    /// A shared handle on this engine's clock. Components hold a clone and
    /// read the current virtual time without it being threaded through
    /// every call signature (the observability sinks' timestamp source).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Register a periodic sampler: the actor's [`Actor::sample`] is
    /// called with `(t, sink)` at `t = period, 2·period, …` for as long as
    /// the simulation has work. Sampling is lazy — driven by deliveries, so
    /// an idle simulation stops producing samples instead of ticking
    /// forever. A boundary is sampled *before* the delivery that crosses
    /// it, so the actor reports its state as of the sampling instant and
    /// computes it only then.
    pub fn add_sampler(&mut self, period: SimDuration, sink: u32) {
        assert!(!period.is_zero(), "sampler period must be positive");
        let next = self.now + period;
        self.samplers.push(Sampler { period, next, sink });
        self.samplers_next = Some(match self.samplers_next {
            Some(t) => t.min(next),
            None => next,
        });
    }

    /// Register the engine's actor. Panics on a second call: one actor
    /// per engine.
    pub fn add_actor(&mut self, actor: A) -> ActorId {
        assert!(self.actor.is_none(), "one actor per engine");
        self.actor = Some(actor);
        ActorId(())
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Pending messages right now (event-queue depth).
    pub fn queue_depth(&self) -> usize {
        self.queue.heap.len()
    }

    /// Highest event-queue depth observed — a load indicator for the
    /// engine itself (how much concurrent future the simulation carries).
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue
    }

    /// Inject a message from outside the simulation (e.g. the session
    /// seeding initial work) at absolute time `at`, clamped to now
    /// if earlier: the past is immutable.
    pub fn schedule(&mut self, at: SimTime, _actor: ActorId, msg: M) {
        self.queue.push(at.max(self.now), msg);
        self.peak_queue = self.peak_queue.max(self.queue.heap.len());
    }

    /// Borrow the actor, e.g. for post-run inspection. Panics when none
    /// is registered.
    pub fn actor(&self) -> &A {
        self.actor.as_ref().expect("no actor registered")
    }

    /// Mutably borrow the actor. Panics when none is registered.
    pub fn actor_mut(&mut self) -> &mut A {
        self.actor.as_mut().expect("no actor registered")
    }

    /// End the run and hand the actor back. Panics when none is
    /// registered.
    pub fn into_actor(self) -> A {
        self.actor.expect("no actor registered")
    }
}

impl<M, A: Actor<M>> Engine<M, A> {
    /// Deliver the next message, if any. Returns `false` when the heap is
    /// empty. Panics if a message is queued while no actor is registered —
    /// that is a wiring bug, not a runtime condition.
    pub fn step(&mut self) -> bool {
        let Some(&Key { at, slot, .. }) = self.queue.heap.peek() else {
            return false;
        };
        debug_assert!(at >= self.now, "event time went backwards");
        if self.samplers_next.is_some_and(|t| t <= at) {
            self.fire_samplers(at);
        }
        self.now = at;
        self.clock.set(self.now);
        self.delivered += 1;

        let msg = self.queue.slots[slot as usize]
            .take()
            .expect("queued key without a message");
        let actor = self.actor.as_mut().expect("a message but no actor");
        self.queue.stale_top = true;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
        };
        actor.handle(msg, &mut ctx);

        if std::mem::take(&mut self.queue.stale_top) {
            self.queue.heap.pop();
            self.queue.free.push(slot);
        }
        self.peak_queue = self.peak_queue.max(self.queue.heap.len());
        true
    }

    /// Fire every sampler boundary at or before `upto`, in chronological
    /// order across samplers. At a boundary several samplers share,
    /// `min_by_key` returns the first minimal element, so they fire in
    /// registration order — callers gate on `samplers_next`, which only
    /// short-circuits the scan, never reorders it.
    fn fire_samplers(&mut self, upto: SimTime) {
        while let Some((i, t)) = self
            .samplers
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.next))
            .min_by_key(|&(_, t)| t)
            .filter(|&(_, t)| t <= upto)
        {
            self.clock.set(t);
            let s = &mut self.samplers[i];
            self.actor
                .as_mut()
                .expect("a sampler but no actor")
                .sample(t, s.sink);
            s.next = t + s.period;
        }
        self.samplers_next = self.samplers.iter().map(|s| s.next).min();
    }

    /// Run until no messages remain. Returns the final virtual time.
    /// `max_events` bounds runaway simulations (panics when exceeded, with a
    /// message pointing at the likely livelock).
    pub fn run_until_idle(&mut self, max_events: u64) -> SimTime {
        let limit = self.delivered + max_events;
        while self.step() {
            if self.delivered > limit {
                panic!(
                    "simulation exceeded {max_events} events without quiescing \
                     (t = {}); livelocked actor loop?",
                    self.now
                );
            }
        }
        self.now
    }

    /// Run until the clock would pass `horizon` (messages at exactly
    /// `horizon` are delivered). Undelivered later messages stay queued.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while let Some(head) = self.queue.heap.peek() {
            if head.at > horizon {
                break;
            }
            self.step();
        }
        // After the pop loop any pending event is already past `horizon`,
        // so the target is simply the horizon (or `now` if the engine had
        // already run past it before this call).
        let target = self.now.max(horizon);
        self.fire_samplers(target);
        self.now = target;
        self.clock.set(self.now);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    enum Msg {
        Ping(u32),
        Tick,
    }

    /// Records every delivery; replies to Ping(n) with Ping(n-1) after 1 s.
    struct Echo {
        log: Vec<(SimTime, Msg)>,
    }

    impl Actor<Msg> for Echo {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<Msg>) {
            self.log.push((ctx.now(), msg.clone()));
            if let Msg::Ping(n) = msg {
                if n > 0 {
                    ctx.timer(SimDuration::from_secs(1), Msg::Ping(n - 1));
                }
            }
        }
    }

    /// Counts its deliveries (replying to Ping(n) like [`Echo`]) and logs
    /// every sample as `(boundary, sink, deliveries so far)`.
    #[derive(Default)]
    struct Probe {
        handled: u32,
        samples: Vec<(SimTime, u32, u32)>,
    }

    impl Actor<Msg> for Probe {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<Msg>) {
            self.handled += 1;
            if let Msg::Ping(n) = msg {
                if n > 0 {
                    ctx.timer(SimDuration::from_secs(1), Msg::Ping(n - 1));
                }
            }
        }

        fn sample(&mut self, at: SimTime, sink: u32) {
            self.samples.push((at, sink, self.handled));
        }
    }

    /// Logs every message it is handed.
    #[derive(Default)]
    struct Collect {
        seen: Vec<u32>,
    }

    impl Actor<u32> for Collect {
        fn handle(&mut self, msg: u32, _ctx: &mut Ctx<u32>) {
            self.seen.push(msg);
        }
    }

    #[test]
    fn countdown_advances_clock() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Echo { log: vec![] });
        eng.schedule(SimTime::ZERO, id, Msg::Ping(3));
        let end = eng.run_until_idle(1_000);
        assert_eq!(end, SimTime::from_secs(3));
        assert_eq!(eng.delivered(), 4);
        assert_eq!(eng.actor().log.len(), 4);
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Collect::default());
        for i in 0..100 {
            eng.schedule(SimTime::from_secs(5), id, i);
        }
        eng.run_until_idle(1_000);
        assert_eq!(eng.now(), SimTime::from_secs(5));
        // Deliveries at the same instant arrive in scheduling order.
        assert_eq!(eng.into_actor().seen, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Echo { log: vec![] });
        eng.schedule(SimTime::ZERO, id, Msg::Ping(10));
        eng.run_until(SimTime::from_secs(4));
        assert_eq!(eng.now(), SimTime::from_secs(4));
        // remaining messages still pending
        let end = eng.run_until_idle(1_000);
        assert_eq!(end, SimTime::from_secs(10));
    }

    #[test]
    fn run_until_advances_to_horizon_on_empty_heap() {
        let mut eng: Engine<Msg, Probe> = Engine::new();
        eng.add_actor(Probe::default());
        eng.add_sampler(SimDuration::from_secs(2), 0);
        // Nothing queued at all: the clock must still advance to the horizon
        // and sampler boundaries inside it must fire.
        let end = eng.run_until(SimTime::from_secs(5));
        assert_eq!(end, SimTime::from_secs(5));
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(
            eng.actor().samples,
            vec![(SimTime::from_secs(2), 0, 0), (SimTime::from_secs(4), 0, 0)]
        );
    }

    #[test]
    fn run_until_with_pending_later_event_stops_exactly_at_horizon() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Echo { log: vec![] });
        eng.schedule(SimTime::from_secs(10), id, Msg::Tick);
        // The only pending event is past the horizon: it must stay queued
        // and the clock must land exactly on the horizon, not on the event.
        let end = eng.run_until(SimTime::from_secs(4));
        assert_eq!(end, SimTime::from_secs(4));
        assert_eq!(eng.queue_depth(), 1);
        // A horizon behind the clock is a no-op (time never goes backwards).
        let end = eng.run_until(SimTime::from_secs(1));
        assert_eq!(end, SimTime::from_secs(4));
        let end = eng.run_until_idle(100);
        assert_eq!(end, SimTime::from_secs(10));
        assert_eq!(eng.delivered(), 1);
    }

    #[test]
    fn fan_out_preserves_fifo_across_steps() {
        // An actor that sets several same-instant timers per delivery: the
        // first replaces the delivered key in place and the rest are
        // pushed, and delivery must still follow the order they were set.
        // Rounds are 0..3; the fanned-out messages are 100 and up.
        struct Fan {
            seen: Vec<u32>,
        }
        impl Actor<u32> for Fan {
            fn handle(&mut self, msg: u32, ctx: &mut Ctx<u32>) {
                if msg >= 100 {
                    self.seen.push(msg);
                } else if msg < 3 {
                    for k in 0..4 {
                        ctx.timer(SimDuration::ZERO, 100 + msg * 10 + k);
                    }
                    ctx.timer(SimDuration::from_secs(1), msg + 1);
                }
            }
        }
        let mut eng = Engine::new();
        let id = eng.add_actor(Fan { seen: Vec::new() });
        eng.schedule(SimTime::ZERO, id, 0);
        eng.run_until_idle(100);
        assert_eq!(
            eng.into_actor().seen,
            vec![100, 101, 102, 103, 110, 111, 112, 113, 120, 121, 122, 123]
        );
    }

    #[test]
    fn clock_handle_tracks_deliveries() {
        let mut eng = Engine::new();
        let clock = eng.clock();
        let id = eng.add_actor(Echo { log: vec![] });
        eng.schedule(SimTime::ZERO, id, Msg::Ping(3));
        assert_eq!(clock.now(), SimTime::ZERO);
        eng.run_until_idle(100);
        assert_eq!(clock.now(), SimTime::from_secs(3));
    }

    #[test]
    fn samplers_fire_on_period_boundaries() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Probe::default());
        eng.schedule(SimTime::ZERO, id, Msg::Ping(5));
        eng.add_sampler(SimDuration::from_millis(1500), 7);
        eng.add_sampler(SimDuration::from_secs(2), 9);
        eng.run_until_idle(100);
        // Deliveries run out to t = 5 s; boundaries 1.5, 2, 3, 4 and 4.5 s
        // fire in time order, each with its sampler's tag, and the lazy
        // samplers produce nothing past quiescence.
        let got: Vec<_> = eng
            .actor()
            .samples
            .iter()
            .map(|&(t, k, _)| (t, k))
            .collect();
        assert_eq!(
            got,
            vec![
                (SimTime::from_micros(1_500_000), 7),
                (SimTime::from_secs(2), 9),
                (SimTime::from_secs(3), 7),
                (SimTime::from_secs(4), 9),
                (SimTime::from_micros(4_500_000), 7),
            ]
        );
    }

    #[test]
    fn sampled_actor_sees_its_state_before_the_crossing_delivery() {
        // The deliveries at t = 1 s and t = 2 s cross the sampler's
        // boundaries: each sample must run first, seeing the deliveries
        // made strictly before it.
        let mut eng = Engine::new();
        let id = eng.add_actor(Probe::default());
        eng.schedule(SimTime::from_micros(500_000), id, Msg::Tick);
        eng.schedule(SimTime::from_secs(1), id, Msg::Tick);
        eng.schedule(SimTime::from_secs(2), id, Msg::Tick);
        eng.add_sampler(SimDuration::from_secs(1), 0);
        eng.run_until_idle(100);
        assert_eq!(
            eng.actor().samples,
            vec![(SimTime::from_secs(1), 0, 1), (SimTime::from_secs(2), 0, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "one actor per engine")]
    fn second_actor_is_a_wiring_bug() {
        let mut eng: Engine<u32, Collect> = Engine::new();
        eng.add_actor(Collect::default());
        eng.add_actor(Collect::default());
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn livelock_guard_fires() {
        struct Loopy;
        impl Actor<Msg> for Loopy {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<Msg>) {
                ctx.timer(SimDuration::ZERO, Msg::Tick);
            }
        }
        let mut eng = Engine::new();
        let id = eng.add_actor(Loopy);
        eng.schedule(SimTime::ZERO, id, Msg::Tick);
        eng.run_until_idle(50);
    }
}
