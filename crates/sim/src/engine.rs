//! The actor-based discrete-event engine.
//!
//! A simulation is a set of [`Actor`]s exchanging timestamped messages. The
//! engine pops the earliest message, advances the virtual clock to its
//! timestamp, and delivers it; the receiving actor may schedule further
//! messages (to itself or others) at or after the current time. Ties in
//! timestamp are broken by scheduling order (FIFO), which makes every run a
//! pure function of the initial messages and the actors' logic — the property
//! the experiment harness relies on for reproducibility.

use crate::clock::SimClock;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies an actor registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// The raw index, for diagnostics.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simulation component. `M` is the simulation-wide message type.
pub trait Actor<M> {
    /// Deliver one message. `ctx` exposes the clock and outgoing mail.
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Observe a sample boundary of a sampler registered on this actor
    /// with [`Engine::add_sampler`]. `at` is the boundary and `sink` the
    /// tag given at registration, so one actor can feed several samplers.
    /// The engine calls it between deliveries, before the one that
    /// crosses `at`, so the actor's state is exactly its state at `at`.
    /// Sampling only observes: it cannot send messages.
    fn sample(&mut self, _at: SimTime, _sink: u32) {}
}

/// Delivery context handed to [`Actor::handle`].
///
/// It borrows the engine's event queue, so every send lands in the queue
/// at once, stamped with the next sequence number: messages sent during
/// one delivery keep their send order, and all of them follow everything
/// already queued for the same instant.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    queue: &'a mut Queue<M>,
}

impl<M> Ctx<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor handling this message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Send `msg` to `dst` for delivery at the current time (after all
    /// messages already queued for this instant — FIFO).
    pub fn send(&mut self, dst: ActorId, msg: M) {
        self.queue.push(self.now, dst, msg);
    }

    /// Send `msg` to `dst` for delivery after `delay`.
    pub fn send_after(&mut self, delay: SimDuration, dst: ActorId, msg: M) {
        self.queue.push(self.now + delay, dst, msg);
    }

    /// Send `msg` to `dst` at absolute time `at` (clamped to now if earlier:
    /// the past is immutable).
    pub fn send_at(&mut self, at: SimTime, dst: ActorId, msg: M) {
        self.queue.push(at.max(self.now), dst, msg);
    }

    /// Schedule a message to this actor after `delay` (a timer).
    pub fn timer(&mut self, delay: SimDuration, msg: M) {
        let dst = self.self_id;
        self.send_after(delay, dst, msg);
    }
}

/// A pending delivery as the heap orders it: 24 bytes, the message itself
/// waits in its [`Queue`] slot so sifts move keys, never messages.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    dst: u32,
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
/// handler's first send overwrites that key in place — one sift-down
/// instead of a pop and a push — and reuses its slot; if the handler sends
/// nothing, [`Engine::step`] pops the stale key afterwards.
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

    fn push(&mut self, at: SimTime, dst: ActorId, msg: M) {
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
        let key = Key {
            at,
            seq,
            dst: dst.0,
            slot,
        };
        if std::mem::take(&mut self.stale_top) {
            *self.heap.peek_mut().expect("a stale top key") = key;
        } else {
            self.heap.push(key);
        }
    }
}

/// The event loop: owns the actors, the clock, and the event queue.
///
/// The queue is a binary heap of compact `(at, seq)` keys over a slab of
/// messages. Actors send straight into it through [`Ctx`], and a delivery
/// whose handler sends anything replaces its own key in place, so the
/// common one-in-one-out step costs a single sift-down.
///
/// ```
/// use rp_sim::{Actor, Ctx, Engine, SimDuration, SimTime};
///
/// struct Countdown(u32);
/// impl Actor<u32> for Countdown {
///     fn handle(&mut self, n: u32, ctx: &mut Ctx<u32>) {
///         if n > 0 {
///             ctx.timer(SimDuration::from_secs(1), n - 1);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let actor = engine.add_actor(Box::new(Countdown(3)));
/// engine.schedule(SimTime::ZERO, actor, 3);
/// let end = engine.run_until_idle(100);
/// assert_eq!(end, SimTime::from_secs(3)); // three 1 s timers elapsed
/// ```
pub struct Engine<M> {
    now: SimTime,
    delivered: u64,
    peak_queue: usize,
    queue: Queue<M>,
    actors: Vec<Option<Box<dyn Actor<M>>>>,
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
    actor: ActorId,
    sink: u32,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// An empty engine at `t = 0`.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            delivered: 0,
            peak_queue: 0,
            queue: Queue::new(),
            actors: Vec::new(),
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

    /// Register a periodic sampler on `actor`: its [`Actor::sample`] is
    /// called with `(t, sink)` at `t = period, 2·period, …` for as long as
    /// the simulation has work. Sampling is lazy — driven by deliveries, so
    /// an idle simulation stops producing samples instead of ticking
    /// forever. A boundary is sampled *before* the delivery that crosses
    /// it, while every actor sits in its slot, so the actor reports its
    /// state as of the sampling instant and computes it only then.
    pub fn add_sampler(&mut self, period: SimDuration, actor: ActorId, sink: u32) {
        assert!(!period.is_zero(), "sampler period must be positive");
        assert!(
            actor.index() < self.actors.len(),
            "sampler on unknown actor"
        );
        let next = self.now + period;
        self.samplers.push(Sampler {
            period,
            next,
            actor,
            sink,
        });
        self.samplers_next = Some(match self.samplers_next {
            Some(t) => t.min(next),
            None => next,
        });
    }

    /// Register an actor and return its address.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = u32::try_from(self.actors.len()).expect("more than u32::MAX actors");
        self.actors.push(Some(actor));
        ActorId(id)
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

    /// Inject a message from outside the simulation (e.g. the experiment
    /// driver seeding initial work) at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, dst: ActorId, msg: M) {
        self.queue.push(at.max(self.now), dst, msg);
        self.peak_queue = self.peak_queue.max(self.queue.heap.len());
    }

    /// Deliver the next message, if any. Returns `false` when the heap is
    /// empty. Panics if a message addresses an unknown actor — that is a
    /// wiring bug, not a runtime condition.
    pub fn step(&mut self) -> bool {
        let Some(&Key { at, dst, slot, .. }) = self.queue.heap.peek() else {
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
        let mut actor = self.actors[dst as usize]
            .take()
            .unwrap_or_else(|| panic!("message to actor {dst} during its own handle()"));
        self.queue.stale_top = true;
        let mut ctx = Ctx {
            now: self.now,
            self_id: ActorId(dst),
            queue: &mut self.queue,
        };
        actor.handle(msg, &mut ctx);
        self.actors[dst as usize] = Some(actor);

        if std::mem::take(&mut self.queue.stale_top) {
            self.queue.heap.pop();
            self.queue.free.push(slot);
        }
        self.peak_queue = self.peak_queue.max(self.queue.heap.len());
        true
    }

    /// Fire every sampler boundary at or before `upto`, in chronological
    /// order across samplers. Ties across samplers keep firing in the same
    /// order as always (`min_by_key` returns the *last* minimal element, so
    /// the latest-registered sampler wins a shared boundary) — callers gate
    /// on `samplers_next`, which only short-circuits the scan, never
    /// reorders it.
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
            self.actors[s.actor.index()]
                .as_mut()
                .expect("samplers fire between deliveries")
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

    /// Borrow a registered actor for post-run inspection.
    ///
    /// Returns `None` for out-of-range ids. The experiment harness uses this
    /// to pull collected metrics out of actors after `run_until_idle`.
    pub fn actor(&self, id: ActorId) -> Option<&dyn Actor<M>> {
        self.actors.get(id.index()).and_then(|a| a.as_deref())
    }

    /// Mutably borrow a registered actor (e.g. to extract owned results).
    pub fn actor_mut(&mut self, id: ActorId) -> Option<&mut (dyn Actor<M> + 'static)> {
        match self.actors.get_mut(id.index()) {
            Some(Some(a)) => Some(a.as_mut()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

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

    /// `(boundary, sink, deliveries so far)` per sample, in firing order.
    type SampleLog = Rc<RefCell<Vec<(SimTime, u32, u32)>>>;

    /// Counts its deliveries (replying to Ping(n) like [`Echo`]) and logs
    /// every sample.
    struct Probe {
        handled: u32,
        samples: SampleLog,
    }

    impl Probe {
        fn boxed() -> (Box<Self>, SampleLog) {
            let samples = Rc::new(RefCell::new(Vec::new()));
            let probe = Probe {
                handled: 0,
                samples: Rc::clone(&samples),
            };
            (Box::new(probe), samples)
        }
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
            self.samples.borrow_mut().push((at, sink, self.handled));
        }
    }

    #[test]
    fn countdown_advances_clock() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Box::new(Echo { log: vec![] }));
        eng.schedule(SimTime::ZERO, id, Msg::Ping(3));
        let end = eng.run_until_idle(1_000);
        assert_eq!(end, SimTime::from_secs(3));
        assert_eq!(eng.delivered(), 4);
    }

    #[test]
    fn fifo_tie_breaking() {
        struct Collect {
            seen: Rc<RefCell<Vec<u32>>>,
        }
        impl Actor<u32> for Collect {
            fn handle(&mut self, msg: u32, _ctx: &mut Ctx<u32>) {
                self.seen.borrow_mut().push(msg);
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.add_actor(Box::new(Collect { seen: seen.clone() }));
        for i in 0..100 {
            eng.schedule(SimTime::from_secs(5), id, i);
        }
        eng.run_until_idle(1_000);
        // Deliveries at the same instant arrive in scheduling order.
        assert_eq!(*seen.borrow(), (0..100).collect::<Vec<u32>>());
        assert_eq!(eng.now(), SimTime::from_secs(5));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Box::new(Echo { log: vec![] }));
        eng.schedule(SimTime::ZERO, id, Msg::Ping(10));
        eng.run_until(SimTime::from_secs(4));
        assert_eq!(eng.now(), SimTime::from_secs(4));
        // remaining messages still pending
        let end = eng.run_until_idle(1_000);
        assert_eq!(end, SimTime::from_secs(10));
    }

    #[test]
    fn run_until_advances_to_horizon_on_empty_heap() {
        let mut eng: Engine<Msg> = Engine::new();
        let (probe, samples) = Probe::boxed();
        let id = eng.add_actor(probe);
        eng.add_sampler(SimDuration::from_secs(2), id, 0);
        // Nothing queued at all: the clock must still advance to the horizon
        // and sampler boundaries inside it must fire.
        let end = eng.run_until(SimTime::from_secs(5));
        assert_eq!(end, SimTime::from_secs(5));
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(
            *samples.borrow(),
            vec![(SimTime::from_secs(2), 0, 0), (SimTime::from_secs(4), 0, 0)]
        );
    }

    #[test]
    fn run_until_with_pending_later_event_stops_exactly_at_horizon() {
        let mut eng = Engine::new();
        let id = eng.add_actor(Box::new(Echo { log: vec![] }));
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
        // A fan-out actor that sends several same-instant messages per
        // delivery: the first send replaces the delivered key in place and
        // the rest are pushed, and delivery must still follow send order.
        struct Fan {
            sink: ActorId,
        }
        impl Actor<u32> for Fan {
            fn handle(&mut self, msg: u32, ctx: &mut Ctx<u32>) {
                if msg < 3 {
                    for k in 0..4 {
                        ctx.send(self.sink, msg * 10 + k);
                    }
                    ctx.timer(SimDuration::from_secs(1), msg + 1);
                }
            }
        }
        struct Collect {
            seen: Rc<RefCell<Vec<u32>>>,
        }
        impl Actor<u32> for Collect {
            fn handle(&mut self, msg: u32, _ctx: &mut Ctx<u32>) {
                self.seen.borrow_mut().push(msg);
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<u32> = Engine::new();
        let sink = eng.add_actor(Box::new(Collect { seen: seen.clone() }));
        let fan = eng.add_actor(Box::new(Fan { sink }));
        eng.schedule(SimTime::ZERO, fan, 0);
        eng.run_until_idle(100);
        assert_eq!(
            *seen.borrow(),
            vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]
        );
    }

    #[test]
    fn send_at_clamps_to_now() {
        struct PastSender;
        impl Actor<Msg> for PastSender {
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx<Msg>) {
                if matches!(msg, Msg::Ping(1)) {
                    // attempt to send into the past
                    let me = ctx.self_id();
                    ctx.send_at(SimTime::ZERO, me, Msg::Tick);
                }
            }
        }
        let mut eng = Engine::new();
        let id = eng.add_actor(Box::new(PastSender));
        eng.schedule(SimTime::from_secs(2), id, Msg::Ping(1));
        let end = eng.run_until_idle(100);
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn clock_handle_tracks_deliveries() {
        let mut eng = Engine::new();
        let clock = eng.clock();
        let id = eng.add_actor(Box::new(Echo { log: vec![] }));
        eng.schedule(SimTime::ZERO, id, Msg::Ping(3));
        assert_eq!(clock.now(), SimTime::ZERO);
        eng.run_until_idle(100);
        assert_eq!(clock.now(), SimTime::from_secs(3));
    }

    #[test]
    fn samplers_fire_on_period_boundaries() {
        let mut eng = Engine::new();
        let (probe, samples) = Probe::boxed();
        let id = eng.add_actor(probe);
        eng.schedule(SimTime::ZERO, id, Msg::Ping(5));
        eng.add_sampler(SimDuration::from_millis(1500), id, 7);
        eng.add_sampler(SimDuration::from_secs(2), id, 9);
        eng.run_until_idle(100);
        // Deliveries run out to t = 5 s; boundaries 1.5, 2, 3, 4 and 4.5 s
        // fire in time order, each with its sampler's tag, and the lazy
        // samplers produce nothing past quiescence.
        let got: Vec<_> = samples.borrow().iter().map(|&(t, k, _)| (t, k)).collect();
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
    fn samplers_observe_pre_delivery_state() {
        // A counter actor bumps shared state at t = 1 s and t = 2 s; a 1 s
        // sampler on another actor must see the value *before* the
        // coincident delivery.
        struct Bump {
            state: Rc<RefCell<u32>>,
        }
        impl Actor<u32> for Bump {
            fn handle(&mut self, _msg: u32, _ctx: &mut Ctx<u32>) {
                *self.state.borrow_mut() += 1;
            }
        }
        struct Watch {
            state: Rc<RefCell<u32>>,
            seen: Rc<RefCell<Vec<u32>>>,
        }
        impl Actor<u32> for Watch {
            fn handle(&mut self, _msg: u32, _ctx: &mut Ctx<u32>) {}
            fn sample(&mut self, _at: SimTime, _sink: u32) {
                self.seen.borrow_mut().push(*self.state.borrow());
            }
        }
        let state = Rc::new(RefCell::new(0u32));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.add_actor(Box::new(Bump {
            state: Rc::clone(&state),
        }));
        let watch = eng.add_actor(Box::new(Watch {
            state,
            seen: Rc::clone(&seen),
        }));
        eng.schedule(SimTime::from_secs(1), id, 0);
        eng.schedule(SimTime::from_secs(2), id, 0);
        eng.add_sampler(SimDuration::from_secs(1), watch, 0);
        eng.run_until_idle(100);
        assert_eq!(*seen.borrow(), vec![0, 1]);
    }

    #[test]
    fn sampled_actor_sees_its_state_before_the_crossing_delivery() {
        // The deliveries at t = 1 s and t = 2 s cross the sampler's
        // boundaries and go to the sampled actor itself: each sample must
        // run first, seeing the deliveries made strictly before it.
        let mut eng = Engine::new();
        let (probe, samples) = Probe::boxed();
        let id = eng.add_actor(probe);
        eng.schedule(SimTime::from_micros(500_000), id, Msg::Tick);
        eng.schedule(SimTime::from_secs(1), id, Msg::Tick);
        eng.schedule(SimTime::from_secs(2), id, Msg::Tick);
        eng.add_sampler(SimDuration::from_secs(1), id, 0);
        eng.run_until_idle(100);
        assert_eq!(
            *samples.borrow(),
            vec![(SimTime::from_secs(1), 0, 1), (SimTime::from_secs(2), 0, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn sampler_on_unknown_actor_is_a_wiring_bug() {
        let mut eng: Engine<Msg> = Engine::new();
        eng.add_sampler(SimDuration::from_secs(1), ActorId(0), 0);
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
        let id = eng.add_actor(Box::new(Loopy));
        eng.schedule(SimTime::ZERO, id, Msg::Tick);
        eng.run_until_idle(50);
    }
}
