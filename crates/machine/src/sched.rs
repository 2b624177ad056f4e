//! The co-simulation scheduler: virtual time, events, and process threads.
//!
//! The OSKit's encapsulated components assume the classic two-level
//! execution model (paper §4.7.4): "There can be many process-level threads
//! of control using separate stacks, but only one can run at a time and
//! context switches only occur at well-defined 'blocking' points;
//! interrupt-level activities can run any time interrupts are enabled and
//! always run to completion without blocking."
//!
//! This scheduler *enforces* that model while running components as real
//! host threads:
//!
//! * **Process level** — host threads spawned with [`Sim::spawn`] share a
//!   single run token; exactly one executes at a time, and the token only
//!   changes hands at blocking points ([`Sim::block_current`], used by
//!   osenv sleep records) or explicit yields.
//! * **Interrupt level** — scheduled [`Sim::at`] events run to completion
//!   on a borrowed stack whenever a process thread blocks; an event that
//!   tries to block panics, catching model violations at test time.
//! * **Virtual time** — a global event clock plus per-machine CPU clocks
//!   (see [`crate::Machine`]) drive all timing; no wall-clock sleeps occur
//!   anywhere.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Virtual nanoseconds since simulation start.
pub type Ns = u64;

/// Identifies a process-level thread within a [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Tid(usize);

/// Identifies a scheduled event, for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct EventId(u64);

type Action = Box<dyn FnOnce() + Send>;

struct Event {
    time: Ns,
    /// Scheduling order, which breaks ties in `time`; also the event's id.
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with FIFO order among equal timestamps.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Holds the run token.
    Running,
    /// In the ready queue, waiting for the token.
    Ready,
    /// Blocked at a sleep point.
    Blocked,
    /// Exited.
    Dead,
}

struct Slot {
    name: String,
    state: ThreadState,
    /// Only this thread parks here; a pass to it or a failure notifies it.
    cv: Arc<Condvar>,
}

/// Deterministic scheduler work counts, read with [`Sim::sched_counts`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedCounts {
    /// Token passes to a different thread; each costs one host wakeup.
    pub handoffs: u64,
    /// Token passes straight back to the thread that blocked: no wakeup.
    pub self_handoffs: u64,
    /// Event actions run.
    pub events_dispatched: u64,
    /// Notifications sent to each thread, in spawn order (0: the harness).
    pub notified: Vec<u64>,
}

struct Inner {
    time: Ns,
    seq: u64,
    events: BinaryHeap<Event>,
    cancelled: std::collections::HashSet<u64>,
    ready: VecDeque<Tid>,
    slots: Vec<Slot>,
    /// Process threads that have not exited (excludes the harness slot 0).
    alive: usize,
    /// Set when any thread or event panicked, or on deadlock.
    failure: Option<String>,
    /// True while an event action is executing (interrupt level).
    in_event: bool,
    /// Virtual-time runaway guard.
    time_limit: Ns,
    counts: SchedCounts,
}

/// The simulation kernel shared by all machines of one experiment.
pub struct Sim {
    inner: Mutex<Inner>,
}

thread_local! {
    static CURRENT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

impl Sim {
    /// Creates a simulation with a default virtual-time limit of 1000
    /// virtual seconds (a runaway guard; see [`Sim::set_time_limit`]).
    pub fn new() -> Arc<Sim> {
        let mut inner = Inner {
            time: 0,
            seq: 0,
            events: BinaryHeap::new(),
            cancelled: std::collections::HashSet::new(),
            ready: VecDeque::new(),
            slots: Vec::new(),
            alive: 0,
            failure: None,
            in_event: false,
            time_limit: 1_000_000_000_000,
            counts: SchedCounts::default(),
        };
        // Slot 0 is the harness thread that calls `run`.
        Self::add_slot(&mut inner, "harness".into(), ThreadState::Running);
        Arc::new(Sim {
            inner: Mutex::new(inner),
        })
    }

    fn add_slot(inner: &mut Inner, name: String, state: ThreadState) -> Tid {
        let cv = Arc::default();
        inner.slots.push(Slot { name, state, cv });
        inner.counts.notified.push(0);
        Tid(inner.slots.len() - 1)
    }

    /// Raises or lowers the virtual-time runaway guard.
    pub fn set_time_limit(&self, limit: Ns) {
        self.lock().time_limit = limit;
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock()
    }

    /// Returns a snapshot of the scheduler's work counts so far.
    pub fn sched_counts(&self) -> SchedCounts {
        self.lock().counts.clone()
    }

    /// Returns the global event clock.
    ///
    /// Per-machine CPU clocks (which include charged processing costs) are
    /// kept by [`crate::Machine`]; this is the floor established by
    /// dispatched events.
    pub fn now(&self) -> Ns {
        self.lock().time
    }

    /// Returns the calling thread's [`Tid`], if it is a sim thread.
    pub fn current_tid() -> Option<Tid> {
        CURRENT.with(|c| c.get().map(Tid))
    }

    /// Spawns a process-level thread.
    ///
    /// The thread starts in the ready queue and first runs when the token
    /// reaches it (i.e. once [`Sim::run`] is underway or a running thread
    /// blocks).
    pub fn spawn(
        self: &Arc<Self>,
        name: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> Tid {
        let name = name.into();
        let tid = {
            let mut inner = self.lock();
            let tid = Self::add_slot(&mut inner, name.clone(), ThreadState::Ready);
            inner.ready.push_back(tid);
            inner.alive += 1;
            tid
        };
        let sim = Arc::clone(self);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || sim.thread_main(tid, f))
            .expect("spawn failed");
        tid
    }

    fn thread_main(self: Arc<Self>, tid: Tid, f: impl FnOnce() + Send) {
        CURRENT.with(|c| c.set(Some(tid.0)));
        // Wait for the token before running the body.
        if Self::park_until_running(self.lock(), tid).failure.is_some() {
            return; // Simulation failed before we first ran.
        }
        let result = catch_unwind(AssertUnwindSafe(f));
        let mut inner = self.lock();
        inner.alive -= 1;
        if let Err(p) = result {
            let msg = panic_message(p.as_ref());
            let failure = format!("thread '{}' panicked: {msg}", inner.slots[tid.0].name);
            inner.failure.get_or_insert(failure);
        }
        inner.slots[tid.0].state = ThreadState::Dead;
        if inner.alive == 0 {
            // Wake the harness.
            Self::make_ready(&mut inner, Tid(0));
        }
        drop(self.pass_token(tid, inner));
    }

    /// Runs the simulation to completion: returns when every spawned
    /// process thread has exited.
    ///
    /// Must be called from the thread that created the `Sim` (the harness),
    /// which logically holds the token between `spawn` calls.
    ///
    /// # Panics
    ///
    /// Propagates the first panic from any process thread or event, and
    /// panics on deadlock (all threads blocked with no pending events) or
    /// when virtual time exceeds the configured limit.
    pub fn run(&self) {
        let mut inner = self.lock();
        if inner.alive == 0 && inner.failure.is_none() {
            return;
        }
        inner.slots[0].state = ThreadState::Blocked;
        let inner = Self::park_until_running(self.pass_token(Tid(0), inner), Tid(0));
        // Leave the failure set: threads not yet woken by it must see it.
        if let Some(msg) = inner.failure.clone() {
            drop(inner);
            panic!("simulation failed: {msg}");
        }
    }

    /// Schedules `action` to run at interrupt level `delay` ns after the
    /// current event clock.
    pub fn at(&self, delay: Ns, action: impl FnOnce() + Send + 'static) -> EventId {
        self.schedule(|now| now + delay, action)
    }

    /// Schedules `action` at the absolute virtual time `time` (clamped to
    /// the current event clock if already past).
    pub fn at_abs(&self, time: Ns, action: impl FnOnce() + Send + 'static) -> EventId {
        self.schedule(|now| time.max(now), action)
    }

    /// Schedules `action` at `time(now)`, where `now` is the event clock.
    fn schedule(
        &self,
        time: impl FnOnce(Ns) -> Ns,
        action: impl FnOnce() + Send + 'static,
    ) -> EventId {
        let mut inner = self.lock();
        let time = time(inner.time);
        inner.seq += 1;
        let seq = inner.seq;
        inner.events.push(Event {
            time,
            seq,
            action: Box::new(action),
        });
        EventId(seq)
    }

    /// Cancels a scheduled event that has not run yet.  Cancelling one
    /// that already ran is a leak: its id is kept until the end of the
    /// simulation, since no pop will ever match it.
    pub fn cancel(&self, id: EventId) {
        self.lock().cancelled.insert(id.0);
    }

    /// Blocks the calling process thread until another context calls
    /// [`Sim::wake`] on it.
    ///
    /// This is the single well-defined blocking point of the execution
    /// model; osenv sleep records are built on it.
    ///
    /// # Panics
    ///
    /// Panics when called from interrupt level (inside an event action) —
    /// interrupt-level activities "always run to completion without
    /// blocking" (paper §4.7.4).
    pub fn block_current(&self) {
        let tid = Tid(CURRENT.with(|c| c.get()).expect("block outside sim thread"));
        let mut inner = self.lock();
        assert!(
            !inner.in_event,
            "execution-model violation: blocking at interrupt level"
        );
        inner.slots[tid.0].state = ThreadState::Blocked;
        let inner = Self::park_until_running(self.pass_token(tid, inner), tid);
        if inner.failure.is_some() {
            drop(inner);
            panic!("simulation failed while blocked");
        }
    }

    /// Marks `tid` runnable.  Control does *not* transfer immediately; the
    /// thread runs when the token next reaches it.
    pub fn wake(&self, tid: Tid) {
        Self::make_ready(&mut self.lock(), tid);
    }

    /// Yields the token: lets every other ready thread (and any due event)
    /// run before the caller continues.
    pub fn yield_now(&self) {
        let tid = Tid(CURRENT.with(|c| c.get()).expect("yield outside sim thread"));
        let mut inner = self.lock();
        assert!(!inner.in_event, "yield at interrupt level");
        if !inner.ready.is_empty() {
            inner.slots[tid.0].state = ThreadState::Blocked;
            Self::make_ready(&mut inner, tid);
            inner = Self::park_until_running(self.pass_token(tid, inner), tid);
        } else if !inner.events.is_empty() {
            // No other thread wants the token: advance time by dispatching
            // the earliest event inline instead of spinning forever.
            inner = self.dispatch_one_event(inner).0;
        }
        if inner.failure.is_some() {
            drop(inner);
            panic!("simulation failed while yielding");
        }
    }

    /// Pops and runs the earliest non-cancelled event, advancing virtual
    /// time.  Returns whether an event ran.  On event panic or time-limit
    /// overrun, records a failure.
    fn dispatch_one_event<'a>(
        &'a self,
        mut inner: MutexGuard<'a, Inner>,
    ) -> (MutexGuard<'a, Inner>, bool) {
        let ev = loop {
            match inner.events.pop() {
                Some(ev) if inner.cancelled.remove(&ev.seq) => continue,
                other => break other,
            }
        };
        let Some(ev) = ev else {
            return (inner, false);
        };
        inner.time = inner.time.max(ev.time);
        if inner.time > inner.time_limit {
            let failure = format!("virtual time limit exceeded at {} ns", inner.time);
            inner.failure.get_or_insert(failure);
            return (inner, true);
        }
        inner.counts.events_dispatched += 1;
        inner.in_event = true;
        drop(inner);
        let result = catch_unwind(AssertUnwindSafe(ev.action));
        let mut inner = self.lock();
        inner.in_event = false;
        if let Err(p) = result {
            let failure = format!("event panicked: {}", panic_message(p.as_ref()));
            inner.failure.get_or_insert(failure);
        }
        (inner, true)
    }

    /// Runs pending work while the caller spins: dispatches the earliest
    /// event or lets another ready thread run.
    ///
    /// Used by polling loops such as the single-threaded sleep
    /// implementation of paper §4.7.6 ("sleeping is implemented simply as a
    /// busy loop that spins on a one-bit field in the sleep record").
    pub fn relax(&self) {
        self.yield_now();
    }

    fn make_ready(inner: &mut Inner, tid: Tid) {
        if inner.slots[tid.0].state == ThreadState::Blocked {
            inner.slots[tid.0].state = ThreadState::Ready;
            inner.ready.push_back(tid);
        }
    }

    /// Hands the run token to the next ready thread, dispatching events
    /// until one becomes ready, and notifies that thread alone.  When the
    /// token comes straight back to the caller `me` (an event it dispatched
    /// woke it), nobody is notified and the lock is held throughout.  The
    /// caller must have already moved itself out of `Running`.
    fn pass_token<'a>(
        &'a self,
        me: Tid,
        mut inner: MutexGuard<'a, Inner>,
    ) -> MutexGuard<'a, Inner> {
        loop {
            if inner.failure.is_some() {
                Self::fail_all(&mut inner);
                return inner;
            }
            if let Some(next) = inner.ready.pop_front() {
                inner.slots[next.0].state = ThreadState::Running;
                if next == me {
                    inner.counts.self_handoffs += 1;
                    return inner;
                }
                inner.counts.handoffs += 1;
                inner.counts.notified[next.0] += 1;
                // Notify with the lock released: a target woken while we
                // hold it can preempt us only to block on the mutex.
                let cv = Arc::clone(&inner.slots[next.0].cv);
                drop(inner);
                cv.notify_one();
                return self.lock();
            }
            // No thread is ready: advance virtual time to the next event.
            let (guard, ran) = self.dispatch_one_event(inner);
            inner = guard;
            if ran {
                continue;
            }
            if inner.alive == 0 {
                // Normal completion: nothing left to run but the harness.
                if inner.slots[0].state != ThreadState::Blocked {
                    // The harness is not inside `run`; it conceptually
                    // holds the token already.
                    return inner;
                }
                Self::make_ready(&mut inner, Tid(0));
                continue;
            }
            let stuck: Vec<_> = inner
                .slots
                .iter()
                .filter(|s| s.state == ThreadState::Blocked)
                .map(|s| s.name.clone())
                .collect();
            inner.failure = Some(format!(
                "deadlock: all threads blocked with no pending events: {stuck:?}"
            ));
        }
    }

    /// Parks on this thread's own condvar until it holds the token or the
    /// simulation has failed (the caller checks `failure`).
    fn park_until_running<'a>(mut inner: MutexGuard<'a, Inner>, tid: Tid) -> MutexGuard<'a, Inner> {
        let cv = Arc::clone(&inner.slots[tid.0].cv);
        while inner.failure.is_none() && inner.slots[tid.0].state != ThreadState::Running {
            cv.wait(&mut inner);
        }
        inner
    }

    /// Wakes every parked thread so they can observe the failure and exit.
    fn fail_all(inner: &mut Inner) {
        for (slot, n) in inner.slots.iter().zip(&mut inner.counts.notified) {
            *n += 1;
            slot.cv.notify_one();
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_string()
    }
}

/// A one-waiter wakeup channel: the OSKit's *sleep record* (paper §4.7.6).
///
/// "A 'sleep record' ... is like a condition variable except that only one
/// thread of control can wait on it at a time."  Signals are sticky: a
/// signal delivered before the wait completes is not lost.
pub struct SleepRecord {
    inner: Mutex<Sleep>,
}

struct Sleep {
    state: SleepState,
    /// Set when the current [`SleepRecord::wait_timeout`]'s timer runs: an
    /// event that already ran must not be cancelled, or its id would stay
    /// in the simulation's cancelled set forever.
    timer_ran: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SleepState {
    Idle,
    Waiting(Tid),
    Signaled,
}

/// Why a [`SleepRecord::wait_timeout`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// The record was signaled.
    Signaled,
    /// The timeout expired first.
    TimedOut,
}

impl Default for SleepRecord {
    fn default() -> Self {
        Self::new()
    }
}

impl SleepRecord {
    /// Creates an unsignaled sleep record.
    pub fn new() -> Self {
        SleepRecord {
            inner: Mutex::new(Sleep {
                state: SleepState::Idle,
                timer_ran: false,
            }),
        }
    }

    /// Blocks the calling process thread until [`SleepRecord::signal`].
    ///
    /// # Panics
    ///
    /// Panics if another thread is already waiting (one waiter only), or if
    /// called at interrupt level.
    pub fn wait(&self, sim: &Sim) {
        let me = Sim::current_tid().expect("sleep outside sim thread");
        {
            let mut sl = self.inner.lock();
            match sl.state {
                SleepState::Signaled => {
                    sl.state = SleepState::Idle;
                    return;
                }
                SleepState::Idle => sl.state = SleepState::Waiting(me),
                SleepState::Waiting(_) => panic!("sleep record already has a waiter"),
            }
        }
        sim.block_current();
        let mut sl = self.inner.lock();
        debug_assert_eq!(sl.state, SleepState::Signaled);
        sl.state = SleepState::Idle;
    }

    /// Like [`SleepRecord::wait`] but gives up after `timeout` ns.
    pub fn wait_timeout(self: &Arc<Self>, sim: &Arc<Sim>, timeout: Ns) -> WakeReason {
        let me = Sim::current_tid().expect("sleep outside sim thread");
        {
            let mut sl = self.inner.lock();
            match sl.state {
                SleepState::Signaled => {
                    sl.state = SleepState::Idle;
                    return WakeReason::Signaled;
                }
                SleepState::Idle => sl.state = SleepState::Waiting(me),
                SleepState::Waiting(_) => panic!("sleep record already has a waiter"),
            }
            sl.timer_ran = false;
        }
        let rec = Arc::clone(self);
        let sim2 = Arc::clone(sim);
        let ev = sim.at(timeout, move || {
            let mut sl = rec.inner.lock();
            sl.timer_ran = true;
            if sl.state == SleepState::Waiting(me) {
                // Leave the state as-is; the waiter distinguishes timeout
                // from signal by inspecting it after waking.
                sim2.wake(me);
            }
        });
        sim.block_current();
        let mut sl = self.inner.lock();
        match sl.state {
            SleepState::Signaled => {
                sl.state = SleepState::Idle;
                if !sl.timer_ran {
                    sim.cancel(ev);
                }
                WakeReason::Signaled
            }
            SleepState::Waiting(t) if t == me => {
                sl.state = SleepState::Idle;
                WakeReason::TimedOut
            }
            other => panic!("sleep record in unexpected state {other:?}"),
        }
    }

    /// Signals the record, waking the waiter if present; otherwise the
    /// signal is remembered for the next wait.
    pub fn signal(&self, sim: &Sim) {
        let mut sl = self.inner.lock();
        match sl.state {
            SleepState::Waiting(tid) => {
                sl.state = SleepState::Signaled;
                drop(sl);
                sim.wake(tid);
            }
            SleepState::Idle => sl.state = SleepState::Signaled,
            SleepState::Signaled => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (delay, tag) in [(30u64, 3), (10, 1), (20, 2)] {
            let order = Arc::clone(&order);
            sim.at(delay, move || order.lock().push(tag));
        }
        let o2 = Arc::clone(&order);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            // Block until all three events have fired.
            let rec = Arc::new(SleepRecord::new());
            let r2 = Arc::clone(&rec);
            let s3 = Arc::clone(&s2);
            s2.at(40, move || r2.signal(&s3));
            rec.wait(&s2);
            assert_eq!(*o2.lock(), vec![1, 2, 3]);
        });
        sim.run();
        assert!(sim.now() >= 40);
    }

    #[test]
    fn equal_times_run_fifo() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..8 {
            let order = Arc::clone(&order);
            sim.at(5, move || order.lock().push(tag));
        }
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let r2 = Arc::clone(&rec);
            let s3 = Arc::clone(&s2);
            s2.at(6, move || r2.signal(&s3));
            rec.wait(&s2);
        });
        sim.run();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sleep_record_signal_before_wait_is_sticky() {
        let sim = Sim::new();
        let rec = Arc::new(SleepRecord::new());
        rec.signal(&sim);
        let s2 = Arc::clone(&sim);
        let r2 = Arc::clone(&rec);
        sim.spawn("t", move || {
            r2.wait(&s2); // Must not block: signal was remembered.
        });
        sim.run();
    }

    /// What one run of [`ping_pong`] measured.
    struct PingPong {
        rounds: usize,
        /// Handoffs between the first and the last ping round.
        handoffs: u64,
        /// Notifications the bystanders got over the same window.
        bystander_notifications: u64,
    }

    /// Runs a 100-round ping-pong beside `bystanders` threads that stay
    /// blocked on their own sleep records until it is over.
    fn ping_pong(bystanders: usize) -> PingPong {
        let sim = Sim::new();
        let a = Arc::new(SleepRecord::new());
        let b = Arc::new(SleepRecord::new());
        let count = Arc::new(AtomicUsize::new(0));
        let window = Arc::new(Mutex::new(None));

        // Spawned first, so each has run and blocked before ping starts.
        let mut release = Vec::new();
        let mut idle = Vec::new();
        for i in 0..bystanders {
            let (s, rec) = (sim.clone(), Arc::new(SleepRecord::new()));
            release.push(Arc::clone(&rec));
            idle.push(sim.spawn(format!("bystander{i}"), move || rec.wait(&s)));
        }
        let (s1, a1, b1, c1, w1) = (
            sim.clone(),
            a.clone(),
            b.clone(),
            count.clone(),
            window.clone(),
        );
        sim.spawn("ping", move || {
            let before = s1.sched_counts();
            for _ in 0..100 {
                b1.signal(&s1);
                a1.wait(&s1);
                c1.fetch_add(1, Ordering::SeqCst);
            }
            *w1.lock() = Some((before, s1.sched_counts()));
            b1.signal(&s1);
            for rec in &release {
                rec.signal(&s1);
            }
        });
        let (s2, a2, b2, c2) = (sim.clone(), a.clone(), b.clone(), count.clone());
        sim.spawn("pong", move || {
            for _ in 0..100 {
                b2.wait(&s2);
                a2.signal(&s2);
                c2.fetch_add(1, Ordering::SeqCst);
            }
        });
        sim.run();
        let (before, after) = window.lock().take().expect("ping finished its rounds");
        PingPong {
            rounds: count.load(Ordering::SeqCst),
            handoffs: after.handoffs - before.handoffs,
            bystander_notifications: idle
                .iter()
                .map(|t| after.notified[t.0] - before.notified[t.0])
                .sum(),
        }
    }

    #[test]
    fn two_threads_ping_pong() {
        assert_eq!(ping_pong(0).rounds, 200);
    }

    #[test]
    fn handoffs_wake_only_their_target() {
        let alone = ping_pong(0);
        let crowded = ping_pong(8);
        assert_eq!(crowded.rounds, 200);
        // Two handoffs a round: ping to pong and back.
        assert_eq!(alone.handoffs, 200);
        assert_eq!(crowded.handoffs, alone.handoffs);
        assert_eq!(crowded.bystander_notifications, 0);
    }

    #[test]
    fn self_handoff_notifies_nobody() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        let t = sim.spawn("sleeper", move || {
            let rec = Arc::new(SleepRecord::new());
            for _ in 0..10 {
                // The timeout event this thread dispatches while blocked
                // wakes it again: the token comes straight back.
                assert_eq!(rec.wait_timeout(&s2, 1_000), WakeReason::TimedOut);
            }
        });
        sim.run();
        let counts = sim.sched_counts();
        assert_eq!(counts.self_handoffs, 10);
        assert_eq!(counts.events_dispatched, 10);
        // Harness to sleeper once, and back when the sleeper exits.
        assert_eq!(counts.handoffs, 2);
        assert_eq!(counts.notified[t.0], 1);
        assert_eq!(counts.notified[0], 1);
    }

    /// Sends on its channel when dropped.  Moved into a thread's closure,
    /// it reports the closure's drop, whether the closure ran or not.
    struct OnExit(std::sync::mpsc::Sender<()>);

    impl Drop for OnExit {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    /// Spawns a thread that blocks on a sleep record nobody signals.
    fn spawn_stuck(sim: &Arc<Sim>, name: &str, exits: &std::sync::mpsc::Sender<()>) {
        let (s, on_exit) = (Arc::clone(sim), OnExit(exits.clone()));
        sim.spawn(name, move || {
            let _on_exit = on_exit;
            SleepRecord::new().wait(&s);
        });
    }

    /// Runs `sim`, which must fail, and waits until all `threads` spawned
    /// host threads have exited.  Returns the failure message.
    fn run_to_failure(sim: &Sim, threads: usize, exits: std::sync::mpsc::Receiver<()>) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must fail");
        for k in 0..threads {
            // Bounds a hang only: a thread no failure reached never exits.
            exits
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("only {k} of {threads} threads exited"));
        }
        panic_message(err.as_ref())
    }

    #[test]
    fn panic_reaches_every_parked_thread() {
        let sim = Sim::new();
        let (tx, rx) = std::sync::mpsc::channel();
        // Three threads run first and block...
        for i in 0..3 {
            spawn_stuck(&sim, &format!("blocked{i}"), &tx);
        }
        let on_exit = OnExit(tx.clone());
        sim.spawn("bad", move || {
            let _on_exit = on_exit;
            panic!("boom from bad");
        });
        // ...and three never get their first token.
        for i in 0..3 {
            let on_exit = OnExit(tx.clone());
            sim.spawn(format!("ready{i}"), move || {
                let _on_exit = on_exit;
                unreachable!("a thread ran after the simulation failed");
            });
        }
        let msg = run_to_failure(&sim, 7, rx);
        assert!(
            msg.contains("thread 'bad' panicked: boom from bad"),
            "{msg}"
        );
    }

    #[test]
    fn deadlock_names_every_blocked_thread() {
        let sim = Sim::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let names = ["stuck-a", "stuck-b", "stuck-c", "stuck-d"];
        for name in names {
            spawn_stuck(&sim, name, &tx);
        }
        let msg = run_to_failure(&sim, names.len(), rx);
        assert!(msg.contains("deadlock"), "{msg}");
        for name in names {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn wait_timeout_times_out() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let why = rec.wait_timeout(&s2, 1_000);
            assert_eq!(why, WakeReason::TimedOut);
            assert!(s2.now() >= 1_000);
        });
        sim.run();
    }

    #[test]
    fn wait_timeout_signal_wins() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let r2 = Arc::clone(&rec);
            let s3 = Arc::clone(&s2);
            s2.at(10, move || r2.signal(&s3));
            let why = rec.wait_timeout(&s2, 1_000_000);
            assert_eq!(why, WakeReason::Signaled);
            assert!(s2.now() < 1_000_000);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        sim.spawn("stuck", move || {
            let rec = Arc::new(SleepRecord::new());
            rec.wait(&s2); // Nobody will ever signal.
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates_to_run() {
        let sim = Sim::new();
        sim.spawn("bad", || panic!("boom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "blocking at interrupt level")]
    fn blocking_in_event_is_a_model_violation() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        let s3 = Arc::clone(&sim);
        sim.at(1, move || {
            s3.block_current();
        });
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 100);
        });
        sim.run();
    }

    #[test]
    fn cancelled_events_do_not_run() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let ev = sim.at(10, move || {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        sim.cancel(ev);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 100);
        });
        sim.run();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_timeout_that_already_ran_is_not_cancelled() {
        // `b` waits with a timeout; `c` yields until the timer has run
        // (making `b` ready) and only then signals.  `b` wakes signaled,
        // but its timer is gone: cancelling it would leave its id in the
        // cancelled set forever.
        let sim = Sim::new();
        let rec = Arc::new(SleepRecord::new());
        let (r, s) = (Arc::clone(&rec), Arc::clone(&sim));
        sim.spawn("b", move || {
            assert_eq!(r.wait_timeout(&s, 100), WakeReason::Signaled);
        });
        let (r, s) = (Arc::clone(&rec), Arc::clone(&sim));
        sim.spawn("c", move || {
            while s.now() < 100 {
                s.yield_now();
            }
            r.signal(&s);
        });
        sim.run();
        assert!(sim.lock().cancelled.is_empty());
    }

    #[test]
    fn yield_lets_events_and_threads_run() {
        let sim = Sim::new();
        let progressed = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&progressed);
        sim.at(5, move || {
            p2.store(1, Ordering::SeqCst);
        });
        let s2 = Arc::clone(&sim);
        let p3 = Arc::clone(&progressed);
        sim.spawn("spinner", move || {
            while p3.load(Ordering::SeqCst) == 0 {
                s2.relax();
            }
        });
        sim.run();
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "virtual time limit")]
    fn runaway_time_is_caught() {
        let sim = Sim::new();
        sim.set_time_limit(1_000);
        // A self-rearming event with a blocked thread: time runs away.
        fn rearm(sim: Arc<Sim>) {
            let s2 = Arc::clone(&sim);
            sim.at(100, move || rearm(s2));
        }
        rearm(Arc::clone(&sim));
        let s2 = Arc::clone(&sim);
        sim.spawn("stuck", move || {
            let rec = Arc::new(SleepRecord::new());
            rec.wait(&s2);
        });
        sim.run();
    }

    #[test]
    fn run_with_no_threads_returns_immediately() {
        let sim = Sim::new();
        sim.at(10, || {});
        sim.run();
        assert_eq!(sim.now(), 0); // Events without threads never run.
    }
}
