//! The event-driven reactor runtime: thousands of pipelines on a handful
//! of threads.
//!
//! The threaded [`LocalRuntime`](crate::runtime::LocalRuntime) reproduces
//! the paper literally — one OS thread per module, pacer, watcher and
//! executor — which caps a box at a few hundred pipelines long before CPU
//! does. The reactor keeps the *same* `Module`/`Service` traits and
//! [`RuntimeConfig`] surface but executes everything as scheduled tasks on
//! a worker pool sized to cores:
//!
//! * **Tasks, not threads.** Every module, service host and pacer is a
//!   task with a 4-state readiness machine (idle → queued → running →
//!   dirty). Message sends wake the destination task through a deploy-time
//!   channel→task map, frozen into an immutable per-pipeline snapshot at
//!   the end of `add_pipeline` so the steady-state send path takes no lock
//!   and allocates nothing.
//! * **Per-worker queues with stealing.** Each worker owns a LIFO slot
//!   (just-woken task: warm producer→consumer handoff), two bounded local
//!   FIFO queues (split by blocking capability) and a targeted parker —
//!   a push wakes one parked worker, never a broadcast. Every pipeline has
//!   a *home worker* assigned at deploy, so its module steps, service
//!   dispatch and watcher ticks tend to share a core; idle workers steal
//!   from siblings (randomized victim sweep) as the escape valve under
//!   imbalance, and local-queue overflow spills to a pair of global MPMC
//!   queues visible to all.
//! * **Timer wheel, not sleeps.** Pacer ticks, SLO/heartbeat/telemetry
//!   intervals, checkpoint periods and *modeled service costs* are entries
//!   on a coalescing timer wheel, sharded per worker so 10k pipelines'
//!   recurring ticks don't serialize on one mutex, served by one thread. A
//!   slow modeled service defers its replies through the wheel instead of
//!   occupying a worker, so it cannot starve co-hosted services.
//! * **Wait by helping.** [`ModuleCtx::call_service`] is synchronous by
//!   contract. A module task waiting for a reply runs *other* ready tasks
//!   inline instead of parking its worker. Helpers above a bounded depth
//!   only run non-blocking tasks (service dispatch, pacers, watchers) —
//!   and replies are always produced by non-blocking tasks, so the wait
//!   always makes progress even with a single worker.
//! * **One I/O thread.** TCP ingress uses the non-blocking
//!   [`PollEndpoint`](videopipe_net::PollEndpoint) poll loop: one thread
//!   drains every endpoint of every pipeline and feeds completed frames to
//!   the readiness queues. No per-connection reader threads. When a poll
//!   pass finds nothing, the thread blocks in `poll(2)` on every socket
//!   plus a waker socket pair that deploy and shutdown write to, so idle
//!   ingress costs no wake-ups and a frame is read as soon as it lands.
//!
//! Thread count is `workers (≈ cores) + 1 timer + 1 I/O (TCP only)`,
//! independent of pipeline count. Two deliberate semantic deltas from the
//! threaded runtime, both documented in DESIGN.md §5.11: service dispatch
//! free-drains whatever is queued but never *holds* a partial batch open
//! (requests accumulate naturally while a batch waits for a worker), and
//! per-device `cores` no longer multiplies executor threads — service
//! parallelism comes from the shared pool.

use crate::deploy::DeploymentPlan;
use crate::error::PipelineError;
use crate::flow::{CreditController, SourcePacer};
use crate::health::FailureDetector;
use crate::message::{Header, Message, Payload};
use crate::metrics::PipelineMetrics;
use crate::module::{Event, Module, ModuleCtx, ModuleFactory, ModuleRegistry};
use crate::resilience::{seed_for, DegradationPolicy, SeededJitter};
use crate::runtime::{
    collect_report, fc_chan, hb_chan, mod_chan, panic_message, reply_chan, EdgeTransport,
    KnobActuators, ModuleWiring, Router, RunReport, RuntimeConfig, Shared, ShutdownGate, POLL,
};
use crate::service::{Service, ServiceRegistry, ServiceRequest, ServiceResponse};
use crate::slo::{SloAction, SloController};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_media::{codec, FrameStore};
use videopipe_net::{
    InprocHub, InprocReceiver, InprocSender, MessageKind, MsgReceiver, MsgSender, NetError,
    PollEndpoint, WireMessage,
};

/// Executor knobs for a [`ReactorRuntime`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads running ready tasks. `0` (the default) sizes the
    /// pool to the machine's available parallelism.
    pub workers: usize,
    /// How deep wait-by-helping may nest through *blocking-capable* module
    /// tasks. Helpers above this depth only run non-blocking tasks, which
    /// bounds stack growth while keeping service replies reachable.
    pub help_depth: usize,
    /// Timer-wheel tick width. Deferred work (pacer ticks, modeled costs,
    /// watcher intervals) is quantized to this granularity.
    pub timer_granularity: Duration,
    /// Messages one module task drains per scheduling quantum before
    /// yielding its worker.
    pub module_quantum: usize,
    /// Whether idle workers steal from sibling local queues. On by
    /// default; turning it off pins every pipeline strictly to its home
    /// worker (useful for isolating scheduling experiments). Non-worker
    /// threads helping their own service calls always sweep regardless.
    pub steal: bool,
    /// Overrides the home worker for *every* pipeline deployed to this
    /// runtime (modulo worker count). `None` (the default) assigns
    /// pipeline `i` to worker `i % workers` at deploy time.
    pub affinity: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 0,
            help_depth: 1,
            timer_granularity: Duration::from_micros(200),
            module_quantum: 32,
            steal: true,
            affinity: None,
        }
    }
}

impl ReactorConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

// Task readiness states.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
/// Woken while running: must requeue when the current run finishes.
const DIRTY: u8 = 3;

/// How long a waiting module parks between helping attempts when no reply
/// and no helpable work is available.
const HELP_PARK: Duration = Duration::from_micros(200);

/// How long an idle worker parks before re-polling its queues. A push
/// that races a worker's park entry may lose its wake; the timeout bounds
/// the cost of that race to latency, never progress.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Batches one service task dispatches per quantum before yielding.
const SERVICE_BATCH_QUANTUM: usize = 4;

/// Bounded per-worker local run-queue depth. Beyond this, pushes spill to
/// the global overflow queues, so one hot pipeline cannot grow its home
/// worker's queue without bound — and spilled tasks become visible to
/// every worker, which doubles as a pressure valve.
const LOCAL_QUEUE_CAP: usize = 256;

/// Frames one TCP endpoint may deliver per I/O poll pass before the
/// shared I/O thread moves on to its siblings.
const IO_POLL_BUDGET: usize = 256;

/// How long the I/O thread waits before retrying when `poll(2)` itself
/// fails, so an error cannot turn its readiness wait into a spin.
const IO_WAIT_RETRY: Duration = Duration::from_millis(10);

/// Per-device frame-store capacity under the reactor. Small on purpose:
/// in-flight frames per pipeline are bounded by credits, and 10k pipelines
/// each carrying the threaded default would dominate the memory budget.
/// The store evicts oldest-first beyond this.
const REACTOR_STORE_CAPACITY: usize = 16;

/// Pads and aligns a value to a cache line so per-worker hot state (queue
/// locks, stats counters, timer shards) and the task table's state bytes
/// never false-share a line with their neighbours.
#[repr(align(64))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One unit of schedulable work.
trait TaskRunner: Send {
    /// Runs one quantum. Returns `true` when work is known to remain (the
    /// task requeues immediately).
    fn run(&mut self, core: &Core, depth: usize) -> bool;
    /// Called once at shutdown, after workers have stopped.
    fn finalize(&mut self, _core: &Core) {}
}

struct Task {
    /// Home worker (pipeline affinity): wakes from off-worker threads
    /// (timer, I/O, deploy) land on this worker's local queue so one
    /// pipeline's tasks tend to share a core; stealing is the escape
    /// valve under imbalance.
    home: usize,
    /// Module tasks may block (wait-by-helping) inside `call_service`;
    /// everything else never blocks and is always safe to help with.
    blocking: bool,
    /// The 4-state readiness machine, padded so the wake CAS on one task
    /// never contends with a neighbouring task's state line.
    state: CachePadded<AtomicU8>,
    runner: Mutex<Box<dyn TaskRunner>>,
}

/// One worker's park/unpark latch. Unlike the old pool-wide doorbell,
/// wakes are *targeted*: a push unparks at most one specific worker — no
/// broadcast, no thundering herd. `notified` makes an unpark that lands
/// just before the park call stick; the remaining race window (a push
/// between a worker's last queue check and its park) is tolerated because
/// workers re-poll on [`IDLE_PARK`], so a missed wake costs bounded
/// latency, never progress.
struct Parker {
    /// Advisory "inside park": wake targeting scans this.
    idle: AtomicBool,
    /// A pending unpark not yet consumed by a park.
    notified: AtomicBool,
    mutex: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl Parker {
    fn new() -> Self {
        Parker {
            idle: AtomicBool::new(false),
            notified: AtomicBool::new(false),
            mutex: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    fn park(&self, timeout: Duration) {
        if self.notified.swap(false, Ordering::SeqCst) {
            return;
        }
        self.idle.store(true, Ordering::SeqCst);
        {
            let guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the lock: an unpark between the first check
            // and here has set `notified` and must not be slept through.
            if !self.notified.swap(false, Ordering::SeqCst) {
                let _ = self
                    .cv
                    .wait_timeout(guard, timeout)
                    .unwrap_or_else(|e| e.into_inner());
                self.notified.store(false, Ordering::SeqCst);
            }
        }
        self.idle.store(false, Ordering::SeqCst);
    }

    fn unpark(&self) {
        self.notified.store(true, Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) {
            let _guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_one();
        }
    }
}

/// Per-worker scheduler counters (low-cardinality: one set per worker
/// thread, never per task). Snapshotted into [`WorkerSchedStats`] for
/// reports and the bench artifact.
struct WorkerStats {
    tasks_run: AtomicU64,
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    queue_high_water: AtomicU64,
    timer_fires: AtomicU64,
    unparks: AtomicU64,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            tasks_run: AtomicU64::new(0),
            steals_attempted: AtomicU64::new(0),
            steals_succeeded: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            timer_fires: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
        }
    }
}

/// One worker's scheduling state: a LIFO slot for the just-woken task, a
/// pair of bounded FIFO local queues split by blocking capability, a
/// targeted parker and the scheduler counters. Each `WorkerQueue` lives
/// in its own cache line(s); siblings touch it only to push affine work
/// or to steal.
struct WorkerQueue {
    /// The task most recently woken *by this worker* — usually the
    /// consumer of a message it just produced. Running it next keeps the
    /// producer→consumer handoff on warm caches.
    lifo: Mutex<Option<Arc<Task>>>,
    /// Non-blocking local tasks (service dispatch, pacers, watchers).
    nb_local: Mutex<VecDeque<Arc<Task>>>,
    /// Blocking-capable module tasks (runnable only within `help_depth`).
    md_local: Mutex<VecDeque<Arc<Task>>>,
    parker: Parker,
    /// Owner-only xorshift state for randomized steal victim selection.
    steal_seed: AtomicU64,
    stats: WorkerStats,
}

impl WorkerQueue {
    fn new(seed: u64) -> Self {
        WorkerQueue {
            lifo: Mutex::new(None),
            nb_local: Mutex::new(VecDeque::new()),
            md_local: Mutex::new(VecDeque::new()),
            parker: Parker::new(),
            steal_seed: AtomicU64::new(seed | 1),
            stats: WorkerStats::new(),
        }
    }
}

thread_local! {
    /// Index of the current thread in its reactor's worker pool;
    /// `usize::MAX` on non-worker threads (timer, I/O, deploy).
    static WORKER_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Deferred work on the timer wheel.
enum TimerEntry {
    /// Wake a task at the deadline.
    Wake(usize),
    /// Deliver already-computed messages at the deadline (timer-deferred
    /// modeled service cost: the replies exist, the latency is modeled by
    /// the wheel instead of a sleeping worker).
    Deliver {
        pipe: Arc<PipeRt>,
        from_device: String,
        msgs: Vec<WireMessage>,
    },
}

/// A coalescing timer wheel, sharded per worker: a pipeline's deadlines
/// (pacer ticks, watcher sweeps, deferred modeled costs) land in its home
/// worker's shard, so 10k pipelines arming recurring ticks lock 1/Nth of
/// the wheel instead of serializing on one mutex. One thread still serves
/// every shard: it sleeps towards the earliest armed tick — maintained as
/// an atomic lower bound with `fetch_min` — and fires everything due
/// across all shards in one sweep. Entries due on the same tick share one
/// wakeup, and recurring-tick dedup lives in [`Rearm`] exactly as before.
/// One timer-wheel shard: due tick → entries, padded to its own line.
type WheelShard = CachePadded<std::sync::Mutex<std::collections::BTreeMap<u64, Vec<TimerEntry>>>>;

struct TimerWheel {
    granularity_ns: u64,
    origin: Instant,
    shards: Vec<WheelShard>,
    /// Lower bound on the earliest armed tick across all shards
    /// (`u64::MAX` when the bound is unknown or nothing is armed).
    earliest: AtomicU64,
    sleep_mutex: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl TimerWheel {
    fn new(granularity: Duration, shards: usize) -> Self {
        TimerWheel {
            granularity_ns: (granularity.as_nanos() as u64).max(1),
            origin: Instant::now(),
            shards: (0..shards.max(1))
                .map(|_| CachePadded(std::sync::Mutex::new(std::collections::BTreeMap::new())))
                .collect(),
            earliest: AtomicU64::new(u64::MAX),
            sleep_mutex: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    fn schedule(&self, shard: usize, at: Instant, entry: TimerEntry) {
        let ns = at.saturating_duration_since(self.origin).as_nanos() as u64;
        let tick = ns.div_ceil(self.granularity_ns);
        {
            let shard = &self.shards[shard % self.shards.len()];
            let mut slots = shard.lock().unwrap_or_else(|e| e.into_inner());
            slots.entry(tick).or_default().push(entry);
        }
        if self.earliest.fetch_min(tick, Ordering::SeqCst) > tick {
            // The wheel thread may be sleeping towards a later deadline.
            // Taking the sleep mutex orders this notify against its
            // earliest-recheck-then-wait, so the wake cannot be lost.
            let _guard = self.sleep_mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    fn kick(&self) {
        let _guard = self.sleep_mutex.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// Blocks until at least one entry is due (or shutdown), then returns
    /// everything due right now, grouped as `(shard, entries)`.
    fn next_due(&self, stop: &AtomicBool) -> Vec<(usize, Vec<TimerEntry>)> {
        loop {
            if stop.load(Ordering::SeqCst) {
                return Vec::new();
            }
            let now_ns = self.origin.elapsed().as_nanos() as u64;
            let now_tick = now_ns / self.granularity_ns;
            let mut due = Vec::new();
            let mut next_tick = u64::MAX;
            if self.earliest.load(Ordering::SeqCst) <= now_tick {
                // Claim the sweep. A schedule() racing in with an earlier
                // deadline fetch_mins the bound back down and re-notifies.
                self.earliest.store(u64::MAX, Ordering::SeqCst);
                for (i, shard) in self.shards.iter().enumerate() {
                    let mut slots = shard.lock().unwrap_or_else(|e| e.into_inner());
                    let mut fired = Vec::new();
                    while let Some((&tick, _)) = slots.first_key_value() {
                        if tick > now_tick {
                            break;
                        }
                        if let Some((_, mut entries)) = slots.pop_first() {
                            fired.append(&mut entries);
                        }
                    }
                    if let Some((&tick, _)) = slots.first_key_value() {
                        next_tick = next_tick.min(tick);
                    }
                    if !fired.is_empty() {
                        due.push((i, fired));
                    }
                }
                self.earliest.fetch_min(next_tick, Ordering::SeqCst);
            } else {
                next_tick = self.earliest.load(Ordering::SeqCst);
            }
            if !due.is_empty() {
                return due;
            }
            let wait = if next_tick == u64::MAX {
                // Nothing scheduled: park until the next schedule() kicks.
                Duration::from_millis(50)
            } else {
                let target_ns = next_tick * self.granularity_ns;
                Duration::from_nanos(target_ns.saturating_sub(now_ns).max(1))
            };
            let guard = self.sleep_mutex.lock().unwrap_or_else(|e| e.into_inner());
            // Recheck under the sleep mutex: a schedule() that lowered the
            // bound after `next_tick` was computed notified while nobody
            // waited; sleeping `wait` here would overshoot its deadline.
            if self.earliest.load(Ordering::SeqCst) < next_tick {
                continue;
            }
            let _ = self
                .cv
                .wait_timeout(guard, wait)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A TCP ingress endpoint owned by the reactor's single I/O thread.
struct IoEndpoint {
    pipe: Arc<PipeRt>,
    endpoint: PollEndpoint,
    /// Hub senders resolved on first use per channel, so steady-state
    /// delivery takes no hub lock and allocates nothing.
    senders: HashMap<String, InprocSender>,
}

impl IoEndpoint {
    /// One budgeted poll pass: hands each completed frame to its channel's
    /// inbox and wakes the channel's task. Frames for a channel that is
    /// not bound yet (a peer racing the deploy) are dropped.
    fn poll(&mut self, core: &Core) -> usize {
        let IoEndpoint {
            pipe,
            endpoint,
            senders,
        } = self;
        endpoint.poll_budget(IO_POLL_BUDGET, &mut |msg| {
            let sender = match senders.get(msg.channel.as_str()) {
                Some(sender) => sender,
                None => match pipe.shared.hub.connect(&msg.channel) {
                    Ok(sender) => senders.entry(msg.channel.clone()).or_insert(sender),
                    Err(_) => return,
                },
            };
            let task = pipe.task_for(&msg.channel);
            if sender.send(msg).is_ok() {
                if let Some(task) = task {
                    core.wake(&task);
                }
            }
        })
    }
}

/// Per-pipeline runtime registration: the pipeline's shared state, its
/// home worker (the deploy-time affinity hint) and the channel→task
/// notify map.
///
/// The notify map is *frozen* at the end of `add_pipeline` into an
/// immutable snapshot that every send reads with no lock and no
/// allocation — the per-send `RwLock` + `channel.to_string()` of the
/// previous design was the hottest shared state in the reactor. During
/// deploy (module `init` runs inline and may make service calls) lookups
/// fall back to the mutex-guarded staging map that `map_channel` fills.
struct PipeRt {
    /// Home worker for every task of this pipeline, so its module steps,
    /// service dispatch and watcher ticks tend to stay on one core (warm
    /// caches, no cross-core wake ping-pong).
    home: usize,
    shared: Arc<Shared>,
    notify: std::sync::OnceLock<HashMap<String, Arc<Task>>>,
    staging: Mutex<HashMap<String, Arc<Task>>>,
}

impl PipeRt {
    fn task_for(&self, channel: &str) -> Option<Arc<Task>> {
        if let Some(map) = self.notify.get() {
            return map.get(channel).cloned();
        }
        self.staging.lock().get(channel).cloned()
    }

    fn freeze(&self) {
        let staged = std::mem::take(&mut *self.staging.lock());
        let _ = self.notify.set(staged);
    }
}

/// Shared reactor core: task table, ready queues, timer wheel, wake map.
/// Index of the calling thread in `workers`, or `None` for non-worker
/// threads (timer, I/O, the deploying thread).
fn current_worker(workers: usize) -> Option<usize> {
    let id = WORKER_ID.with(|c| c.get());
    (id < workers).then_some(id)
}

struct Core {
    cfg: ReactorConfig,
    /// Task table for cold-path lookup by id (timer wakes, finalize).
    /// Hot paths carry `Arc<Task>` through the queues and never touch it.
    tasks: RwLock<Vec<Arc<Task>>>,
    /// Per-worker scheduling state: LIFO slot, bounded local queues,
    /// targeted parker, steal seed, counters.
    workers: Vec<CachePadded<WorkerQueue>>,
    /// Global overflow/injection queues on the lock-free MPMC channel
    /// layer: non-blocking tasks (always helpable) and blocking-capable
    /// module tasks. Local-queue spill lands here, as do pushes when the
    /// reactor has a single worker's worth of backlog everywhere.
    nb_ready: (Sender<Arc<Task>>, Receiver<Arc<Task>>),
    mod_ready: (Sender<Arc<Task>>, Receiver<Arc<Task>>),
    timers: TimerWheel,
    /// Per-pipeline runtime registrations, indexed by pipeline id.
    pipelines: RwLock<Vec<Arc<PipeRt>>>,
    stop: AtomicBool,
}

impl Core {
    fn current_worker(&self) -> Option<usize> {
        current_worker(self.workers.len())
    }

    fn wake_task(&self, id: usize) {
        let task = {
            let tasks = self.tasks.read();
            match tasks.get(id) {
                Some(t) => Arc::clone(t),
                None => return,
            }
        };
        self.wake(&task);
    }

    fn wake(&self, task: &Arc<Task>) {
        loop {
            match task.state.load(Ordering::SeqCst) {
                IDLE => {
                    if task
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.push_ready(task);
                        return;
                    }
                }
                RUNNING => {
                    if task
                        .state
                        .compare_exchange(RUNNING, DIRTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED or DIRTY: a wakeup is already pending.
                _ => return,
            }
        }
    }

    /// Queues a freshly-woken task. A worker waking a task claims its own
    /// LIFO slot — the woken task is usually the consumer of a message the
    /// worker just produced, and running it next keeps the handoff on warm
    /// caches. Off-worker wakes (timer, I/O, deploy) go to the task's home
    /// worker so a pipeline's steps stay on one core.
    fn push_ready(&self, task: &Arc<Task>) {
        if let Some(wid) = self.current_worker() {
            let displaced = self.workers[wid].lifo.lock().replace(Arc::clone(task));
            if let Some(prev) = displaced {
                self.push_local(wid, prev);
            }
            return;
        }
        let home = task.home % self.workers.len();
        self.push_local(home, Arc::clone(task));
    }

    /// Requeues a task that stayed runnable (quantum expiry or a DIRTY
    /// wake observed at run end). Skips the LIFO slot on purpose: a task
    /// that keeps itself runnable must round-robin with its queue
    /// siblings, or it would monopolize its worker through the slot.
    fn requeue(&self, task: &Arc<Task>) {
        let wid = self
            .current_worker()
            .unwrap_or(task.home % self.workers.len());
        self.push_local(wid, Arc::clone(task));
    }

    /// Pushes onto a worker's bounded local queue, spilling to the global
    /// queues when full, and wakes at most one parked worker.
    fn push_local(&self, wid: usize, task: Arc<Task>) {
        let wq = &self.workers[wid];
        let blocking = task.blocking;
        let queue = if blocking { &wq.md_local } else { &wq.nb_local };
        let overflow = {
            let mut q = queue.lock();
            if q.len() < LOCAL_QUEUE_CAP {
                q.push_back(task);
                let depth = q.len() as u64;
                drop(q);
                wq.stats
                    .queue_high_water
                    .fetch_max(depth, Ordering::Relaxed);
                None
            } else {
                Some(task)
            }
        };
        match overflow {
            None => self.notify_push(wid),
            Some(task) => {
                // Spill: the overflow becomes visible to every worker,
                // which doubles as a pressure valve for a hot home.
                let global = if blocking {
                    &self.mod_ready.0
                } else {
                    &self.nb_ready.0
                };
                let _ = global.send(task);
                self.notify_any_idle();
            }
        }
    }

    /// Wakes the queue's owner if it is parked; otherwise, when stealing
    /// is on, wakes one parked sibling to come steal. Never a broadcast.
    fn notify_push(&self, wid: usize) {
        let wq = &self.workers[wid];
        if wq.parker.idle.load(Ordering::SeqCst) {
            wq.stats.unparks.fetch_add(1, Ordering::Relaxed);
            wq.parker.unpark();
            return;
        }
        if self.cfg.steal {
            self.notify_any_idle();
        }
    }

    fn notify_any_idle(&self) {
        for wq in &self.workers {
            if wq.parker.idle.load(Ordering::SeqCst) {
                wq.stats.unparks.fetch_add(1, Ordering::Relaxed);
                wq.parker.unpark();
                return;
            }
        }
    }

    fn wake_channel(&self, pipe: &PipeRt, channel: &str) {
        if let Some(task) = pipe.task_for(channel) {
            self.wake(&task);
        }
    }

    /// Sends through the pipeline's router and wakes the channel's task.
    fn send_and_wake(
        &self,
        pipe: &PipeRt,
        from_device: &str,
        msg: WireMessage,
    ) -> Result<(), PipelineError> {
        let chan = msg.channel.clone();
        pipe.shared.router.send_from(from_device, msg)?;
        self.wake_channel(pipe, &chan);
        Ok(())
    }

    /// Pops and runs one ready task, if any is runnable at `depth`:
    /// own LIFO slot, then own local queues, then the global queues, then
    /// a randomized steal sweep over siblings. Non-blocking tasks are
    /// always runnable; module tasks only while the helping depth stays
    /// within the configured bound.
    fn try_run_one(&self, depth: usize) -> bool {
        let help_mods = depth <= self.cfg.help_depth;
        let me = self.current_worker();
        if let Some(wid) = me {
            if let Some(task) = self.pop_local(wid, help_mods) {
                self.run_queued(&task, depth);
                return true;
            }
        }
        if let Ok(task) = self.nb_ready.1.try_recv() {
            self.run_queued(&task, depth);
            return true;
        }
        if help_mods {
            if let Ok(task) = self.mod_ready.1.try_recv() {
                self.run_queued(&task, depth);
                return true;
            }
        }
        // Local and global queues are dry: steal. Non-worker threads
        // (deploy-time init helping its own service calls) always sweep —
        // the work they are waiting on may sit in a worker's local queue.
        let may_steal = me.is_none() || (self.cfg.steal && self.workers.len() > 1);
        if may_steal {
            if let Some(task) = self.try_steal(me, help_mods) {
                self.run_queued(&task, depth);
                return true;
            }
        }
        false
    }

    fn pop_local(&self, wid: usize, help_mods: bool) -> Option<Arc<Task>> {
        let wq = &self.workers[wid];
        {
            let mut lifo = wq.lifo.lock();
            // Peek-gate: a blocking task in the slot may only be popped
            // within the helping depth bound; otherwise it stays for the
            // owner's depth-0 loop (or a shallower stealer).
            if lifo.as_ref().is_some_and(|t| !t.blocking || help_mods) {
                return lifo.take();
            }
        }
        if let Some(task) = wq.nb_local.lock().pop_front() {
            return Some(task);
        }
        if help_mods {
            if let Some(task) = wq.md_local.lock().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// One randomized sweep over sibling queues. Victim order inside one
    /// victim: its FIFO backlog first (oldest, coldest — cheap to move),
    /// its LIFO slot last (warmest; stolen only when nothing else runs).
    /// `try_lock` everywhere: contending with a busy owner is exactly the
    /// case where stealing is pointless.
    fn try_steal(&self, me: Option<usize>, help_mods: bool) -> Option<Arc<Task>> {
        let n = self.workers.len();
        let start = match me {
            Some(wid) => {
                let wq = &self.workers[wid];
                wq.stats.steals_attempted.fetch_add(1, Ordering::Relaxed);
                // Owner-only xorshift: no shared RNG state, no allocation.
                let mut s = wq.steal_seed.load(Ordering::Relaxed);
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                wq.steal_seed.store(s, Ordering::Relaxed);
                (s as usize) % n
            }
            None => 0,
        };
        let mut found = None;
        'sweep: for i in 0..n {
            let v = (start + i) % n;
            if Some(v) == me {
                continue;
            }
            let wq = &self.workers[v];
            if let Some(mut q) = wq.nb_local.try_lock() {
                if let Some(task) = q.pop_front() {
                    found = Some(task);
                    break 'sweep;
                }
            }
            if help_mods {
                if let Some(mut q) = wq.md_local.try_lock() {
                    if let Some(task) = q.pop_front() {
                        found = Some(task);
                        break 'sweep;
                    }
                }
            }
            if let Some(mut slot) = wq.lifo.try_lock() {
                if slot.as_ref().is_some_and(|t| !t.blocking || help_mods) {
                    found = slot.take();
                    break 'sweep;
                }
            }
        }
        if found.is_some() {
            if let Some(wid) = me {
                self.workers[wid]
                    .stats
                    .steals_succeeded
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    fn run_queued(&self, task: &Arc<Task>, depth: usize) {
        if let Some(wid) = self.current_worker() {
            self.workers[wid]
                .stats
                .tasks_run
                .fetch_add(1, Ordering::Relaxed);
        }
        task.state.store(RUNNING, Ordering::SeqCst);
        let more = {
            let mut runner = task.runner.lock();
            runner.run(self, depth)
        };
        if more {
            task.state.store(QUEUED, Ordering::SeqCst);
            self.requeue(task);
            return;
        }
        if task
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // A wake arrived mid-run (DIRTY): requeue.
            task.state.store(QUEUED, Ordering::SeqCst);
            self.requeue(task);
        }
    }

    fn worker_loop(&self, wid: usize) {
        WORKER_ID.with(|c| c.set(wid));
        while !self.stop.load(Ordering::SeqCst) {
            if self.try_run_one(0) {
                continue;
            }
            self.workers[wid].parker.park(IDLE_PARK);
        }
    }

    fn timer_loop(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            for (shard, entries) in self.timers.next_due(&self.stop) {
                self.workers[shard % self.workers.len()]
                    .stats
                    .timer_fires
                    .fetch_add(entries.len() as u64, Ordering::Relaxed);
                for entry in entries {
                    match entry {
                        TimerEntry::Wake(id) => self.wake_task(id),
                        TimerEntry::Deliver {
                            pipe,
                            from_device,
                            msgs,
                        } => {
                            for msg in msgs {
                                let _ = self.send_and_wake(&pipe, &from_device, msg);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The I/O thread: budgeted poll passes over every TCP endpoint while
    /// they deliver, and a `poll(2)` readiness wait on all their sockets
    /// plus `waker` once a pass finds nothing. `add_pipeline` and
    /// shutdown write a byte to the waker's peer after publishing new
    /// endpoints or setting `stop`, so the wait needs no timeout except
    /// while an endpoint's `accept` is backing off.
    fn io_loop(&self, registry: &Receiver<IoEndpoint>, mut waker: UnixStream) {
        let mut endpoints: Vec<IoEndpoint> = Vec::new();
        let mut fds = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            while let Ok(ep) = registry.try_recv() {
                endpoints.push(ep);
            }
            // Budgeted polls: one hot endpoint cannot pin the shared I/O
            // thread. Any delivery means another pass before waiting: a
            // capped pass may have left frames decoded in user space,
            // which no readiness wait would report.
            let delivered: usize = endpoints.iter_mut().map(|ep| ep.poll(self)).sum();
            if delivered > 0 {
                continue;
            }
            fds.clear();
            fds.push(waker.as_raw_fd());
            for ep in &endpoints {
                ep.endpoint.append_fds(&mut fds);
            }
            let timeout = endpoints
                .iter()
                .filter_map(|ep| ep.endpoint.accept_paused_until())
                .min()
                .map(|at| at.saturating_duration_since(Instant::now()));
            if videopipe_net::sys::wait_readable(&fds, timeout).is_err() {
                // poll(2) itself failed (ENOMEM): pace the retry on the
                // registry rather than spin.
                if let Ok(ep) = registry.recv_timeout(IO_WAIT_RETRY) {
                    endpoints.push(ep);
                }
            }
            // Drain the wake bytes; the registry and `stop` are re-read at
            // the top of the loop.
            let mut sink = [0u8; 64];
            while matches!(waker.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    /// Helps run other tasks until `deadline` (modeled link/backoff delays:
    /// the wait is real wall time, but the worker stays productive).
    fn help_until(&self, depth: usize, deadline: Instant) {
        loop {
            let now = Instant::now();
            if now >= deadline || self.stop.load(Ordering::SeqCst) {
                return;
            }
            if !self.try_run_one(depth + 1) {
                std::thread::sleep((deadline - now).min(HELP_PARK));
            }
        }
    }

    /// Snapshot of the per-worker scheduler counters.
    fn scheduler_stats(&self) -> Vec<crate::metrics::WorkerSchedStats> {
        self.workers
            .iter()
            .enumerate()
            .map(|(worker, wq)| crate::metrics::WorkerSchedStats {
                worker,
                tasks_run: wq.stats.tasks_run.load(Ordering::Relaxed),
                steals_attempted: wq.stats.steals_attempted.load(Ordering::Relaxed),
                steals_succeeded: wq.stats.steals_succeeded.load(Ordering::Relaxed),
                queue_high_water: wq.stats.queue_high_water.load(Ordering::Relaxed),
                timer_fires: wq.stats.timer_fires.load(Ordering::Relaxed),
                unparks: wq.stats.unparks.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Reactor-local service channel: pipeline-scoped so thousands of
/// pipelines binding the same (device, service) pair on their private
/// hubs stay disjoint in the reactor's global wake map.
fn rsvc_chan(pipeline: &str, device: &str, service: &str) -> String {
    format!("svc/{pipeline}/{device}/{service}")
}

/// Recurring-timer dedup: tracks the deadline already armed for a task so
/// message-driven wakes don't flood the wheel with duplicate entries. The
/// shard is the task's home worker: a pipeline's recurring ticks lock only
/// its own wheel shard.
struct Rearm {
    id: usize,
    shard: usize,
    armed_for: Option<Instant>,
}

impl Rearm {
    fn new(id: usize, shard: usize) -> Self {
        Rearm {
            id,
            shard,
            armed_for: None,
        }
    }

    fn ensure(&mut self, core: &Core, at: Instant) {
        if self.armed_for != Some(at) {
            core.timers
                .schedule(self.shard, at, TimerEntry::Wake(self.id));
            self.armed_for = Some(at);
        }
    }
}

/// Per-module context state that survives across scheduling quanta.
struct CtxState {
    header: Header,
    /// Fence epoch of the event being processed, stamped onto outputs.
    epoch: u64,
    corr: u64,
    reply_rx: InprocReceiver,
    /// Last successful response per service, in wire form (see `LocalCtx`).
    lkg: HashMap<String, bytes::Bytes>,
    /// Deterministic per-module retry jitter stream.
    jitter: SeededJitter,
}

/// The [`ModuleCtx`] handed to module handlers on the reactor. Mirrors the
/// threaded `LocalCtx` except that every wait — service replies, modeled
/// link transfers, retry backoffs — helps run other ready tasks instead of
/// parking the worker.
struct ReactorCtx<'a> {
    core: &'a Core,
    depth: usize,
    pipe: &'a Arc<PipeRt>,
    pipeline: &'a str,
    shared: &'a Arc<Shared>,
    wiring: &'a ModuleWiring,
    st: &'a mut CtxState,
}

impl ReactorCtx<'_> {
    fn store(&self) -> &Arc<FrameStore> {
        self.shared
            .stores
            .get(&self.wiring.device)
            .expect("device store exists")
    }

    /// Emulates a modeled cost by helping until the scaled deadline — the
    /// wall-clock wait is identical to the threaded runtime's sleep, but
    /// the worker keeps running other pipelines' tasks meanwhile.
    fn emulate(&mut self, modeled: Duration) {
        let scale = self.shared.config.time_scale;
        if scale > 0.0 {
            self.core
                .help_until(self.depth, Instant::now() + modeled.mul_f64(scale));
        }
    }

    /// Checks one inbound reply against the outstanding correlation id.
    /// `None` = stale response to a timed-out attempt; skip it.
    fn check_reply(
        &mut self,
        msg: WireMessage,
        corr_id: u64,
        remote: bool,
        service: &str,
    ) -> Option<Result<(ServiceResponse, bytes::Bytes), PipelineError>> {
        if msg.kind != MessageKind::Response || msg.corr_id != corr_id {
            return None;
        }
        if remote {
            self.emulate(Duration::from_micros(
                2_500 + msg.payload.len() as u64 * 8 / 100,
            ));
        }
        let resp = match ServiceResponse::decode(&msg.payload) {
            Ok(resp) => resp,
            Err(e) => return Some(Err(e)),
        };
        // Executors answer failures with a typed error payload.
        if let Payload::Error(reason) = &resp.payload {
            return Some(Err(PipelineError::Service {
                service: service.to_string(),
                reason: reason.clone(),
            }));
        }
        Some(Ok((resp, msg.payload)))
    }

    /// One request/response exchange, bounded by the per-call deadline.
    /// The wait helps run other ready tasks; service tasks are always
    /// helpable, so the reply stays reachable even on one worker.
    fn attempt_service_call(
        &mut self,
        service: &str,
        channel: &str,
        remote: bool,
        bytes: bytes::Bytes,
    ) -> Result<(ServiceResponse, bytes::Bytes), PipelineError> {
        if remote {
            // Emulated request transfer (~wifi: 2.5ms + 100Mbit/s).
            self.emulate(Duration::from_micros(2_500 + bytes.len() as u64 * 8 / 100));
        }
        self.st.corr += 1;
        let corr_id = self.st.corr;
        self.core.send_and_wake(
            self.pipe,
            &self.wiring.device,
            WireMessage::request(
                channel.to_string(),
                reply_chan(self.pipeline, &self.wiring.name),
                corr_id,
                bytes,
            ),
        )?;
        let started = Instant::now();
        let deadline = started + self.shared.config.resilience.service_call_timeout;
        loop {
            // Drain anything already delivered.
            while let Ok(msg) = self.st.reply_rx.try_recv() {
                if let Some(result) = self.check_reply(msg, corr_id, remote, service) {
                    return result;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PipelineError::Timeout {
                    service: service.to_string(),
                    elapsed: started.elapsed(),
                });
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                return Err(PipelineError::Shutdown);
            }
            if !self.core.try_run_one(self.depth + 1) {
                // Nothing helpable right now: park briefly on the reply
                // channel itself, so a reply landing mid-park wakes us.
                let wait = (deadline - now).min(HELP_PARK);
                if let Ok(msg) = self.st.reply_rx.recv_timeout(wait) {
                    if let Some(result) = self.check_reply(msg, corr_id, remote, service) {
                        return result;
                    }
                }
            }
        }
    }

    fn breaker_allows(&mut self, service: &str) -> bool {
        let now_ns = self.shared.now_ns();
        let mut breakers = self.shared.breakers.lock();
        breakers
            .entry(service.to_string())
            .or_insert_with(|| self.shared.config.resilience.make_breaker())
            .allow(now_ns)
    }

    fn breaker_record(&mut self, service: &str, success: bool) {
        let now_ns = self.shared.now_ns();
        let mut breakers = self.shared.breakers.lock();
        let breaker = breakers
            .entry(service.to_string())
            .or_insert_with(|| self.shared.config.resilience.make_breaker());
        if success {
            breaker.record_success();
        } else {
            breaker.record_failure(now_ns);
        }
    }

    /// Applies the degradation policy once a call has been abandoned.
    fn degrade(
        &mut self,
        service: &str,
        err: PipelineError,
    ) -> Result<ServiceResponse, PipelineError> {
        if self.shared.config.resilience.degradation == DegradationPolicy::LastKnownGood {
            if let Some(cached) = self.st.lkg.get(service) {
                if let Ok(resp) = ServiceResponse::decode(cached) {
                    return Ok(resp);
                }
            }
        }
        Err(err)
    }

    /// Error-path credit return: the frame died in this module, so a
    /// Control message hands its credit back to the pacer.
    fn send_fault(&mut self) {
        let _ = self.core.send_and_wake(
            self.pipe,
            &self.wiring.device,
            WireMessage {
                kind: MessageKind::Control,
                channel: fc_chan(self.pipeline),
                reply_to: String::new(),
                corr_id: 0,
                seq: self.st.header.frame_seq,
                timestamp_ns: self.st.header.capture_ts_ns,
                epoch: self.st.epoch,
                payload: bytes::Bytes::new(),
            },
        );
    }
}

impl ModuleCtx for ReactorCtx<'_> {
    fn call_service(
        &mut self,
        service: &str,
        mut request: ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError> {
        let (channel, remote) = self.wiring.services.get(service).cloned().ok_or_else(|| {
            PipelineError::ServiceUnavailable {
                module: self.wiring.name.clone(),
                service: service.to_string(),
            }
        })?;
        let resilience = self.shared.config.resilience.clone();
        // Circuit breaker gate: fast-fail while the breaker is open.
        if resilience.breaker_enabled() && !self.breaker_allows(service) {
            return self.degrade(
                service,
                PipelineError::CircuitOpen {
                    service: service.to_string(),
                },
            );
        }
        // Frame references cannot leave their device: encode for remote
        // calls via the store's transcoding cache (at most once per
        // (frame, quality); see LocalCtx for the rationale).
        if remote {
            if let Payload::FrameRef(id) = request.payload {
                let encoded = self.store().encoded(id, self.shared.effective_quality())?;
                request.payload = Payload::EncodedFrame(encoded);
            }
        }
        let mut bytes = request.encode();
        let max_attempts = resilience.retry.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Attempts share the serialized request by refcount; the final
            // attempt moves it instead of cloning.
            let attempt_bytes = if attempt >= max_attempts {
                std::mem::take(&mut bytes)
            } else {
                bytes.clone()
            };
            match self.attempt_service_call(service, &channel, remote, attempt_bytes) {
                Ok((resp, raw)) => {
                    if resilience.breaker_enabled() {
                        self.breaker_record(service, true);
                    }
                    if resilience.degradation == DegradationPolicy::LastKnownGood {
                        self.st.lkg.insert(service.to_string(), raw);
                    }
                    return Ok(resp);
                }
                Err(PipelineError::Shutdown) => return Err(PipelineError::Shutdown),
                Err(e) => {
                    if resilience.breaker_enabled() {
                        self.breaker_record(service, false);
                    }
                    if attempt >= max_attempts {
                        return self.degrade(service, e);
                    }
                    let backoff = resilience.retry.backoff(attempt, &mut self.st.jitter);
                    if !backoff.is_zero() {
                        // Backoff by helping, not by occupying the worker.
                        self.core.help_until(self.depth, Instant::now() + backoff);
                    }
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return Err(PipelineError::Shutdown);
                    }
                }
            }
        }
    }

    fn call_module(&mut self, target: &str, mut payload: Payload) -> Result<(), PipelineError> {
        let (channel, cross_device) = self.wiring.nexts.get(target).cloned().ok_or_else(|| {
            PipelineError::Validation(format!(
                "module {:?} has no edge to {target:?}",
                self.wiring.name
            ))
        })?;
        if cross_device {
            if let Payload::FrameRef(id) = payload {
                let encoded = self.store().encoded(id, self.shared.effective_quality())?;
                payload = Payload::EncodedFrame(encoded);
            }
            let bytes = payload.size_hint() as u64;
            self.emulate(Duration::from_micros(2_500 + bytes * 8 / 100));
        }
        self.core.send_and_wake(
            self.pipe,
            &self.wiring.device,
            WireMessage::data(
                channel.clone(),
                self.st.header.frame_seq,
                self.st.header.capture_ts_ns,
                payload.encode(),
            )
            .with_epoch(self.st.epoch),
        )?;
        Ok(())
    }

    fn signal_source(&mut self) -> Result<(), PipelineError> {
        self.core.send_and_wake(
            self.pipe,
            &self.wiring.device,
            WireMessage {
                kind: MessageKind::Signal,
                channel: fc_chan(self.pipeline),
                reply_to: String::new(),
                corr_id: 0,
                seq: self.st.header.frame_seq,
                timestamp_ns: self.st.header.capture_ts_ns,
                epoch: self.st.epoch,
                payload: bytes::Bytes::new(),
            },
        )?;
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    fn module_name(&self) -> &str {
        &self.wiring.name
    }

    fn device_name(&self) -> &str {
        &self.wiring.device
    }

    fn frame_store(&self) -> &FrameStore {
        self.shared
            .stores
            .get(&self.wiring.device)
            .expect("device store exists")
    }

    fn header(&self) -> Header {
        self.st.header
    }

    fn set_header(&mut self, header: Header) {
        self.st.header = header;
    }

    fn log(&mut self, text: &str) {
        self.shared
            .logs
            .lock()
            .push(format!("{}: {text}", self.wiring.name));
    }
}

/// Runs one module instance as a blocking-capable task: drains up to
/// `module_quantum` inbox messages per run, replicating the threaded
/// `module_loop` (decode, supervision, checkpointing, error-path credit
/// return) with a [`ReactorCtx`].
struct ModuleRunner {
    shared: Arc<Shared>,
    wiring: Arc<ModuleWiring>,
    pipe: Arc<PipeRt>,
    pipeline: String,
    inbox: InprocReceiver,
    instance: Box<dyn Module>,
    factory: ModuleFactory,
    st: CtxState,
    last_checkpoint: Instant,
    rearm: Rearm,
}

impl TaskRunner for ModuleRunner {
    fn run(&mut self, core: &Core, depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        // Periodic checkpoint, self-armed on the timer wheel so it fires
        // even while the inbox is quiet.
        if let Some(period) = self.shared.config.checkpoint_period {
            if self.last_checkpoint.elapsed() >= period {
                self.last_checkpoint = Instant::now();
                if let Some(snap) = self.instance.snapshot() {
                    self.shared
                        .checkpoints
                        .lock()
                        .insert(self.wiring.name.clone(), snap);
                }
            }
            let at = self.last_checkpoint + period;
            self.rearm.ensure(core, at);
        }
        let quantum = core.cfg.module_quantum.max(1);
        let ModuleRunner {
            shared,
            wiring,
            pipe,
            pipeline,
            inbox,
            instance,
            factory,
            st,
            ..
        } = self;
        let mut ctx = ReactorCtx {
            core,
            depth,
            pipe,
            pipeline,
            shared,
            wiring,
            st,
        };
        let mut processed = 0;
        while processed < quantum {
            if shared.stop.load(Ordering::SeqCst) {
                return false;
            }
            let msg = match inbox.try_recv() {
                Ok(m) => m,
                Err(_) => break,
            };
            processed += 1;
            ctx.st.epoch = msg.epoch;
            let event = match msg.kind {
                MessageKind::Signal if wiring.is_source => {
                    ctx.st.header = Header {
                        frame_seq: msg.seq,
                        capture_ts_ns: msg.timestamp_ns,
                    };
                    Event::FrameTick {
                        t_ns: msg.timestamp_ns,
                    }
                }
                MessageKind::Data => {
                    let payload = match Payload::decode(&msg.payload) {
                        Ok(Payload::EncodedFrame(bytes)) => match codec::decode(&bytes) {
                            Ok(frame) => Payload::FrameRef(ctx.store().insert(frame)),
                            Err(e) => {
                                shared
                                    .errors
                                    .lock()
                                    .push(format!("{}: frame decode failed: {e}", wiring.name));
                                continue;
                            }
                        },
                        Ok(p) => p,
                        Err(e) => {
                            shared
                                .errors
                                .lock()
                                .push(format!("{}: payload decode failed: {e}", wiring.name));
                            continue;
                        }
                    };
                    ctx.st.header = Header {
                        frame_seq: msg.seq,
                        capture_ts_ns: msg.timestamp_ns,
                    };
                    Event::Message(Message::new(ctx.st.header, payload))
                }
                _ => continue,
            };

            let start = Instant::now();
            let result = match catch_unwind(AssertUnwindSafe(|| instance.on_event(event, &mut ctx)))
            {
                Ok(result) => result,
                Err(panic) => {
                    // Supervision: replace the possibly-poisoned instance
                    // and keep the task alive. The in-flight frame dies and
                    // returns its credit through the error path below.
                    *instance = factory();
                    let _ = catch_unwind(AssertUnwindSafe(|| instance.init(&mut ctx)));
                    if let Some(snap) = shared.checkpoints.lock().get(&wiring.name).cloned() {
                        instance.restore(&snap);
                    }
                    shared.restarts.fetch_add(1, Ordering::Relaxed);
                    Err(PipelineError::Module {
                        module: wiring.name.clone(),
                        reason: format!("panicked: {}", panic_message(panic.as_ref())),
                    })
                }
            };
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            shared.metrics.lock().record_stage(&wiring.name, elapsed_ns);
            if let Err(e) = result {
                // Errors caused by teardown are shutdown artifacts.
                if shared.stop.load(Ordering::SeqCst) {
                    continue;
                }
                shared.errors.lock().push(format!("{}: {e}", wiring.name));
                ctx.send_fault();
            }
        }
        inbox.pending() > 0
    }

    fn finalize(&mut self, _core: &Core) {
        // Final checkpoint at teardown: a graceful drain hands off the
        // freshest recoverable state rather than the last periodic tick.
        if self.shared.config.checkpoint_period.is_some() {
            if let Some(snap) = self.instance.snapshot() {
                self.shared
                    .checkpoints
                    .lock()
                    .insert(self.wiring.name.clone(), snap);
            }
        }
    }
}

/// Runs one (device, service) host as a non-blocking task. Dispatches up
/// to [`SERVICE_BATCH_QUANTUM`] micro-batches per run. Modeled compute
/// costs are timer-deferred: the batch is computed eagerly and its replies
/// ride the wheel, so a slow modeled service never occupies a worker.
struct ServiceRunner {
    shared: Arc<Shared>,
    pipe: Arc<PipeRt>,
    inbox: InprocReceiver,
    image: Arc<dyn Service>,
    device: String,
    speed: f64,
    host: String,
}

impl ServiceRunner {
    fn dispatch(&mut self, core: &Core, msgs: Vec<WireMessage>, queue_depth: u64) {
        let started = Instant::now();
        let batch_len = msgs.len() as u64;
        let store = self.shared.stores.get(&self.device).expect("store");

        // Decode every request up front; failed slots still get a typed
        // error reply below.
        let mut slots: Vec<Result<ServiceRequest, PipelineError>> = msgs
            .iter()
            .map(|m| ServiceRequest::decode(&m.payload))
            .collect();
        let encoded: Vec<(usize, bytes::Bytes)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Ok(req) => match &req.payload {
                    Payload::EncodedFrame(bytes) => Some((i, bytes.clone())),
                    _ => None,
                },
                Err(_) => None,
            })
            .collect();
        if !encoded.is_empty() {
            let frames = codec::decode_batch(encoded.iter().map(|(_, b)| b.as_ref()));
            for ((i, _), result) in encoded.iter().zip(frames) {
                match result {
                    Ok(frame) => {
                        if let Ok(req) = &mut slots[*i] {
                            req.payload = Payload::FrameRef(store.insert(frame));
                        }
                    }
                    Err(e) => {
                        self.shared.errors.lock().push(format!(
                            "service {}: frame decode failed: {e}",
                            self.image.name()
                        ));
                        slots[*i] = Err(PipelineError::Service {
                            service: self.image.name().to_string(),
                            reason: format!("frame decode failed: {e}"),
                        });
                    }
                }
            }
        }

        // Modeled compute cost for the batch: leading request pays the full
        // base, followers the amortised batched base (same accounting as
        // the threaded executor) — but deferred, never slept.
        let mut modeled = Duration::ZERO;
        let mut first = true;
        for (slot, m) in slots.iter().zip(&msgs) {
            if let Ok(req) = slot {
                modeled += self.image.cost(req).for_batch_item(first, m.payload.len());
                first = false;
            }
        }

        // Supervised batch handler (see service_executor_loop).
        let ready: Vec<ServiceRequest> = slots
            .iter()
            .filter_map(|slot| slot.as_ref().ok().cloned())
            .collect();
        let handled: Vec<Result<ServiceResponse, PipelineError>> = if ready.is_empty() {
            Vec::new()
        } else {
            match catch_unwind(AssertUnwindSafe(|| self.image.handle_batch(&ready, store))) {
                Ok(results) => results,
                Err(panic) => {
                    let reason = format!("panicked: {}", panic_message(panic.as_ref()));
                    (0..ready.len())
                        .map(|_| {
                            Err(PipelineError::Service {
                                service: self.image.name().to_string(),
                                reason: reason.clone(),
                            })
                        })
                        .collect()
                }
            }
        };
        let mut handled = handled.into_iter();
        let mut replies: Vec<WireMessage> = Vec::with_capacity(msgs.len());
        for (m, slot) in msgs.iter().zip(slots) {
            let response = match slot {
                Ok(_) => handled.next().unwrap_or_else(|| {
                    Err(PipelineError::Service {
                        service: self.image.name().to_string(),
                        reason: "handle_batch returned too few results".to_string(),
                    })
                }),
                Err(e) => Err(e),
            };
            match response {
                Ok(resp) => replies.push(WireMessage::response_to(m, resp.encode())),
                Err(e) => {
                    self.shared
                        .logs
                        .lock()
                        .push(format!("service {}: {e}", self.image.name()));
                    replies.push(WireMessage::response_to(
                        m,
                        ServiceResponse::new(Payload::Error(e.to_string())).encode(),
                    ));
                }
            }
        }

        // Timer-deferred modeled latency: replies ride the wheel for the
        // scaled cost instead of a worker sleeping it out.
        let scale = self.shared.config.time_scale;
        let deferral = if scale > 0.0 && !modeled.is_zero() {
            Some(modeled.mul_f64(scale / self.speed.max(1e-6)))
        } else {
            None
        };
        match deferral {
            Some(delay) => core.timers.schedule(
                self.pipe.home,
                Instant::now() + delay,
                TimerEntry::Deliver {
                    pipe: Arc::clone(&self.pipe),
                    from_device: self.device.clone(),
                    msgs: replies,
                },
            ),
            None => {
                for msg in replies {
                    let _ = core.send_and_wake(&self.pipe, &self.device, msg);
                }
            }
        }
        // Modeled time counts as busy so utilization metrics keep parity
        // with the threaded executor.
        let busy = started.elapsed() + deferral.unwrap_or_default();
        self.shared.metrics.lock().record_dispatch_batch(
            &self.host,
            busy.as_nanos() as u64,
            queue_depth,
            batch_len,
        );
    }
}

impl TaskRunner for ServiceRunner {
    fn run(&mut self, core: &Core, _depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        for _ in 0..SERVICE_BATCH_QUANTUM {
            let msg = loop {
                match self.inbox.try_recv() {
                    Ok(m) if m.kind == MessageKind::Request => break m,
                    Ok(_) => continue,
                    Err(_) => return false,
                }
            };
            let max_batch = self.shared.effective_max_batch(self.image.name());
            // Backlog sampled BEFORE the free drain empties the queue.
            let queue_depth = self.inbox.pending() as u64;
            let mut msgs = vec![msg];
            // Free drain only: no adaptive hold — under reactor scheduling,
            // requests accumulate naturally while this task waits for a
            // worker, which plays the same batching role.
            while msgs.len() < max_batch {
                match self.inbox.try_recv() {
                    Ok(m) if m.kind == MessageKind::Request => msgs.push(m),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            self.dispatch(core, msgs, queue_depth);
        }
        self.inbox.pending() > 0
    }
}

/// The per-pipeline pacer as a non-blocking task: drains completion
/// signals, expires credit leases, fences dead epochs and emits camera
/// ticks, then re-arms itself on the timer wheel for the next tick.
struct PacerRunner {
    shared: Arc<Shared>,
    pipe: Arc<PipeRt>,
    pipeline: String,
    sources: Vec<String>,
    source_device: String,
    fc_inbox: InprocReceiver,
    pacer: SourcePacer,
    controller: CreditController,
    interval: Duration,
    lease: Option<Duration>,
    track_outstanding: bool,
    outstanding: HashMap<u64, Instant>,
    current_epoch: u64,
    dedup_window: usize,
    dedup_order: VecDeque<u64>,
    dedup_set: HashSet<u64>,
    next_tick: Instant,
    rearm: Rearm,
    finalized: bool,
}

impl TaskRunner for PacerRunner {
    fn run(&mut self, core: &Core, _depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        // Epoch bump (confirmed device loss): proactively fault every
        // outstanding admission so credits return immediately.
        let fence = self.shared.fence_epoch.load(Ordering::SeqCst);
        if fence != self.current_epoch {
            self.current_epoch = fence;
            let fenced = self.outstanding.len() as u64;
            for _ in self.outstanding.drain() {
                self.controller.fault();
            }
            if fenced > 0 {
                self.shared.logs.lock().push(format!(
                    "pacer: fenced {fenced} in-flight frame(s) at epoch {}",
                    self.current_epoch
                ));
            }
        }
        // Drain completion signals (identical accounting to pacer_loop).
        while let Ok(msg) = self.fc_inbox.try_recv() {
            if self.dedup_window > 0
                && msg.kind == MessageKind::Signal
                && self.dedup_set.contains(&msg.seq)
            {
                continue;
            }
            let known = !self.track_outstanding || self.outstanding.remove(&msg.seq).is_some();
            let fenced = msg.epoch != self.current_epoch;
            match msg.kind {
                MessageKind::Signal if known && !fenced => {
                    self.controller.complete();
                    if self.dedup_window > 0 {
                        if self.dedup_order.len() == self.dedup_window {
                            if let Some(old) = self.dedup_order.pop_front() {
                                self.dedup_set.remove(&old);
                            }
                        }
                        self.dedup_order.push_back(msg.seq);
                        self.dedup_set.insert(msg.seq);
                    }
                    let now_ns = self.shared.now_ns();
                    let latency = now_ns.saturating_sub(msg.timestamp_ns);
                    self.shared.metrics.lock().record_delivery(now_ns, latency);
                    self.shared.deliveries.fetch_add(1, Ordering::Relaxed);
                }
                MessageKind::Signal if known => self.controller.fault(),
                MessageKind::Control if known => self.controller.fault(),
                _ => {}
            }
        }
        // Expire credit leases (checked once per run, same cadence as the
        // threaded pacer's once-per-tick check).
        if let Some(timeout) = self.lease {
            let now = Instant::now();
            let expired: Vec<u64> = self
                .outstanding
                .iter()
                .filter(|(_, admitted_at)| now.duration_since(**admitted_at) > timeout)
                .map(|(seq, _)| *seq)
                .collect();
            for seq in expired {
                self.outstanding.remove(&seq);
                self.controller.fault();
                self.shared
                    .errors
                    .lock()
                    .push(format!("pacer: credit lease expired for frame {seq}"));
            }
        }
        // Camera ticks due now (catch-up preserves threaded semantics).
        while Instant::now() >= self.next_tick {
            if self.shared.stop.load(Ordering::SeqCst) {
                return false;
            }
            self.pacer.advance();
            self.next_tick += self.interval;
            let stride = self.shared.knobs.admit_stride();
            let sampled_out = stride > 1 && !self.pacer.ticks().is_multiple_of(stride);
            let admitted = !sampled_out && self.controller.try_admit();
            {
                let mut metrics = self.shared.metrics.lock();
                metrics.frames_offered = metrics.frames_offered.saturating_add(1);
                if !admitted {
                    metrics.frames_dropped = metrics.frames_dropped.saturating_add(1);
                }
            }
            if admitted {
                if self.track_outstanding {
                    self.outstanding.insert(self.pacer.ticks(), Instant::now());
                }
                let t_ns = self.shared.now_ns();
                for source in &self.sources {
                    let _ = core.send_and_wake(
                        &self.pipe,
                        &self.source_device,
                        WireMessage {
                            kind: MessageKind::Signal,
                            channel: mod_chan(&self.pipeline, source),
                            reply_to: String::new(),
                            corr_id: 0,
                            seq: self.pacer.ticks(),
                            timestamp_ns: t_ns,
                            epoch: self.current_epoch,
                            payload: bytes::Bytes::new(),
                        },
                    );
                }
            }
        }
        self.rearm.ensure(core, self.next_tick);
        false
    }

    fn finalize(&mut self, _core: &Core) {
        // Final credit accounting (admitted == delivered + faulted +
        // in-flight), exactly once.
        if !self.finalized {
            self.finalized = true;
            let mut metrics = self.shared.metrics.lock();
            metrics.frames_admitted = self.controller.admitted();
            metrics.frames_faulted = self.controller.faulted();
            metrics.in_flight_at_end = self.controller.in_flight();
        }
    }
}

/// The SLO feedback controller as a self-rearming timer task (was a
/// dedicated `slo-<pipeline>` thread).
struct SloRunner {
    shared: Arc<Shared>,
    controller: SloController,
    interval: Duration,
    target_ms: f64,
    next_at: Instant,
    rearm: Rearm,
}

impl TaskRunner for SloRunner {
    fn run(&mut self, core: &Core, _depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        if now >= self.next_at {
            self.next_at = now + self.interval;
            let (hist, queue_max) = {
                let metrics = self.shared.metrics.lock();
                let q = metrics
                    .dispatch
                    .values()
                    .map(|d| d.max_queue_depth)
                    .max()
                    .unwrap_or(0);
                (metrics.end_to_end.clone(), q)
            };
            let action = self
                .controller
                .observe(self.shared.now_ns(), &hist, queue_max);
            if action != SloAction::Hold {
                let level = self.controller.level();
                self.shared.knobs.apply(self.controller.settings(), level);
                self.shared
                    .knobs
                    .moves
                    .store(self.controller.moves(), Ordering::Relaxed);
                self.shared
                    .knobs
                    .flaps
                    .store(self.controller.flaps(), Ordering::Relaxed);
                let dir = match action {
                    SloAction::StepDown { .. } => "down",
                    _ => "up",
                };
                self.shared.logs.lock().push(format!(
                    "slo: step {dir} to level {level} \
                     (window p99 {:.1} ms vs target {:.1} ms, {:?})",
                    self.controller.last_window_p99_ns() as f64 / 1e6,
                    self.target_ms,
                    self.controller.settings(),
                ));
            }
        }
        self.rearm.ensure(core, self.next_at);
        false
    }
}

/// One device's heartbeat sender as a self-rearming timer task.
struct HbBeatRunner {
    shared: Arc<Shared>,
    pipe: Arc<PipeRt>,
    device: String,
    channel: String,
    interval: Duration,
    next_at: Instant,
    rearm: Rearm,
}

impl TaskRunner for HbBeatRunner {
    fn run(&mut self, core: &Core, _depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        if now >= self.next_at {
            self.next_at = now + self.interval;
            if !self.shared.muted_heartbeats.lock().contains(&self.device) {
                let _ = core.send_and_wake(
                    &self.pipe,
                    &self.device,
                    WireMessage {
                        kind: MessageKind::Control,
                        channel: self.channel.clone(),
                        reply_to: String::new(),
                        corr_id: 0,
                        seq: 0,
                        timestamp_ns: self.shared.now_ns(),
                        epoch: 0,
                        payload: bytes::Bytes::copy_from_slice(self.device.as_bytes()),
                    },
                );
            }
        }
        self.rearm.ensure(core, self.next_at);
        false
    }
}

/// The heartbeat monitor as a task: woken by each beat (channel notify)
/// and by a periodic sweep that walks suspicion to confirmed loss.
struct HbMonitorRunner {
    shared: Arc<Shared>,
    inbox: InprocReceiver,
    confirmed: HashSet<String>,
    sweep: Duration,
    next_at: Instant,
    rearm: Rearm,
}

impl TaskRunner for HbMonitorRunner {
    fn run(&mut self, core: &Core, _depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        while let Ok(msg) = self.inbox.try_recv() {
            if msg.kind == MessageKind::Control {
                if let Ok(device) = std::str::from_utf8(&msg.payload) {
                    if let Some(d) = self.shared.detector.lock().as_mut() {
                        d.record_heartbeat(device, self.shared.now_ns());
                    }
                }
            }
        }
        let now_ns = self.shared.now_ns();
        let dead = match self.shared.detector.lock().as_ref() {
            Some(d) => d.dead_devices(now_ns),
            None => Vec::new(),
        };
        for device in dead {
            if self.confirmed.insert(device.clone()) {
                let epoch = self.shared.fence_epoch.fetch_add(1, Ordering::SeqCst) + 1;
                self.shared.logs.lock().push(format!(
                    "monitor: device {device} confirmed dead; fencing epoch {epoch}"
                ));
            }
        }
        let now = Instant::now();
        if now >= self.next_at {
            self.next_at = now + self.sweep;
        }
        self.rearm.ensure(core, self.next_at);
        false
    }
}

/// The telemetry publisher as a self-rearming timer task.
struct TelemetryRunner {
    shared: Arc<Shared>,
    pipeline: String,
    interval: Duration,
    next_at: Instant,
    rearm: Rearm,
}

impl TaskRunner for TelemetryRunner {
    fn run(&mut self, core: &Core, _depth: usize) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        if now >= self.next_at {
            self.next_at = now + self.interval;
            let mut snapshot = {
                let metrics = self.shared.metrics.lock();
                crate::telemetry::TelemetrySnapshot::from_metrics(
                    &self.pipeline,
                    self.shared.now_ns(),
                    &metrics,
                )
            };
            snapshot.slo_level = self.shared.knobs.level.load(Ordering::Relaxed) as u64;
            snapshot.publish(&self.shared.hub);
        }
        self.rearm.ensure(core, self.next_at);
        false
    }
}

/// An event-driven multi-pipeline runtime with a bounded thread count.
///
/// Deploy any number of pipelines with [`ReactorRuntime::add_pipeline`];
/// they all share one worker pool sized to cores, one timer thread and (in
/// TCP mode) one I/O thread. The `Module`/`Service` traits and
/// [`RuntimeConfig`] are exactly those of the threaded runtime.
pub struct ReactorRuntime {
    core: Arc<Core>,
    threads: Vec<std::thread::JoinHandle<()>>,
    io_tx: Sender<IoEndpoint>,
    io_rx: Option<Receiver<IoEndpoint>>,
    /// Write end of the I/O thread's waker (set once the thread starts): a
    /// byte here ends its readiness wait to pick up new endpoints or `stop`.
    io_waker: Option<UnixStream>,
    /// Read-chunk pool shared by every TCP ingress endpoint this runtime
    /// binds: the I/O thread drives them all, so chunks recycle across
    /// pipelines instead of each endpoint cold-starting its own pool.
    ingress_pool: Arc<videopipe_net::BufferPool>,
    pipeline_names: Vec<String>,
    /// Contiguous `[start, end)` task-id range per pipeline, in
    /// `add_pipeline` order (deploy is single-writer, so each pipeline's
    /// tasks are registered back to back). Lets [`ReactorRuntime::stop_pipeline`]
    /// finalize exactly one pipeline's tasks mid-run.
    task_ranges: Vec<(usize, usize)>,
}

impl ReactorRuntime {
    /// Starts the worker pool and timer thread.
    pub fn new(cfg: ReactorConfig) -> Self {
        let workers = cfg.effective_workers();
        let core = Arc::new(Core {
            timers: TimerWheel::new(cfg.timer_granularity, workers),
            cfg,
            tasks: RwLock::new(Vec::new()),
            workers: (0..workers)
                // Fixed per-worker steal seeds (golden-ratio stride): no
                // shared RNG, deterministic across runs.
                .map(|i| {
                    CachePadded(WorkerQueue::new(
                        (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ))
                })
                .collect(),
            nb_ready: unbounded(),
            mod_ready: unbounded(),
            pipelines: RwLock::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        for i in 0..workers {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("vp-reactor-worker-{i}"))
                    .spawn(move || core.worker_loop(i))
                    .expect("spawn reactor worker"),
            );
        }
        {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name("vp-reactor-timer".into())
                    .spawn(move || core.timer_loop())
                    .expect("spawn reactor timer"),
            );
        }
        let (io_tx, io_rx) = unbounded();
        ReactorRuntime {
            core,
            threads,
            io_tx,
            // The I/O thread is spawned lazily by the first TCP pipeline.
            io_rx: Some(io_rx),
            io_waker: None,
            ingress_pool: Arc::new(videopipe_net::BufferPool::default()),
            pipeline_names: Vec::new(),
            task_ranges: Vec::new(),
        }
    }

    fn ensure_io_thread(&mut self) -> Result<(), PipelineError> {
        if self.io_rx.is_some() {
            let (waker, wait_end) = UnixStream::pair().map_err(NetError::from)?;
            // Neither end may block: a full waker already means "wake up",
            // and the I/O thread drains its end until it would block.
            waker.set_nonblocking(true).map_err(NetError::from)?;
            wait_end.set_nonblocking(true).map_err(NetError::from)?;
            let rx = self.io_rx.take().expect("checked above");
            let core = Arc::clone(&self.core);
            self.threads.push(
                std::thread::Builder::new()
                    .name("vp-reactor-io".into())
                    .spawn(move || core.io_loop(&rx, wait_end))
                    .expect("spawn reactor io"),
            );
            self.io_waker = Some(waker);
        }
        Ok(())
    }

    /// Ends the I/O thread's readiness wait, if it runs.
    fn wake_io(&self) {
        if let Some(mut waker) = self.io_waker.as_ref() {
            // WouldBlock means unread wake bytes are already pending.
            let _ = waker.write(&[1]);
        }
    }

    /// The next task id (single-writer: `add_pipeline` takes `&mut self`).
    fn next_task_id(&self) -> usize {
        self.core.tasks.read().len()
    }

    fn register_task(&self, home: usize, blocking: bool, runner: Box<dyn TaskRunner>) -> Arc<Task> {
        let mut tasks = self.core.tasks.write();
        let task = Arc::new(Task {
            home,
            blocking,
            state: CachePadded(AtomicU8::new(IDLE)),
            runner: Mutex::new(runner),
        });
        tasks.push(Arc::clone(&task));
        task
    }

    fn map_channel(&self, pipe: &PipeRt, channel: String, task: Arc<Task>) {
        pipe.staging.lock().insert(channel, task);
    }

    /// Deploys one more pipeline onto the shared reactor and returns its
    /// pipeline id (index into the reports from [`ReactorRuntime::finish`]).
    ///
    /// Each pipeline gets its own in-process hub, router and frame stores;
    /// only the executor (tasks, timers, workers) is shared, so channel
    /// names never collide across pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] for invalid configs, missing module
    /// includes or service images, or wiring failures — same contract as
    /// [`LocalRuntime::deploy`](crate::runtime::LocalRuntime::deploy).
    pub fn add_pipeline(
        &mut self,
        plan: &DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        config: RuntimeConfig,
    ) -> Result<usize, PipelineError> {
        config.validate()?;
        let pipeline_id = self.pipeline_names.len();
        let first_task_id = self.next_task_id();
        let pipeline = plan.pipeline.name.clone();
        let hub = InprocHub::new();
        let mut stores = HashMap::new();
        for d in &plan.devices {
            stores.insert(
                d.name.clone(),
                Arc::new(FrameStore::with_capacity(REACTOR_STORE_CAPACITY)),
            );
        }
        let source_device = plan
            .pipeline
            .sources()
            .first()
            .and_then(|s| plan.placement.device_for(&s.name))
            .ok_or_else(|| PipelineError::Deploy("pipeline has no placed source".into()))?
            .to_string();

        // Router: in `Tcp` mode every device gets a *non-blocking* ingress
        // socket registered with the reactor's single I/O thread.
        let mut io_endpoints = Vec::new();
        let router = match config.transport {
            EdgeTransport::Inproc => Router::inproc(hub.clone()),
            EdgeTransport::Tcp => {
                let mut channel_device = HashMap::new();
                for m in &plan.pipeline.modules {
                    let device = plan
                        .placement
                        .device_for(&m.name)
                        .ok_or_else(|| {
                            PipelineError::Deploy(format!("module {:?} unplaced", m.name))
                        })?
                        .to_string();
                    channel_device.insert(mod_chan(&pipeline, &m.name), device.clone());
                    channel_device.insert(reply_chan(&pipeline, &m.name), device);
                }
                for b in &plan.service_bindings {
                    channel_device.insert(
                        rsvc_chan(&pipeline, &b.device, &b.service),
                        b.device.clone(),
                    );
                }
                channel_device.insert(fc_chan(&pipeline), source_device.clone());
                channel_device.insert(hb_chan(&pipeline), source_device.clone());

                let mut tcp_peers = HashMap::new();
                for d in &plan.devices {
                    let endpoint = PollEndpoint::bind_with_pool(
                        "127.0.0.1:0",
                        Arc::clone(&self.ingress_pool),
                    )?;
                    let addr = format!("127.0.0.1:{}", endpoint.local_port());
                    let sender = videopipe_net::tcp::TcpSender::connect_retry(
                        &addr,
                        Duration::from_secs(5),
                    )?
                    .with_reconnect(videopipe_net::tcp::ReconnectPolicy::default());
                    tcp_peers.insert(d.name.clone(), Arc::new(sender));
                    io_endpoints.push(endpoint);
                }
                Router {
                    hub: hub.clone(),
                    channel_device,
                    tcp_peers,
                }
            }
        };

        let shared = Arc::new(Shared {
            hub: hub.clone(),
            router,
            stores,
            metrics: Mutex::new(PipelineMetrics::new()),
            logs: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            deliveries: AtomicU64::new(0),
            config: config.clone(),
            breakers: Mutex::new(HashMap::new()),
            restarts: AtomicU64::new(0),
            fence_epoch: AtomicU64::new(0),
            detector: Mutex::new(config.heartbeats.clone().map(|h| {
                let mut d = FailureDetector::new(h);
                for dev in &plan.devices {
                    d.expect(&dev.name, 0);
                }
                d
            })),
            checkpoints: Mutex::new(HashMap::new()),
            muted_heartbeats: Mutex::new(HashSet::new()),
            knobs: KnobActuators::baseline(),
            gate: ShutdownGate::new(),
        });
        // Pipeline affinity: home worker for every task of this pipeline.
        // Round-robin over workers by default spreads the fleet evenly;
        // `affinity` pins everything for scheduling experiments.
        let home = self.core.cfg.affinity.unwrap_or(pipeline_id) % self.core.workers.len();
        let pipe = Arc::new(PipeRt {
            home,
            shared: Arc::clone(&shared),
            notify: std::sync::OnceLock::new(),
            staging: Mutex::new(HashMap::new()),
        });
        self.core.pipelines.write().push(Arc::clone(&pipe));
        if !io_endpoints.is_empty() {
            self.ensure_io_thread()?;
            for endpoint in io_endpoints {
                let _ = self.io_tx.send(IoEndpoint {
                    pipe: Arc::clone(&pipe),
                    endpoint,
                    senders: HashMap::new(),
                });
            }
            self.wake_io();
        }
        let mut initial_wakes = Vec::new();

        // --- Service hosts: one task per (device, service) actually bound.
        // Concurrency across hosts comes from the shared worker pool, so
        // per-device `cores` no longer multiplies threads.
        let mut hosted: Vec<(String, String)> = plan
            .service_bindings
            .iter()
            .map(|b| (b.device.clone(), b.service.clone()))
            .collect();
        hosted.sort();
        hosted.dedup();
        for (device, service) in hosted {
            let image = services.get(&service).ok_or_else(|| {
                PipelineError::Deploy(format!("service image {service:?} not registered"))
            })?;
            let dev_spec = plan
                .device(&device)
                .ok_or_else(|| PipelineError::Deploy(format!("unknown device {device:?}")))?;
            let speed = dev_spec.speed_factor.max(1e-6);
            let chan = rsvc_chan(&pipeline, &device, &service);
            let inbox = hub.bind(&chan)?;
            let host = format!("{device}/{}", image.name());
            let task = self.register_task(
                home,
                false,
                Box::new(ServiceRunner {
                    shared: Arc::clone(&shared),
                    pipe: Arc::clone(&pipe),
                    inbox,
                    image,
                    device,
                    speed,
                    host,
                }),
            );
            self.map_channel(&pipe, chan, task);
        }

        // --- Modules: one blocking-capable task each.
        let source_names: Vec<String> = plan
            .pipeline
            .sources()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let sink_names: Vec<String> = plan
            .pipeline
            .sinks()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        for m in &plan.pipeline.modules {
            let device = plan
                .placement
                .device_for(&m.name)
                .ok_or_else(|| PipelineError::Deploy(format!("module {:?} unplaced", m.name)))?
                .to_string();
            let mut nexts = HashMap::new();
            for edge in plan.edges.iter().filter(|e| e.from == m.name) {
                nexts.insert(
                    edge.to.clone(),
                    (mod_chan(&pipeline, &edge.to), edge.cross_device),
                );
            }
            let mut svc_map = HashMap::new();
            for b in plan.service_bindings.iter().filter(|b| b.module == m.name) {
                svc_map.insert(
                    b.service.clone(),
                    (rsvc_chan(&pipeline, &b.device, &b.service), b.remote),
                );
            }
            let wiring = Arc::new(ModuleWiring {
                name: m.name.clone(),
                device,
                nexts,
                services: svc_map,
                is_source: source_names.contains(&m.name),
                is_sink: sink_names.contains(&m.name),
            });
            let chan = mod_chan(&pipeline, &m.name);
            let inbox = hub.bind(&chan)?;
            let reply_rx = hub.bind(&reply_chan(&pipeline, &m.name))?;
            let factory = modules.factory(&m.include)?;
            let mut instance = modules.instantiate(&m.include)?;
            let mut st = CtxState {
                header: Header::default(),
                epoch: 0,
                corr: 0,
                reply_rx,
                lkg: HashMap::new(),
                jitter: SeededJitter::new(seed_for(config.resilience.seed, &m.name)),
            };
            {
                // Init runs inline at deploy, with service tasks already
                // registered so init-time service calls can be helped.
                let mut ctx = ReactorCtx {
                    core: &self.core,
                    depth: 0,
                    pipe: &pipe,
                    pipeline: &pipeline,
                    shared: &shared,
                    wiring: &wiring,
                    st: &mut st,
                };
                instance.init(&mut ctx)?;
            }
            let id = self.next_task_id();
            let task = self.register_task(
                home,
                true,
                Box::new(ModuleRunner {
                    shared: Arc::clone(&shared),
                    wiring,
                    pipe: Arc::clone(&pipe),
                    pipeline: pipeline.clone(),
                    inbox,
                    instance,
                    factory,
                    st,
                    last_checkpoint: Instant::now(),
                    rearm: Rearm::new(id, home),
                }),
            );
            self.map_channel(&pipe, chan, task);
            if config.checkpoint_period.is_some() {
                initial_wakes.push(id);
            }
        }

        // --- SLO controller task (was a thread).
        if let Some(slo_cfg) = config.slo.clone() {
            let controller = SloController::new(slo_cfg);
            let interval = controller.config().interval;
            let target_ms = controller.config().slo.p99.as_secs_f64() * 1e3;
            let id = self.next_task_id();
            self.register_task(
                home,
                false,
                Box::new(SloRunner {
                    shared: Arc::clone(&shared),
                    controller,
                    interval,
                    target_ms,
                    next_at: Instant::now() + interval,
                    rearm: Rearm::new(id, home),
                }),
            );
            initial_wakes.push(id);
        }

        // --- Health layer tasks (were one thread per device + a monitor).
        if let Some(health) = config.heartbeats.clone() {
            let hb_channel = hb_chan(&pipeline);
            let hb_inbox = hub.bind(&hb_channel)?;
            for d in &plan.devices {
                let id = self.next_task_id();
                self.register_task(
                    home,
                    false,
                    Box::new(HbBeatRunner {
                        shared: Arc::clone(&shared),
                        pipe: Arc::clone(&pipe),
                        device: d.name.clone(),
                        channel: hb_channel.clone(),
                        interval: health.heartbeat_interval,
                        next_at: Instant::now(),
                        rearm: Rearm::new(id, home),
                    }),
                );
                initial_wakes.push(id);
            }
            let id = self.next_task_id();
            let task = self.register_task(
                home,
                false,
                Box::new(HbMonitorRunner {
                    shared: Arc::clone(&shared),
                    inbox: hb_inbox,
                    confirmed: HashSet::new(),
                    sweep: POLL,
                    next_at: Instant::now(),
                    rearm: Rearm::new(id, home),
                }),
            );
            self.map_channel(&pipe, hb_channel, task);
            initial_wakes.push(id);
        }

        // --- Telemetry publisher task (was a thread).
        if let Some(interval) = config.telemetry_interval {
            let id = self.next_task_id();
            self.register_task(
                home,
                false,
                Box::new(TelemetryRunner {
                    shared: Arc::clone(&shared),
                    pipeline: pipeline.clone(),
                    interval,
                    next_at: Instant::now() + interval,
                    rearm: Rearm::new(id, home),
                }),
            );
            initial_wakes.push(id);
        }

        // --- Pacer task (was a thread). Its first run fires the first
        // camera tick immediately, matching the threaded pacer.
        let fc_channel = fc_chan(&pipeline);
        let fc_inbox = hub.bind(&fc_channel)?;
        let pacer = SourcePacer::new(config.fps);
        let interval = Duration::from_nanos(pacer.interval_ns());
        let id = self.next_task_id();
        let task = self.register_task(
            home,
            false,
            Box::new(PacerRunner {
                shared: Arc::clone(&shared),
                pipe: Arc::clone(&pipe),
                pipeline: pipeline.clone(),
                sources: source_names,
                source_device,
                fc_inbox,
                pacer,
                controller: CreditController::new(config.credits),
                interval,
                lease: config.resilience.credit_timeout,
                track_outstanding: config.resilience.credit_timeout.is_some()
                    || config.heartbeats.is_some(),
                outstanding: HashMap::new(),
                current_epoch: 0,
                dedup_window: config.dedup_window,
                dedup_order: VecDeque::with_capacity(config.dedup_window),
                dedup_set: HashSet::with_capacity(config.dedup_window),
                next_tick: Instant::now(),
                rearm: Rearm::new(id, home),
                finalized: false,
            }),
        );
        self.map_channel(&pipe, fc_channel, task);
        initial_wakes.push(id);

        self.pipeline_names.push(pipeline);
        self.task_ranges.push((first_task_id, self.next_task_id()));
        // Freeze the staging notify map into the immutable snapshot:
        // every steady-state send is now a lock-free HashMap probe.
        pipe.freeze();
        for id in initial_wakes {
            self.core.wake_task(id);
        }
        Ok(pipeline_id)
    }

    /// Threads owned by this reactor (workers + timer + optional I/O) —
    /// constant in the number of deployed pipelines.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of deployed pipelines.
    pub fn pipeline_count(&self) -> usize {
        self.pipeline_names.len()
    }

    /// Total frames delivered across every pipeline.
    pub fn deliveries(&self) -> u64 {
        self.core
            .pipelines
            .read()
            .iter()
            .map(|p| p.shared.deliveries.load(Ordering::Relaxed))
            .sum()
    }

    /// Frames delivered by pipeline `id` (as returned by
    /// [`ReactorRuntime::add_pipeline`]).
    pub fn deliveries_for(&self, id: usize) -> u64 {
        self.core
            .pipelines
            .read()
            .get(id)
            .map_or(0, |p| p.shared.deliveries.load(Ordering::Relaxed))
    }

    /// Live snapshot of the per-worker scheduler counters (tasks run,
    /// steal attempts/successes, local-queue high-water, timer fires,
    /// unparks), one entry per worker.
    pub fn scheduler_stats(&self) -> Vec<crate::metrics::WorkerSchedStats> {
        self.core.scheduler_stats()
    }

    /// The latest checkpoint taken for `module` on pipeline `id`, if any
    /// (periodic while running; refreshed one last time by
    /// [`ReactorRuntime::stop_pipeline`] and at shutdown).
    pub fn checkpoint_for(&self, id: usize, module: &str) -> Option<Vec<u8>> {
        self.core
            .pipelines
            .read()
            .get(id)
            .and_then(|p| p.shared.checkpoints.lock().get(module).cloned())
    }

    /// Stops pipeline `id` mid-run without touching the rest of the fleet:
    /// sets its stop flag (every task runner checks it on entry), wakes its
    /// interval-parked watchers, and finalizes its tasks so pacer credit
    /// accounting flushes and each checkpointing module takes one final
    /// snapshot. The pipeline's task and channel entries stay registered
    /// (stopped tasks run no more work); its report remains collectable at
    /// [`ReactorRuntime::finish`]. Returns `false` for unknown ids or
    /// pipelines already stopped.
    pub fn stop_pipeline(&self, id: usize) -> bool {
        let Some(&(start, end)) = self.task_ranges.get(id) else {
            return false;
        };
        {
            let pipelines = self.core.pipelines.read();
            let Some(p) = pipelines.get(id) else {
                return false;
            };
            if p.shared.stop.swap(true, Ordering::SeqCst) {
                return false;
            }
            p.shared.gate.trigger();
        }
        // Finalize this pipeline's tasks. Locking each runner serializes
        // with any in-flight quantum; once the stop flag is set a queued
        // task returns at entry without touching its module instance, so
        // the final snapshot taken here cannot go stale.
        let tasks = self.core.tasks.read();
        for task in tasks.iter().take(end).skip(start) {
            task.runner.lock().finalize(&self.core);
        }
        true
    }

    /// Collects a report for pipeline `id` from its live shared state
    /// (non-consuming; pair with [`ReactorRuntime::stop_pipeline`] when
    /// retiring a single pipeline from a long-lived runtime).
    pub fn report_for(&self, id: usize) -> Option<RunReport> {
        self.core
            .pipelines
            .read()
            .get(id)
            .map(|p| collect_report(&p.shared))
    }

    /// Chaos hook: silences `device`'s heartbeat sender on pipeline `id`
    /// (see [`LocalRuntime::inject_heartbeat_loss`](crate::runtime::LocalRuntime::inject_heartbeat_loss)).
    pub fn inject_heartbeat_loss(&self, id: usize, device: &str) -> bool {
        self.core
            .pipelines
            .read()
            .get(id)
            .is_some_and(|p| p.shared.muted_heartbeats.lock().insert(device.to_string()))
    }

    /// Runs until `wall` elapses, then stops and reports (one report per
    /// pipeline, in `add_pipeline` order).
    pub fn run_for(self, wall: Duration) -> Vec<RunReport> {
        std::thread::sleep(wall);
        self.finish()
    }

    /// Runs until `n` total frames are delivered or `max_wall` elapses.
    pub fn run_until_total_deliveries(self, n: u64, max_wall: Duration) -> Vec<RunReport> {
        let deadline = Instant::now() + max_wall;
        while self.deliveries() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.finish()
    }

    /// Stops every thread and collects one report per pipeline. Each
    /// report carries the same runtime-wide per-worker scheduler snapshot.
    pub fn finish(mut self) -> Vec<RunReport> {
        self.shutdown();
        let sched = self.core.scheduler_stats();
        let pipelines = self.core.pipelines.read();
        pipelines
            .iter()
            .map(|p| {
                let mut report = collect_report(&p.shared);
                report.scheduler = sched.clone();
                report
            })
            .collect()
    }

    fn shutdown(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        {
            let pipelines = self.core.pipelines.read();
            for p in pipelines.iter() {
                p.shared.stop.store(true, Ordering::SeqCst);
                p.shared.gate.trigger();
            }
        }
        for wq in &self.core.workers {
            wq.parker.unpark();
        }
        self.core.timers.kick();
        self.wake_io();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Finalize every task (pacers flush credit accounting).
        let tasks = self.core.tasks.read();
        for task in tasks.iter() {
            task.runner.lock().finalize(&self.core);
        }
    }
}

impl Drop for ReactorRuntime {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown();
        }
    }
}

impl std::fmt::Debug for ReactorRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorRuntime")
            .field("pipelines", &self.pipeline_names.len())
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{plan, DeviceSpec, Placement};
    use crate::module::{Event, Module, ModuleCtx, ModuleRegistry};
    use crate::service::{Service, ServiceCost, ServiceRegistry};
    use crate::spec::{ModuleSpec, PipelineSpec};
    use videopipe_media::{Frame, FrameBuf};

    /// Source: mints a tiny frame per tick and forwards the reference.
    struct TestSource;
    impl Module for TestSource {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::FrameTick { t_ns } = event {
                let frame: Frame = FrameBuf::new(16, 16).freeze(ctx.header().frame_seq, t_ns);
                let id = ctx.frame_store().insert(frame);
                ctx.call_module("mid", Payload::FrameRef(id))?;
            }
            Ok(())
        }
    }

    /// Middle: calls the doubling service on a count derived from the frame.
    struct TestMid;
    impl Module for TestMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                let frame = ctx.frame_store().get(id)?;
                let resp = ctx.call_service(
                    "doubler",
                    ServiceRequest::new("double", Payload::Count(frame.seq())),
                )?;
                ctx.frame_store().release(id);
                ctx.call_module("sink", resp.payload)?;
            }
            Ok(())
        }
    }

    /// Sink: records the count and signals the source.
    struct TestSink;
    impl Module for TestSink {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                if let Payload::Count(n) = msg.payload {
                    ctx.log(&format!("got {n}"));
                }
                ctx.signal_source()?;
            }
            Ok(())
        }
    }

    struct Doubler;
    impl Service for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            match request.payload {
                Payload::Count(n) => Ok(ServiceResponse::new(Payload::Count(n * 2))),
                ref other => Err(crate::service::wrong_payload("doubler", "count", other)),
            }
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    fn test_spec(name: &str) -> PipelineSpec {
        PipelineSpec::new(name)
            .with_module(ModuleSpec::new("src", "TestSource").with_next("mid"))
            .with_module(
                ModuleSpec::new("mid", "TestMid")
                    .with_service("doubler")
                    .with_next("sink"),
            )
            .with_module(ModuleSpec::new("sink", "TestSink"))
    }

    fn registries() -> (ModuleRegistry, ServiceRegistry) {
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        (modules, services)
    }

    fn single_device_plan(name: &str) -> DeploymentPlan {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        plan(&test_spec(name), &devices, &placement).unwrap()
    }

    #[test]
    fn reactor_single_pipeline_delivers_frames() {
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig::default());
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&single_device_plan("test"), &modules, &services, config)
            .unwrap();
        let reports = rt.run_until_total_deliveries(10, Duration::from_secs(10));
        let report = &reports[0];
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.logs.iter().any(|l| l.starts_with("sink: got")));
        assert!(report.metrics.stages.contains_key("src"));
        assert!(report.metrics.stages.contains_key("mid"));
        assert!(report.metrics.stages.contains_key("sink"));
        let dispatch = report
            .metrics
            .dispatch
            .get("one/doubler")
            .expect("dispatch stats for the doubler host");
        assert!(dispatch.requests >= 10, "{dispatch:?}");
        // Credit conservation survives the reactor refactor.
        assert_eq!(
            report.metrics.frames_admitted,
            report.metrics.frames_delivered
                + report.metrics.frames_faulted
                + u64::from(report.metrics.in_flight_at_end),
        );
    }

    #[test]
    fn reactor_thread_count_is_constant_in_pipelines() {
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let base = rt.thread_count();
        for i in 0..40 {
            let config = RuntimeConfig {
                fps: 50.0,
                ..RuntimeConfig::default()
            };
            rt.add_pipeline(
                &single_device_plan(&format!("p{i}")),
                &modules,
                &services,
                config,
            )
            .unwrap();
        }
        // Inproc pipelines add ZERO threads: workers + timer only.
        assert_eq!(rt.thread_count(), base);
        assert_eq!(base, 3); // 2 workers + 1 timer
        let reports = rt.run_until_total_deliveries(40 * 3, Duration::from_secs(20));
        assert_eq!(reports.len(), 40);
        for (i, report) in reports.iter().enumerate() {
            assert!(
                report.metrics.frames_delivered >= 1,
                "pipeline {i} delivered nothing: {:?}",
                report.errors
            );
            assert!(
                report.errors.is_empty(),
                "pipeline {i}: {:?}",
                report.errors
            );
        }
    }

    #[test]
    fn reactor_single_worker_cannot_deadlock_on_service_calls() {
        // One worker must be able to run the module step AND the service
        // dispatch it is waiting on, via wait-by-helping.
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&single_device_plan("solo"), &modules, &services, config)
            .unwrap();
        let reports = rt.run_until_total_deliveries(5, Duration::from_secs(10));
        assert!(
            reports[0].metrics.frames_delivered >= 5,
            "delivered {} errors {:?}",
            reports[0].metrics.frames_delivered,
            reports[0].errors
        );
    }

    #[test]
    fn reactor_tcp_transport_crosses_devices_via_io_thread() {
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "desktop")
            .assign("sink", "phone");
        let plan = plan(&test_spec("tcp"), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let base = rt.thread_count();
        let config = RuntimeConfig {
            fps: 100.0,
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&plan, &modules, &services, config).unwrap();
        // TCP adds exactly one I/O thread, once, regardless of devices.
        assert_eq!(rt.thread_count(), base + 1);
        let reports = rt.run_until_total_deliveries(10, Duration::from_secs(15));
        let report = &reports[0];
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn reactor_io_drains_a_burst_beyond_the_poll_budget_in_order() {
        /// A source that never emits: the only traffic is the test's.
        struct Silent;
        impl Module for Silent {
            fn on_event(&mut self, _: Event, _: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
                Ok(())
            }
        }
        struct Recorder(Arc<Mutex<Vec<u64>>>);
        impl Module for Recorder {
            fn on_event(
                &mut self,
                event: Event,
                _: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(msg) = event {
                    if let Payload::Count(n) = msg.payload {
                        self.0.lock().push(n);
                    }
                }
                Ok(())
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let mut modules = ModuleRegistry::new();
        modules.register("Silent", || Box::new(Silent));
        modules.register("Recorder", move || Box::new(Recorder(Arc::clone(&record))));
        let spec = PipelineSpec::new("burst")
            .with_module(ModuleSpec::new("src", "Silent").with_next("sink"))
            .with_module(ModuleSpec::new("sink", "Recorder"));
        let devices = vec![DeviceSpec::new("a", 1.0), DeviceSpec::new("b", 1.0)];
        let placement = Placement::new().assign("src", "a").assign("sink", "b");
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut rt = ReactorRuntime::new(ReactorConfig::default());
        let config = RuntimeConfig {
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&plan, &modules, &ServiceRegistry::new(), config)
            .unwrap();
        let addr = rt.core.pipelines.read()[0].shared.router.tcp_peers["b"]
            .peer()
            .to_string();
        // Several budgets' worth of frames in ONE write, then silence: a
        // read pass decodes more frames than its budget lets it deliver,
        // and the last leftovers sit decoded with the socket quiet.
        let burst = 4 * IO_POLL_BUDGET as u64 + 7;
        let channel = mod_chan("burst", "sink");
        let mut bytes = Vec::new();
        for n in 0..burst {
            videopipe_net::write_frame(
                &mut bytes,
                &WireMessage::data(channel.clone(), n, 0, Payload::Count(n).encode()),
            )
            .unwrap();
        }
        let mut peer = std::net::TcpStream::connect(&addr).unwrap();
        peer.write_all(&bytes).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (seen.lock().len() as u64) < burst {
            assert!(
                Instant::now() < deadline,
                "only {} of {burst} frames arrived",
                seen.lock().len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.finish();
        assert_eq!(*seen.lock(), (0..burst).collect::<Vec<_>>());
    }

    #[test]
    fn reactor_modeled_service_cost_defers_instead_of_blocking() {
        // With time_scale > 0 the 1ms modeled cost of `Doubler` becomes a
        // timer deferral; a single worker still keeps the pipeline moving
        // because no worker ever sleeps out the modeled time.
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            time_scale: 1.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&single_device_plan("modeled"), &modules, &services, config)
            .unwrap();
        let reports = rt.run_until_total_deliveries(5, Duration::from_secs(10));
        let report = &reports[0];
        assert!(
            report.metrics.frames_delivered >= 5,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        // The modeled time is accounted as busy time even though no
        // worker thread actually slept.
        let dispatch = report.metrics.dispatch.get("one/doubler").unwrap();
        assert!(
            dispatch.busy_ns >= 5 * 1_000_000,
            "modeled cost missing from busy_ns: {dispatch:?}"
        );
    }

    /// Probe task for the interleaving test: every run drains the shared
    /// `pending` wake counter. Lost DIRTY wakes leave `pending` non-zero
    /// forever; double-queued tasks produce more runs than wakes.
    struct ProbeRunner {
        pending: Arc<AtomicU64>,
        runs: Arc<AtomicU64>,
        overlap: Arc<AtomicBool>,
    }

    impl TaskRunner for ProbeRunner {
        fn run(&mut self, _core: &Core, _depth: usize) -> bool {
            assert!(
                !self.overlap.swap(true, Ordering::SeqCst),
                "task ran concurrently on two threads"
            );
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.pending.swap(0, Ordering::SeqCst);
            self.overlap.store(false, Ordering::SeqCst);
            false
        }
    }

    /// Seeded randomized interleaving over the 4-state task machine under
    /// stealing: four threads hammer `wake()` on one task homed on worker
    /// 0 of a 4-worker pool, so the runner, its home worker and three
    /// stealers race on every IDLE/QUEUED/RUNNING/DIRTY transition. A task
    /// must never run concurrently with itself (double-queue would allow
    /// two workers to pop it), each run must consume at least one wake,
    /// and a wake that lands mid-run (DIRTY) must never be lost.
    #[test]
    fn task_machine_survives_randomized_stealing_interleavings() {
        const WAKERS: u64 = 4;
        const WAKES_PER_THREAD: u64 = 20_000;
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: 4,
            ..ReactorConfig::default()
        });
        let pending = Arc::new(AtomicU64::new(0));
        let runs = Arc::new(AtomicU64::new(0));
        let task = rt.register_task(
            0,
            false,
            Box::new(ProbeRunner {
                pending: Arc::clone(&pending),
                runs: Arc::clone(&runs),
                overlap: Arc::new(AtomicBool::new(false)),
            }),
        );
        let mut handles = Vec::new();
        for t in 0..WAKERS {
            let core = Arc::clone(&rt.core);
            let task = Arc::clone(&task);
            let pending = Arc::clone(&pending);
            handles.push(std::thread::spawn(move || {
                // Fixed per-thread seed: the interleaving pressure pattern
                // (yield points) is reproducible run to run.
                let mut seed = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..WAKES_PER_THREAD {
                    pending.fetch_add(1, Ordering::SeqCst);
                    core.wake(&task);
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Quiesce: the final wake must still force a run that drains the
        // counter — if a racing DIRTY wake were dropped, `pending` would
        // stay non-zero forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pending.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            pending.load(Ordering::SeqCst),
            0,
            "wake lost: pending never drained after {} runs",
            runs.load(Ordering::SeqCst)
        );
        let total_runs = runs.load(Ordering::SeqCst);
        assert!(total_runs >= 1, "task never ran");
        assert!(
            total_runs <= WAKERS * WAKES_PER_THREAD,
            "more runs ({total_runs}) than wakes ({}): task was double-queued",
            WAKERS * WAKES_PER_THREAD
        );
        assert_eq!(
            task.state.load(Ordering::SeqCst),
            IDLE,
            "task did not settle back to IDLE"
        );
    }
}
