//! The local threaded runtime: executes a [`DeploymentPlan`] for real.
//!
//! Every module gets its own thread and inbox (the analogue of the paper's
//! per-module Duktape context); services run executor-pool threads on their
//! host device; a pacer thread per pipeline implements the camera tick +
//! credit flow control. All devices live in one process — "device" is a
//! logical placement domain with its own frame store and service hosts —
//! and cross-device edges transparently encode/decode frames, exactly as
//! the paper's ZeroMQ data path does.
//!
//! Timing fidelity (Wi-Fi latency, heavyweight inference) is the simulator's
//! job; the local runtime optionally *emulates* modeled costs with scaled
//! sleeps so demos behave realistically, but the evaluation harness uses
//! `videopipe-sim` for calibrated, deterministic numbers.

use crate::deploy::DeploymentPlan;
use crate::error::PipelineError;
use crate::flow::{CreditController, SourcePacer};
use crate::health::{DeviceStatus, FailureDetector, HealthConfig};
use crate::message::{Header, Message, Payload};
use crate::metrics::PipelineMetrics;
use crate::module::{Event, Module, ModuleCtx, ModuleFactory, ModuleRegistry};
use crate::resilience::{
    seed_for, BreakerSnapshot, CircuitBreaker, DegradationPolicy, ResilienceConfig, SeededJitter,
};
use crate::service::{ServiceRegistry, ServiceRequest, ServiceResponse};
use crate::slo::{KnobSettings, SloAction, SloConfig, SloController};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_media::{codec, FrameStore};
use videopipe_net::{InprocHub, MessageKind, MsgReceiver, MsgSender, WireMessage};

/// How cross-device traffic travels in the local runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeTransport {
    /// All edges are in-process channels (fastest; the default).
    #[default]
    Inproc,
    /// Cross-device traffic goes over real loopback TCP sockets with
    /// length-prefixed framing — one ingress socket per device, exactly
    /// like the paper's per-device ZeroMQ endpoints.
    Tcp,
}

/// Micro-batching knobs for one service executor's drain policy (see
/// DESIGN.md §5.7). After dequeuing a request, the executor first drains
/// whatever is already queued (zero added latency), then — only under
/// observed arrival pressure — holds the partial batch open for an adaptive
/// deadline scaled by the measured inter-arrival gap, never longer than
/// `max_wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest micro-batch one executor dispatches per drain
    /// (1 disables batching; this is the default).
    pub max_batch: usize,
    /// Ceiling on the adaptive drain deadline. Irrelevant at low load: with
    /// an empty queue and slow arrivals the executor never waits at all, so
    /// single-request latency is untouched.
    pub max_wait: Duration,
}

impl BatchConfig {
    /// Request-at-a-time dispatch (the pre-batching behaviour).
    pub const fn disabled() -> Self {
        BatchConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(2),
        }
    }

    /// Batching up to `max_batch` requests with the default 2 ms wait
    /// ceiling.
    pub fn up_to(max_batch: usize) -> Self {
        BatchConfig {
            max_batch: max_batch.max(1),
            ..Self::disabled()
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Camera frame rate offered by each source.
    pub fps: f64,
    /// Flow-control credits (1 = the paper's design).
    pub credits: u32,
    /// Cost emulation factor: modeled service/link costs are slept scaled
    /// by this (0.0 disables emulation; 1.0 is real-time).
    pub time_scale: f64,
    /// Codec quality for cross-device frames.
    pub codec_quality: codec::Quality,
    /// Cross-device transport.
    pub transport: EdgeTransport,
    /// When set, a monitoring thread publishes
    /// [`TelemetrySnapshot`](crate::telemetry::TelemetrySnapshot)s at this
    /// interval on the `telemetry/<pipeline>` topic.
    pub telemetry_interval: Option<Duration>,
    /// Resilience behaviour: retries, per-call deadlines, circuit breakers,
    /// degradation and the flow-control credit lease. The default disables
    /// everything but the (30 s) deadline.
    pub resilience: ResilienceConfig,
    /// Service-dispatch micro-batching defaults for every executor pool.
    /// The default (`max_batch` 1) preserves request-at-a-time dispatch.
    pub batch: BatchConfig,
    /// Per-service overrides of [`RuntimeConfig::batch`], keyed by service
    /// name — lets a deployment batch the heavy detector aggressively while
    /// leaving a latency-critical display service unbatched.
    pub service_batch: HashMap<String, BatchConfig>,
    /// When set, every device emits heartbeats on the `hb/<pipeline>`
    /// channel and a failure detector maintains a live
    /// [`DeviceStatus`] view; a *confirmed* device loss bumps the
    /// pipeline's fence epoch so in-flight frames from before the loss are
    /// fenced and their credits reclaimed. `None` (the default) disables
    /// the health layer entirely and preserves seed behaviour.
    pub heartbeats: Option<HealthConfig>,
    /// Interval at which module state is snapshotted
    /// ([`Module::snapshot`]) into the runtime's checkpoint store, so a
    /// supervised restart resumes near where the old instance died.
    /// `None` (the default) disables checkpointing.
    pub checkpoint_period: Option<Duration>,
    /// Number of recently delivered frame sequence numbers the pacer
    /// remembers to suppress double-counting when a frame is redelivered
    /// (at-least-once delivery after partition heal or failover). `0` (the
    /// default) disables the window and preserves seed behaviour.
    pub dedup_window: usize,
    /// When set, a per-pipeline SLO feedback controller observes windowed
    /// end-to-end p99 latency (and dispatch queue growth) and actuates the
    /// configured degradation [`Knob`](crate::slo::Knob) lattice — codec
    /// quality down, batches up, source sampling down, shedding last — with
    /// hysteresis and a minimum dwell. `None` (the default) keeps every
    /// knob static.
    pub slo: Option<SloConfig>,
}

impl RuntimeConfig {
    /// The effective batching policy for `service` (the per-service
    /// override when present, the runtime default otherwise).
    pub fn batch_for(&self, service: &str) -> BatchConfig {
        self.service_batch
            .get(service)
            .copied()
            .unwrap_or(self.batch)
    }

    /// Builder-style per-service batching override.
    pub fn with_service_batch(mut self, service: impl Into<String>, batch: BatchConfig) -> Self {
        self.service_batch.insert(service.into(), batch);
        self
    }

    /// Builder-style SLO controller attachment.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Deploy-time validation of every statically checkable field. The
    /// flow-control types would otherwise panic inside spawned threads
    /// (`SourcePacer` on a non-positive fps, `CreditController` on zero
    /// credits), turning a bad config into a hang instead of an error.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if !(self.fps.is_finite() && self.fps > 0.0) {
            return Err(PipelineError::InvalidConfig {
                field: "fps",
                reason: format!("must be finite and > 0, got {}", self.fps),
            });
        }
        if self.credits == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "credits",
                reason: "must be ≥ 1 (the paper's no-queue design is credits = 1)".into(),
            });
        }
        if !(self.time_scale.is_finite() && self.time_scale >= 0.0) {
            return Err(PipelineError::InvalidConfig {
                field: "time_scale",
                reason: format!("must be finite and ≥ 0, got {}", self.time_scale),
            });
        }
        if self.batch.max_batch == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "batch.max_batch",
                reason: "zero-sized batch can never dispatch; use 1 to disable batching".into(),
            });
        }
        for (service, batch) in &self.service_batch {
            if batch.max_batch == 0 {
                return Err(PipelineError::InvalidConfig {
                    field: "service_batch",
                    reason: format!(
                        "zero-sized batch for service {service:?}; use 1 to disable batching"
                    ),
                });
            }
        }
        if let Some(slo) = &self.slo {
            slo.validate()
                .map_err(|reason| PipelineError::InvalidConfig {
                    field: "slo",
                    reason,
                })?;
        }
        Ok(())
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            fps: 30.0,
            credits: 1,
            time_scale: 0.0,
            codec_quality: codec::Quality::default(),
            transport: EdgeTransport::Inproc,
            telemetry_interval: None,
            resilience: ResilienceConfig::default(),
            batch: BatchConfig::disabled(),
            service_batch: HashMap::new(),
            heartbeats: None,
            checkpoint_period: None,
            dedup_window: 0,
            slo: None,
        }
    }
}

/// Routes a message to its destination channel: in-process when the
/// destination lives on the sender's device (or in `Inproc` mode), over the
/// destination device's TCP ingress socket otherwise.
pub(crate) struct Router {
    pub(crate) hub: InprocHub,
    /// channel → owning device (empty in `Inproc` mode: everything local).
    pub(crate) channel_device: HashMap<String, String>,
    /// device → TCP sender towards that device's ingress socket.
    pub(crate) tcp_peers: HashMap<String, Arc<videopipe_net::tcp::TcpSender>>,
}

impl Router {
    pub(crate) fn inproc(hub: InprocHub) -> Self {
        Router {
            hub,
            channel_device: HashMap::new(),
            tcp_peers: HashMap::new(),
        }
    }

    pub(crate) fn send_from(
        &self,
        from_device: &str,
        msg: WireMessage,
    ) -> Result<(), PipelineError> {
        if let Some(dest_device) = self.channel_device.get(&msg.channel) {
            if dest_device != from_device {
                if let Some(peer) = self.tcp_peers.get(dest_device) {
                    return peer.send(msg).map_err(PipelineError::from);
                }
            }
        }
        self.hub
            .connect(&msg.channel)
            .and_then(|s| s.send(msg))
            .map_err(PipelineError::from)
    }
}

/// The outcome of a runtime run.
#[derive(Debug)]
pub struct RunReport {
    /// Collected metrics.
    pub metrics: PipelineMetrics,
    /// Module log lines, in arrival order (`"module: text"`).
    pub logs: Vec<String>,
    /// Handler errors observed (pipeline kept running).
    pub errors: Vec<String>,
    /// Module instances restarted by supervision after a panic.
    pub restarts: u64,
    /// Final circuit-breaker counters, keyed by service name (empty unless
    /// [`ResilienceConfig::breaker_failure_threshold`] is set).
    pub breakers: HashMap<String, BreakerSnapshot>,
    /// Final failure-detector view per device (empty unless
    /// [`RuntimeConfig::heartbeats`] is set).
    pub device_statuses: Vec<(String, DeviceStatus)>,
    /// Fence epoch at the end of the run (0 = no confirmed device loss).
    pub fence_epoch: u64,
    /// Final SLO controller lattice level (0 = baseline; also 0 when no
    /// controller was configured).
    pub slo_level: usize,
    /// Total SLO knob moves over the run (both directions).
    pub slo_moves: u64,
    /// SLO controller direction reversals over the run (bounded by the
    /// dwell time: at most one move per dwell).
    pub slo_flaps: u64,
    /// Per-worker reactor scheduler counters (empty for the threaded
    /// [`LocalRuntime`], which has no shared scheduler). Runtime-wide:
    /// every pipeline's report carries the same snapshot.
    pub scheduler: Vec<crate::metrics::WorkerSchedStats>,
    /// Final module checkpoints by module name (empty unless
    /// [`RuntimeConfig::checkpoint_period`] is set). Teardown takes one
    /// last snapshot of every checkpointing module, so a graceful shutdown
    /// hands the freshest recoverable state to whoever redeploys it.
    pub checkpoints: HashMap<String, Vec<u8>>,
}

/// A condvar-backed shutdown latch: watcher threads (SLO controller,
/// heartbeat senders, telemetry) park on it for their *full* interval —
/// no periodic poll wakeups — and teardown wakes every waiter at once, so
/// [`LocalRuntime::finish`] joins them in milliseconds regardless of how
/// long their intervals are.
pub(crate) struct ShutdownGate {
    state: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl ShutdownGate {
    pub(crate) fn new() -> Self {
        ShutdownGate {
            state: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Wakes every thread parked in [`ShutdownGate::wait_shutdown`].
    pub(crate) fn trigger(&self) {
        let mut triggered = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *triggered = true;
        self.cv.notify_all();
    }

    /// Parks for up to `dur`; returns `true` the moment shutdown is
    /// triggered (possibly before `dur` elapses), `false` on a normal
    /// interval expiry.
    pub(crate) fn wait_shutdown(&self, dur: Duration) -> bool {
        let guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if *guard {
            return true;
        }
        let (guard, _timeout) = self
            .cv
            .wait_timeout_while(guard, dur, |triggered| !*triggered)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

/// Shared state for one running pipeline.
pub(crate) struct Shared {
    pub(crate) hub: InprocHub,
    pub(crate) router: Router,
    pub(crate) stores: HashMap<String, Arc<FrameStore>>,
    pub(crate) metrics: Mutex<PipelineMetrics>,
    pub(crate) logs: Mutex<Vec<String>>,
    pub(crate) errors: Mutex<Vec<String>>,
    pub(crate) stop: AtomicBool,
    pub(crate) epoch: Instant,
    pub(crate) deliveries: AtomicU64,
    pub(crate) config: RuntimeConfig,
    pub(crate) breakers: Mutex<HashMap<String, CircuitBreaker>>,
    pub(crate) restarts: AtomicU64,
    /// Pipeline fence epoch: bumped once per confirmed device loss;
    /// messages stamped with an older epoch are fenced by the pacer.
    pub(crate) fence_epoch: AtomicU64,
    /// Heartbeat failure detector (`None` when heartbeats are disabled).
    pub(crate) detector: Mutex<Option<FailureDetector>>,
    /// Latest module snapshots by module name, for checkpointed restarts.
    pub(crate) checkpoints: Mutex<HashMap<String, Vec<u8>>>,
    /// Devices whose heartbeat sender is suppressed (chaos hook).
    pub(crate) muted_heartbeats: Mutex<HashSet<String>>,
    /// Live SLO knob actuators, written by the controller thread and read
    /// lock-free at the actuation sites (encode path, executor drain, pacer
    /// admission). All-baseline when no controller is configured.
    pub(crate) knobs: KnobActuators,
    /// Prompt-teardown latch for interval-driven watcher threads.
    pub(crate) gate: ShutdownGate,
}

/// Lock-free actuation state for the SLO controller's knob lattice.
pub(crate) struct KnobActuators {
    /// Codec quality override for cross-device frames; `NO_QUALITY` (255)
    /// means "use the configured quality".
    pub(crate) quality_shift: AtomicU8,
    /// Floor applied over every service's configured `max_batch`; 0 means
    /// no override.
    pub(crate) batch_floor: AtomicUsize,
    /// Source sampling divisor (1 = every camera tick).
    pub(crate) sample_divisor: AtomicU32,
    /// Shedding factor applied after sampling (1 = keep everything).
    pub(crate) shed_one_in: AtomicU32,
    /// Current lattice level, for telemetry and reports.
    pub(crate) level: AtomicUsize,
    /// Knob moves / direction reversals, mirrored from the controller.
    pub(crate) moves: AtomicU64,
    pub(crate) flaps: AtomicU64,
}

pub(crate) const NO_QUALITY: u8 = u8::MAX;

impl KnobActuators {
    pub(crate) fn baseline() -> Self {
        KnobActuators {
            quality_shift: AtomicU8::new(NO_QUALITY),
            batch_floor: AtomicUsize::new(0),
            sample_divisor: AtomicU32::new(1),
            shed_one_in: AtomicU32::new(1),
            level: AtomicUsize::new(0),
            moves: AtomicU64::new(0),
            flaps: AtomicU64::new(0),
        }
    }

    pub(crate) fn apply(&self, settings: KnobSettings, level: usize) {
        self.quality_shift.store(
            settings.quality_shift.unwrap_or(NO_QUALITY),
            Ordering::Relaxed,
        );
        self.batch_floor
            .store(settings.max_batch.unwrap_or(0), Ordering::Relaxed);
        self.sample_divisor
            .store(settings.sample_divisor.max(1), Ordering::Relaxed);
        self.shed_one_in
            .store(settings.shed_one_in.max(1), Ordering::Relaxed);
        self.level.store(level, Ordering::Relaxed);
    }

    pub(crate) fn admit_stride(&self) -> u64 {
        u64::from(self.sample_divisor.load(Ordering::Relaxed).max(1))
            * u64::from(self.shed_one_in.load(Ordering::Relaxed).max(1))
    }
}

impl Shared {
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The codec quality in effect right now: the SLO controller's override
    /// when one is applied, the configured quality otherwise.
    pub(crate) fn effective_quality(&self) -> codec::Quality {
        match self.knobs.quality_shift.load(Ordering::Relaxed) {
            shift if shift < 8 => codec::Quality::new(shift),
            _ => self.config.codec_quality,
        }
    }

    /// The micro-batch ceiling in effect for `service` right now: the
    /// configured policy, raised to the controller's batch floor when the
    /// batch knob is engaged.
    pub(crate) fn effective_max_batch(&self, service: &str) -> usize {
        self.config
            .batch_for(service)
            .max_batch
            .max(1)
            .max(self.knobs.batch_floor.load(Ordering::Relaxed))
    }
}

pub(crate) fn mod_chan(pipeline: &str, module: &str) -> String {
    format!("mod/{pipeline}/{module}")
}
pub(crate) fn reply_chan(pipeline: &str, module: &str) -> String {
    format!("rpl/{pipeline}/{module}")
}
pub(crate) fn svc_chan(device: &str, service: &str) -> String {
    format!("svc/{device}/{service}")
}
pub(crate) fn fc_chan(pipeline: &str) -> String {
    format!("fc/{pipeline}")
}
pub(crate) fn hb_chan(pipeline: &str) -> String {
    format!("hb/{pipeline}")
}

/// Wiring facts one module needs, derived from the plan.
pub(crate) struct ModuleWiring {
    pub(crate) name: String,
    pub(crate) device: String,
    /// next module -> (channel, cross_device)
    pub(crate) nexts: HashMap<String, (String, bool)>,
    /// service -> (channel, remote)
    pub(crate) services: HashMap<String, (String, bool)>,
    pub(crate) is_source: bool,
    pub(crate) is_sink: bool,
}

/// The execution context handed to module handlers.
struct LocalCtx {
    shared: Arc<Shared>,
    wiring: Arc<ModuleWiring>,
    pipeline: String,
    header: Header,
    /// Fence epoch of the event being processed; stamped onto every
    /// outgoing message so the pacer can fence frames admitted before a
    /// failover.
    epoch: u64,
    corr: u64,
    reply_rx: videopipe_net::InprocReceiver,
    /// Last successful response per service, for
    /// [`DegradationPolicy::LastKnownGood`]. Stored in encoded form: the
    /// per-success insert is then an O(1) refcount bump of the wire bytes,
    /// and the (rare) degraded path pays the decode.
    lkg: HashMap<String, bytes::Bytes>,
    /// Deterministic per-module retry jitter stream.
    jitter: SeededJitter,
}

impl LocalCtx {
    fn store(&self) -> &Arc<FrameStore> {
        self.shared
            .stores
            .get(&self.wiring.device)
            .expect("device store exists")
    }

    fn emulate(&self, modeled: Duration) {
        let scale = self.shared.config.time_scale;
        if scale > 0.0 {
            std::thread::sleep(modeled.mul_f64(scale));
        }
    }

    /// One request/response exchange with a service executor, bounded by
    /// the configured per-call deadline. Returns the decoded response plus
    /// its raw wire bytes (shared, for the last-known-good cache).
    fn attempt_service_call(
        &mut self,
        service: &str,
        channel: &str,
        remote: bool,
        bytes: bytes::Bytes,
    ) -> Result<(ServiceResponse, bytes::Bytes), PipelineError> {
        if remote {
            // Emulated request transfer (sender-side: the module blocks on
            // the round trip anyway).
            self.emulate(Duration::from_micros(
                2_500 + bytes.len() as u64 * 8 / 100, // ~wifi: 2.5ms + 100Mbit/s
            ));
        }
        self.corr += 1;
        let corr_id = self.corr;
        self.shared.router.send_from(
            &self.wiring.device,
            WireMessage::request(
                channel.to_string(),
                reply_chan(&self.pipeline, &self.wiring.name),
                corr_id,
                bytes,
            ),
        )?;
        let started = Instant::now();
        let deadline = started + self.shared.config.resilience.service_call_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(PipelineError::Timeout {
                    service: service.to_string(),
                    elapsed: started.elapsed(),
                });
            }
            // Wait in short slices so shutdown stays responsive even under
            // a long per-call deadline.
            match self.reply_rx.recv_timeout(remaining.min(POLL)) {
                Ok(msg) if msg.kind == MessageKind::Response && msg.corr_id == corr_id => {
                    if remote {
                        self.emulate(Duration::from_micros(
                            2_500 + msg.payload.len() as u64 * 8 / 100,
                        ));
                    }
                    let resp = ServiceResponse::decode(&msg.payload)?;
                    // Executors answer failures with a typed error payload.
                    if let Payload::Error(reason) = &resp.payload {
                        return Err(PipelineError::Service {
                            service: service.to_string(),
                            reason: reason.clone(),
                        });
                    }
                    return Ok((resp, msg.payload));
                }
                // Stale responses to timed-out attempts carry old corr ids.
                Ok(_stale) => continue,
                Err(_) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return Err(PipelineError::Shutdown);
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
            if let Some(cached) = self.lkg.get(service) {
                // Cached in wire form; decoding here keeps the success path
                // free of deep response clones.
                if let Ok(resp) = ServiceResponse::decode(cached) {
                    return Ok(resp);
                }
            }
        }
        Err(err)
    }
}

impl ModuleCtx for LocalCtx {
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
        // Circuit breaker gate: fast-fail while the service's breaker is
        // open so a dead service costs microseconds per frame, not a
        // deadline per frame.
        if resilience.breaker_enabled() && !self.breaker_allows(service) {
            return self.degrade(
                service,
                PipelineError::CircuitOpen {
                    service: service.to_string(),
                },
            );
        }
        // A frame reference cannot leave its device: encode for remote
        // calls — at most once per (frame, quality), via the store's
        // transcoding cache. A frame fanned out to N remote destinations
        // (or retried M times) runs the codec exactly once; everyone else
        // gets a refcount bump of the same buffer.
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
                        self.lkg.insert(service.to_string(), raw);
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
                    let backoff = resilience.retry.backoff(attempt, &mut self.jitter);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
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
                // Cached transcode: a frame forwarded to several
                // cross-device successors is encoded once, not per edge.
                let encoded = self.store().encoded(id, self.shared.effective_quality())?;
                payload = Payload::EncodedFrame(encoded);
            }
            let bytes = payload.size_hint() as u64;
            self.emulate(Duration::from_micros(2_500 + bytes * 8 / 100));
        }
        self.shared.router.send_from(
            &self.wiring.device,
            WireMessage::data(
                channel.clone(),
                self.header.frame_seq,
                self.header.capture_ts_ns,
                payload.encode(),
            )
            .with_epoch(self.epoch),
        )?;
        Ok(())
    }

    fn signal_source(&mut self) -> Result<(), PipelineError> {
        self.shared.router.send_from(
            &self.wiring.device,
            WireMessage {
                kind: MessageKind::Signal,
                channel: fc_chan(&self.pipeline),
                reply_to: String::new(),
                corr_id: 0,
                seq: self.header.frame_seq,
                timestamp_ns: self.header.capture_ts_ns,
                epoch: self.epoch,
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
        self.header
    }

    fn set_header(&mut self, header: Header) {
        self.header = header;
    }

    fn log(&mut self, text: &str) {
        self.shared
            .logs
            .lock()
            .push(format!("{}: {text}", self.wiring.name));
    }
}

/// A deployed, running pipeline on the local threaded runtime.
pub struct LocalRuntime {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    pipeline: String,
}

impl LocalRuntime {
    /// Deploys `plan` and starts all threads (modules, services, pacer).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when a module include or service image is
    /// missing, or wiring fails.
    pub fn deploy(
        plan: &DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        config: RuntimeConfig,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        let pipeline = plan.pipeline.name.clone();
        let hub = InprocHub::new();
        let mut stores = HashMap::new();
        for d in &plan.devices {
            stores.insert(d.name.clone(), Arc::new(FrameStore::new()));
        }
        let source_device = plan
            .pipeline
            .sources()
            .first()
            .and_then(|s| plan.placement.device_for(&s.name))
            .ok_or_else(|| PipelineError::Deploy("pipeline has no placed source".into()))?
            .to_string();

        // Build the router: in `Tcp` mode every device gets a loopback
        // ingress socket and all cross-device channels route through it.
        let mut listeners = Vec::new();
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
                    channel_device.insert(svc_chan(&b.device, &b.service), b.device.clone());
                }
                channel_device.insert(fc_chan(&pipeline), source_device.clone());
                // Heartbeats converge on the monitor, which runs alongside
                // the pacer on the source device.
                channel_device.insert(hb_chan(&pipeline), source_device.clone());

                let mut tcp_peers = HashMap::new();
                for d in &plan.devices {
                    let listener = videopipe_net::tcp::TcpListenerHandle::bind("127.0.0.1:0")?;
                    let addr = format!("127.0.0.1:{}", listener.local_port());
                    let sender = videopipe_net::tcp::TcpSender::connect_retry(
                        &addr,
                        Duration::from_secs(5),
                    )?
                    // Survive mid-stream disconnects: buffer and reconnect
                    // with backoff instead of failing the pipeline edge.
                    .with_reconnect(videopipe_net::tcp::ReconnectPolicy::default());
                    tcp_peers.insert(d.name.clone(), Arc::new(sender));
                    listeners.push(listener);
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
        let mut threads = Vec::new();

        // --- SLO feedback controller: one thread per pipeline, ticking at
        // the configured interval. It reads cumulative metrics (the same
        // histograms telemetry publishes), diffs them into a window, and
        // actuates the knob lattice through the shared atomics — never
        // touching the per-frame path.
        if let Some(slo_cfg) = config.slo.clone() {
            let shared_s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("slo-{pipeline}"))
                    .spawn(move || {
                        let mut controller = SloController::new(slo_cfg);
                        let interval = controller.config().interval;
                        let target_ms = controller.config().slo.p99.as_secs_f64() * 1e3;
                        // Park for the whole interval: the gate wakes this
                        // thread the instant teardown starts, so a long
                        // controller interval never delays `finish()`.
                        while !shared_s.gate.wait_shutdown(interval) {
                            let (hist, queue_max) = {
                                let metrics = shared_s.metrics.lock();
                                let q = metrics
                                    .dispatch
                                    .values()
                                    .map(|d| d.max_queue_depth)
                                    .max()
                                    .unwrap_or(0);
                                (metrics.end_to_end.clone(), q)
                            };
                            let action = controller.observe(shared_s.now_ns(), &hist, queue_max);
                            if action != SloAction::Hold {
                                let level = controller.level();
                                shared_s.knobs.apply(controller.settings(), level);
                                shared_s
                                    .knobs
                                    .moves
                                    .store(controller.moves(), Ordering::Relaxed);
                                shared_s
                                    .knobs
                                    .flaps
                                    .store(controller.flaps(), Ordering::Relaxed);
                                let dir = match action {
                                    SloAction::StepDown { .. } => "down",
                                    _ => "up",
                                };
                                shared_s.logs.lock().push(format!(
                                    "slo: step {dir} to level {level} \
                                     (window p99 {:.1} ms vs target {target_ms:.1} ms, {:?})",
                                    controller.last_window_p99_ns() as f64 / 1e6,
                                    controller.settings(),
                                ));
                            }
                        }
                    })
                    .expect("spawn slo controller"),
            );
        }

        // --- Health layer: per-device heartbeat senders plus one monitor
        // that feeds the failure detector and bumps the fence epoch on a
        // confirmed device loss.
        if let Some(health) = config.heartbeats.clone() {
            let hb_inbox = hub.bind(&hb_chan(&pipeline))?;
            for d in &plan.devices {
                let shared_hb = Arc::clone(&shared);
                let device = d.name.clone();
                let channel = hb_chan(&pipeline);
                let interval = health.heartbeat_interval;
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("hb-{device}"))
                        .spawn(move || {
                            // Beat immediately, then once per interval; the
                            // gate wakes the full-interval park on teardown.
                            loop {
                                if !shared_hb.stop.load(Ordering::SeqCst)
                                    && !shared_hb.muted_heartbeats.lock().contains(&device)
                                {
                                    let _ = shared_hb.router.send_from(
                                        &device,
                                        WireMessage {
                                            kind: MessageKind::Control,
                                            channel: channel.clone(),
                                            reply_to: String::new(),
                                            corr_id: 0,
                                            seq: 0,
                                            timestamp_ns: shared_hb.now_ns(),
                                            epoch: 0,
                                            payload: bytes::Bytes::copy_from_slice(
                                                device.as_bytes(),
                                            ),
                                        },
                                    );
                                }
                                if shared_hb.gate.wait_shutdown(interval) {
                                    break;
                                }
                            }
                        })
                        .expect("spawn heartbeat sender"),
                );
            }
            let shared_mon = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hb-monitor-{pipeline}"))
                    .spawn(move || {
                        let mut confirmed: HashSet<String> = HashSet::new();
                        while !shared_mon.stop.load(Ordering::SeqCst) {
                            if let Ok(msg) = hb_inbox.recv_timeout(POLL) {
                                if msg.kind == MessageKind::Control {
                                    if let Ok(device) = std::str::from_utf8(&msg.payload) {
                                        if let Some(d) = shared_mon.detector.lock().as_mut() {
                                            d.record_heartbeat(device, shared_mon.now_ns());
                                        }
                                    }
                                }
                            }
                            let now_ns = shared_mon.now_ns();
                            let dead = match shared_mon.detector.lock().as_ref() {
                                Some(d) => d.dead_devices(now_ns),
                                None => Vec::new(),
                            };
                            for device in dead {
                                if confirmed.insert(device.clone()) {
                                    let epoch =
                                        shared_mon.fence_epoch.fetch_add(1, Ordering::SeqCst) + 1;
                                    shared_mon.logs.lock().push(format!(
                                        "monitor: device {device} confirmed dead; fencing epoch {epoch}"
                                    ));
                                }
                            }
                        }
                    })
                    .expect("spawn heartbeat monitor"),
            );
        }

        // TCP ingress pumps: forward arriving wire messages to the local
        // in-process channel named by `msg.channel`.
        for listener in listeners {
            let shared_in = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("vp-tcp-ingress".into())
                    .spawn(move || {
                        while !shared_in.stop.load(Ordering::SeqCst) {
                            match listener.recv_timeout(POLL) {
                                Ok(msg) => {
                                    if let Ok(sender) = shared_in.hub.connect(&msg.channel) {
                                        let _ = sender.send(msg);
                                    }
                                }
                                Err(_) => continue,
                            }
                        }
                        listener.shutdown();
                    })
                    .expect("spawn tcp ingress"),
            );
        }

        // --- Service hosts: one executor pool per (device, service) that is
        // actually bound by some module.
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
            let executors = dev_spec.cores.max(1);
            // Each executor gets its own clone of the MPMC inbox: requests
            // are pulled straight off the shared queue with no mutex
            // hand-off, so executors never contend on a lock to dequeue.
            let inbox = hub.bind(&svc_chan(&device, &service))?;
            for ex in 0..executors {
                let inbox = inbox.clone();
                let image = Arc::clone(&image);
                let shared = Arc::clone(&shared);
                let device = device.clone();
                let speed = dev_spec.speed_factor.max(1e-6);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("svc-{device}-{}-{ex}", image.name()))
                        .spawn(move || service_executor_loop(shared, inbox, image, device, speed))
                        .expect("spawn service executor"),
                );
            }
        }

        // --- Modules.
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
                    (svc_chan(&b.device, &b.service), b.remote),
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
            let inbox = hub.bind(&mod_chan(&pipeline, &m.name))?;
            let reply_rx = hub.bind(&reply_chan(&pipeline, &m.name))?;
            let factory = modules.factory(&m.include)?;
            let mut instance = modules.instantiate(&m.include)?;
            let shared2 = Arc::clone(&shared);
            let pipeline2 = pipeline.clone();
            let mut ctx = LocalCtx {
                shared: Arc::clone(&shared),
                wiring: Arc::clone(&wiring),
                pipeline: pipeline.clone(),
                header: Header::default(),
                epoch: 0,
                corr: 0,
                reply_rx,
                lkg: HashMap::new(),
                jitter: SeededJitter::new(seed_for(config.resilience.seed, &m.name)),
            };
            instance.init(&mut ctx)?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mod-{}", m.name))
                    .spawn(move || {
                        module_loop(shared2, inbox, instance, ctx, pipeline2, wiring, factory)
                    })
                    .expect("spawn module thread"),
            );
        }

        // --- Telemetry publisher (paper §7 monitoring).
        if let Some(interval) = config.telemetry_interval {
            let shared_t = Arc::clone(&shared);
            let pipeline_t = pipeline.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("telemetry-{pipeline}"))
                    .spawn(move || {
                        // Full-interval park; the gate ends it on teardown.
                        while !shared_t.gate.wait_shutdown(interval) {
                            let mut snapshot = {
                                let metrics = shared_t.metrics.lock();
                                crate::telemetry::TelemetrySnapshot::from_metrics(
                                    &pipeline_t,
                                    shared_t.now_ns(),
                                    &metrics,
                                )
                            };
                            snapshot.slo_level =
                                shared_t.knobs.level.load(Ordering::Relaxed) as u64;
                            snapshot.publish(&shared_t.hub);
                        }
                    })
                    .expect("spawn telemetry"),
            );
        }

        // --- Pacer thread (flow control at the source).
        let fc_inbox = hub.bind(&fc_chan(&pipeline))?;
        let shared3 = Arc::clone(&shared);
        let pipeline3 = pipeline.clone();
        let sources = source_names.clone();
        let pacer_device = source_device.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("pacer-{pipeline}"))
                .spawn(move || {
                    pacer_loop(shared3, fc_inbox, pipeline3, sources, pacer_device, config)
                })
                .expect("spawn pacer"),
        );

        Ok(LocalRuntime {
            shared,
            threads,
            pipeline,
        })
    }

    /// The pipeline name.
    pub fn pipeline(&self) -> &str {
        &self.pipeline
    }

    /// Subscribes a telemetry monitor to this pipeline (snapshots flow only
    /// when [`RuntimeConfig::telemetry_interval`] is set).
    ///
    /// # Errors
    ///
    /// Propagates hub binding errors.
    pub fn monitor(&self) -> Result<crate::telemetry::TelemetryMonitor, PipelineError> {
        crate::telemetry::TelemetryMonitor::subscribe(&self.shared.hub, &self.pipeline)
    }

    /// Frames delivered so far.
    pub fn deliveries(&self) -> u64 {
        self.shared.deliveries.load(Ordering::Relaxed)
    }

    /// Module instances restarted by supervision so far.
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Frame-store counters for `device`, including the encode-cache
    /// hit/miss tallies (diagnostics and tests).
    pub fn frame_store_stats(&self, device: &str) -> Option<videopipe_media::FrameStoreStats> {
        self.shared.stores.get(device).map(|s| s.stats())
    }

    /// The failure detector's current view of `device` (`None` when
    /// heartbeats are disabled).
    pub fn device_status(&self, device: &str) -> Option<DeviceStatus> {
        let now_ns = self.shared.now_ns();
        self.shared
            .detector
            .lock()
            .as_ref()
            .map(|d| d.status(device, now_ns))
    }

    /// The current fence epoch (0 until a device loss is confirmed).
    pub fn fence_epoch(&self) -> u64 {
        self.shared.fence_epoch.load(Ordering::SeqCst)
    }

    /// The SLO controller's current lattice level (0 = baseline; always 0
    /// when [`RuntimeConfig::slo`] is unset).
    pub fn slo_level(&self) -> usize {
        self.shared.knobs.level.load(Ordering::Relaxed)
    }

    /// Chaos hook: silences `device`'s heartbeat sender, as if the device
    /// dropped off the network. The failure detector will walk it through
    /// suspicion to confirmed loss. Returns whether the device was newly
    /// muted.
    pub fn inject_heartbeat_loss(&self, device: &str) -> bool {
        self.shared
            .muted_heartbeats
            .lock()
            .insert(device.to_string())
    }

    /// The latest checkpoint taken for `module`, if any (diagnostics and
    /// tests).
    pub fn checkpoint(&self, module: &str) -> Option<Vec<u8>> {
        self.shared.checkpoints.lock().get(module).cloned()
    }

    /// Chaos hook: severs every cross-device TCP connection mid-stream, as
    /// if the Wi-Fi link blipped (`Tcp` transport only; a no-op in `Inproc`
    /// mode). Senders carry a reconnect policy, so traffic buffers and
    /// re-establishes transparently. Returns the number of connections
    /// severed.
    pub fn inject_tcp_disconnect(&self) -> usize {
        let mut severed = 0;
        for peer in self.shared.router.tcp_peers.values() {
            peer.inject_disconnect();
            severed += 1;
        }
        severed
    }

    /// Runs until `wall` elapses, then stops and reports.
    pub fn run_for(self, wall: Duration) -> RunReport {
        std::thread::sleep(wall);
        self.finish()
    }

    /// Runs until `n` frames are delivered or `max_wall` elapses.
    pub fn run_until_deliveries(self, n: u64, max_wall: Duration) -> RunReport {
        let deadline = Instant::now() + max_wall;
        while self.deliveries() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.finish()
    }

    /// Stops all threads and collects the report.
    pub fn finish(self) -> RunReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake every interval-parked watcher so joins are O(ms) even with
        // multi-second heartbeat/SLO/telemetry intervals.
        self.shared.gate.trigger();
        for t in self.threads {
            let _ = t.join();
        }
        collect_report(&self.shared)
    }
}

/// Builds the end-of-run report from a pipeline's shared state (used by
/// both the threaded runtime and the reactor).
pub(crate) fn collect_report(shared: &Shared) -> RunReport {
    let run_duration_ns = shared.now_ns();
    let mut metrics = shared.metrics.lock().clone();
    metrics.run_duration_ns = run_duration_ns;
    let breakers = shared
        .breakers
        .lock()
        .iter()
        .map(|(name, b)| (name.clone(), b.snapshot()))
        .collect();
    let device_statuses = shared
        .detector
        .lock()
        .as_ref()
        .map(|d| d.statuses(run_duration_ns))
        .unwrap_or_default();
    RunReport {
        metrics,
        logs: std::mem::take(&mut *shared.logs.lock()),
        errors: std::mem::take(&mut *shared.errors.lock()),
        restarts: shared.restarts.load(Ordering::Relaxed),
        breakers,
        device_statuses,
        fence_epoch: shared.fence_epoch.load(Ordering::SeqCst),
        slo_level: shared.knobs.level.load(Ordering::Relaxed),
        slo_moves: shared.knobs.moves.load(Ordering::Relaxed),
        slo_flaps: shared.knobs.flaps.load(Ordering::Relaxed),
        scheduler: Vec::new(),
        checkpoints: shared.checkpoints.lock().clone(),
    }
}

impl std::fmt::Debug for LocalRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalRuntime")
            .field("pipeline", &self.pipeline)
            .field("threads", &self.threads.len())
            .finish()
    }
}

pub(crate) const POLL: Duration = Duration::from_millis(20);

fn service_executor_loop(
    shared: Arc<Shared>,
    inbox: videopipe_net::InprocReceiver,
    image: Arc<dyn crate::service::Service>,
    device: String,
    speed: f64,
) {
    let host = format!("{device}/{}", image.name());
    let batch = shared.config.batch_for(image.name());
    // Observed inter-arrival gap (EWMA, ns): drives the adaptive drain
    // deadline. Starts at one POLL so an idle executor never waits for a
    // second request that isn't coming.
    let mut ewma_gap_ns = POLL.as_nanos() as f64;
    let mut last_arrival: Option<Instant> = None;
    while !shared.stop.load(Ordering::SeqCst) {
        let msg = match inbox.recv_timeout(POLL) {
            Ok(m) => m,
            Err(_) => continue,
        };
        if msg.kind != MessageKind::Request {
            continue;
        }
        // Re-read per dispatch: the SLO controller may raise the batch
        // ceiling mid-run (one relaxed atomic load; the drain policy and
        // its adaptive wait are otherwise unchanged).
        let max_batch = shared.effective_max_batch(image.name());
        // Backlog behind this request, sampled BEFORE the drain below
        // empties the queue — `max_queue_depth` must keep reflecting true
        // pressure, not the post-drain emptiness.
        let queue_depth = inbox.pending() as u64;
        let now = Instant::now();
        if let Some(prev) = last_arrival {
            let gap = now.duration_since(prev).as_nanos() as f64;
            ewma_gap_ns = 0.8 * ewma_gap_ns + 0.2 * gap;
        }
        last_arrival = Some(now);

        let mut msgs = vec![msg];
        if max_batch > 1 {
            // Free drain: anything already queued joins the batch with zero
            // added latency.
            while msgs.len() < max_batch {
                match inbox.try_recv() {
                    Ok(m) if m.kind == MessageKind::Request => msgs.push(m),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            // Adaptive wait: hold a partial batch open only under observed
            // pressure — a backlog existed at dequeue, or arrivals are
            // faster than the wait ceiling — for a deadline scaled by the
            // measured arrival rate. At low load this branch never runs, so
            // single-request p99 is untouched.
            let pressured = queue_depth > 0 || ewma_gap_ns < batch.max_wait.as_nanos() as f64;
            if msgs.len() < max_batch && pressured {
                let missing = (max_batch - msgs.len()) as f64;
                let deadline =
                    Duration::from_nanos((ewma_gap_ns * missing) as u64).min(batch.max_wait);
                let deadline_at = now + deadline;
                while msgs.len() < max_batch {
                    let remaining = deadline_at.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    match inbox.recv_timeout(remaining) {
                        Ok(m) if m.kind == MessageKind::Request => msgs.push(m),
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
            }
        }

        let started = Instant::now();
        let batch_len = msgs.len() as u64;
        let store = shared.stores.get(&device).expect("store");

        // Decode every request up front. A slot that fails here still gets
        // a typed error reply below — a caller must never wait out its full
        // deadline because the executor dropped its request on the floor.
        let mut slots: Vec<Result<ServiceRequest, PipelineError>> = msgs
            .iter()
            .map(|m| ServiceRequest::decode(&m.payload))
            .collect();
        // Cross-device frames arrive encoded; decode the whole batch in one
        // pass (shared scratch plane, per-shift LUT reuse) into the local
        // store so the service sees FrameRefs like any other request.
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
                        shared.errors.lock().push(format!(
                            "service {}: frame decode failed: {e}",
                            image.name()
                        ));
                        slots[*i] = Err(PipelineError::Service {
                            service: image.name().to_string(),
                            reason: format!("frame decode failed: {e}"),
                        });
                    }
                }
            }
        }

        // Emulate the modeled compute cost: one sleep for the whole batch.
        // The leading request pays its full base cost, followers pay the
        // amortised batched base.
        if shared.config.time_scale > 0.0 {
            let mut modeled = Duration::ZERO;
            let mut first = true;
            for (slot, m) in slots.iter().zip(&msgs) {
                if let Ok(req) = slot {
                    modeled += image.cost(req).for_batch_item(first, m.payload.len());
                    first = false;
                }
            }
            if !modeled.is_zero() {
                std::thread::sleep(modeled.mul_f64(shared.config.time_scale / speed.max(1e-6)));
            }
        }

        // Supervise the batch handler: a panicking service (a crashed
        // container) must not take the executor thread with it. A panic
        // fails every request of the batch with a typed error reply, so the
        // caller side records one breaker event per *request*, never one
        // per batch.
        let ready: Vec<ServiceRequest> = slots
            .iter()
            .filter_map(|slot| slot.as_ref().ok().cloned())
            .collect();
        let handled: Vec<Result<ServiceResponse, PipelineError>> = if ready.is_empty() {
            Vec::new()
        } else {
            match catch_unwind(AssertUnwindSafe(|| image.handle_batch(&ready, store))) {
                Ok(results) => results,
                Err(panic) => {
                    let reason = format!("panicked: {}", panic_message(panic.as_ref()));
                    (0..ready.len())
                        .map(|_| {
                            Err(PipelineError::Service {
                                service: image.name().to_string(),
                                reason: reason.clone(),
                            })
                        })
                        .collect()
                }
            }
        };
        let mut handled = handled.into_iter();
        for (m, slot) in msgs.iter().zip(slots) {
            let response = match slot {
                Ok(_) => handled.next().unwrap_or_else(|| {
                    // A handle_batch override returned too few results;
                    // surface that as a per-request error rather than
                    // misaligning replies.
                    Err(PipelineError::Service {
                        service: image.name().to_string(),
                        reason: "handle_batch returned too few results".to_string(),
                    })
                }),
                Err(e) => Err(e),
            };
            match response {
                Ok(resp) => {
                    let _ = shared
                        .router
                        .send_from(&device, WireMessage::response_to(m, resp.encode()));
                }
                Err(e) => {
                    // A handler failure is not yet a pipeline error: the
                    // typed error response below lets the caller retry, and
                    // only an *unrecovered* failure is recorded (by the
                    // module loop). Keep a log line for diagnostics.
                    shared
                        .logs
                        .lock()
                        .push(format!("service {}: {e}", image.name()));
                    // Reply with a typed error payload so the caller fails
                    // fast and can retry or degrade instead of timing out.
                    let _ = shared.router.send_from(
                        &device,
                        WireMessage::response_to(
                            m,
                            ServiceResponse::new(Payload::Error(e.to_string())).encode(),
                        ),
                    );
                }
            }
        }
        let busy_ns = started.elapsed().as_nanos() as u64;
        shared
            .metrics
            .lock()
            .record_dispatch_batch(&host, busy_ns, queue_depth, batch_len);
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn module_loop(
    shared: Arc<Shared>,
    inbox: videopipe_net::InprocReceiver,
    mut instance: Box<dyn Module>,
    mut ctx: LocalCtx,
    _pipeline: String,
    wiring: Arc<ModuleWiring>,
    factory: ModuleFactory,
) {
    let checkpoint_period = shared.config.checkpoint_period;
    let mut last_checkpoint = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        // Periodic checkpoint: persist the instance's recoverable state so
        // a restarted replacement resumes near where this one died.
        if let Some(period) = checkpoint_period {
            if last_checkpoint.elapsed() >= period {
                last_checkpoint = Instant::now();
                if let Some(snap) = instance.snapshot() {
                    shared.checkpoints.lock().insert(wiring.name.clone(), snap);
                }
            }
        }
        let msg = match inbox.recv_timeout(POLL) {
            Ok(m) => m,
            Err(_) => continue,
        };
        ctx.epoch = msg.epoch;
        let event = match msg.kind {
            MessageKind::Signal if wiring.is_source => {
                ctx.set_header(Header {
                    frame_seq: msg.seq,
                    capture_ts_ns: msg.timestamp_ns,
                });
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
                ctx.set_header(Header {
                    frame_seq: msg.seq,
                    capture_ts_ns: msg.timestamp_ns,
                });
                Event::Message(Message::new(ctx.header(), payload))
            }
            _ => continue,
        };

        let start = Instant::now();
        let result = match catch_unwind(AssertUnwindSafe(|| instance.on_event(event, &mut ctx))) {
            Ok(result) => result,
            Err(panic) => {
                // Supervision: the instance may hold poisoned state, so
                // replace it with a fresh one and keep the thread alive.
                // The in-flight frame dies and returns its credit through
                // the error path below.
                instance = factory();
                let _ = catch_unwind(AssertUnwindSafe(|| instance.init(&mut ctx)));
                // Checkpointed restart: hand the replacement the latest
                // snapshot so stateful modules resume rather than reset.
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
        {
            let mut metrics = shared.metrics.lock();
            metrics.record_stage(&wiring.name, elapsed_ns);
        }
        match result {
            Ok(()) => {
                if wiring.is_sink {
                    // End-to-end accounting happens at the pacer on the
                    // completion signal; sinks that forget to signal stall
                    // the pipeline, so signal on their behalf if they have
                    // no explicit flow-control role.
                }
            }
            Err(e) => {
                // Errors caused by the runtime tearing down (peers already
                // gone) are shutdown artifacts, not pipeline failures.
                if shared.stop.load(Ordering::SeqCst) {
                    continue;
                }
                shared.errors.lock().push(format!("{}: {e}", wiring.name));
                // The frame died here: return its credit so the pipeline
                // keeps flowing. A Control-kind message distinguishes this
                // from a real completion so it is not counted as delivered.
                let _ = shared.router.send_from(
                    &wiring.device,
                    WireMessage {
                        kind: MessageKind::Control,
                        channel: fc_chan(&ctx.pipeline),
                        reply_to: String::new(),
                        corr_id: 0,
                        seq: ctx.header.frame_seq,
                        timestamp_ns: ctx.header.capture_ts_ns,
                        epoch: ctx.epoch,
                        payload: bytes::Bytes::new(),
                    },
                );
            }
        }
    }
    // Final checkpoint at teardown: a graceful shutdown (SIGTERM, drain)
    // should hand off the freshest recoverable state, not whatever the
    // last periodic tick happened to capture.
    if checkpoint_period.is_some() {
        if let Some(snap) = instance.snapshot() {
            shared.checkpoints.lock().insert(wiring.name.clone(), snap);
        }
    }
}

fn pacer_loop(
    shared: Arc<Shared>,
    fc_inbox: videopipe_net::InprocReceiver,
    pipeline: String,
    sources: Vec<String>,
    source_device: String,
    config: RuntimeConfig,
) {
    let mut pacer = SourcePacer::new(config.fps);
    let mut controller = CreditController::new(config.credits);
    let interval = Duration::from_nanos(pacer.interval_ns());
    let epoch = Instant::now();
    let lease = config.resilience.credit_timeout;
    // Outstanding admissions are tracked by frame seq for credit-lease
    // expiry and for epoch fencing (either feature needs the set).
    let track_outstanding = lease.is_some() || config.heartbeats.is_some();
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    // Fence epoch this pacer is admitting under. A bump (confirmed device
    // loss) fences everything in flight: those frames may be lost, half
    // delivered, or redelivered — their credits come back here and any
    // late signal they still produce is ignored.
    let mut current_epoch = shared.fence_epoch.load(Ordering::SeqCst);
    // Recently delivered frame seqs, for redelivery dedup (at-least-once
    // delivery must not double-count).
    let dedup_window = config.dedup_window;
    let mut dedup_order: VecDeque<u64> = VecDeque::with_capacity(dedup_window);
    let mut dedup_set: HashSet<u64> = HashSet::with_capacity(dedup_window);
    // Align pacer ticks to wall time.
    let mut next_tick = epoch;
    'run: while !shared.stop.load(Ordering::SeqCst) {
        // Drain completion signals until the next tick.
        loop {
            let now = Instant::now();
            if now >= next_tick {
                break;
            }
            // Epoch bump: proactively fault every outstanding admission so
            // the source regains its credits immediately instead of waiting
            // out a lease on frames the dead device will never finish.
            let fence = shared.fence_epoch.load(Ordering::SeqCst);
            if fence != current_epoch {
                current_epoch = fence;
                let fenced = outstanding.len() as u64;
                for _ in outstanding.drain() {
                    controller.fault();
                }
                if fenced > 0 {
                    shared.logs.lock().push(format!(
                        "pacer: fenced {fenced} in-flight frame(s) at epoch {current_epoch}"
                    ));
                }
            }
            let wait = (next_tick - now).min(POLL);
            if let Ok(msg) = fc_inbox.recv_timeout(wait) {
                // Redelivered frame already counted: drop the signal whole —
                // its credit was settled the first time around.
                if dedup_window > 0
                    && msg.kind == MessageKind::Signal
                    && dedup_set.contains(&msg.seq)
                {
                    continue;
                }
                // When admissions are tracked, only outstanding frames may
                // return a credit: anything else is a late echo of an
                // already expired lease or a fenced epoch, and honouring it
                // would free a credit that belongs to a different frame.
                let known = !track_outstanding || outstanding.remove(&msg.seq).is_some();
                // Signals from a dead epoch are fenced: the credit (if
                // still held) is reclaimed through the fault path, and the
                // delivery is NOT counted.
                let fenced = msg.epoch != current_epoch;
                match msg.kind {
                    MessageKind::Signal if known && !fenced => {
                        controller.complete();
                        if dedup_window > 0 {
                            if dedup_order.len() == dedup_window {
                                if let Some(old) = dedup_order.pop_front() {
                                    dedup_set.remove(&old);
                                }
                            }
                            dedup_order.push_back(msg.seq);
                            dedup_set.insert(msg.seq);
                        }
                        let now_ns = shared.now_ns();
                        let latency = now_ns.saturating_sub(msg.timestamp_ns);
                        let mut metrics = shared.metrics.lock();
                        metrics.record_delivery(now_ns, latency);
                        drop(metrics);
                        shared.deliveries.fetch_add(1, Ordering::Relaxed);
                    }
                    MessageKind::Signal if known => controller.fault(),
                    // Error-path credit return: the frame died mid-pipeline.
                    MessageKind::Control if known => controller.fault(),
                    _ => {}
                }
            }
            if shared.stop.load(Ordering::SeqCst) {
                break 'run;
            }
        }
        // Expire credit leases: a frame that produced no signal within the
        // timeout (lost across a dead link, wedged beyond every deadline)
        // has its credit reclaimed so the source cannot stall forever.
        if let Some(timeout) = lease {
            let now = Instant::now();
            let expired: Vec<u64> = outstanding
                .iter()
                .filter(|(_, admitted_at)| now.duration_since(**admitted_at) > timeout)
                .map(|(seq, _)| *seq)
                .collect();
            for seq in expired {
                outstanding.remove(&seq);
                controller.fault();
                shared
                    .errors
                    .lock()
                    .push(format!("pacer: credit lease expired for frame {seq}"));
            }
        }
        // Camera tick. The SLO controller's sampling/shedding knobs thin
        // admission here, before a credit is spent: with a stride of N only
        // every N-th camera tick competes for a credit at all, and the
        // skipped ticks are accounted as source drops.
        pacer.advance();
        next_tick += interval;
        let stride = shared.knobs.admit_stride();
        let sampled_out = stride > 1 && !pacer.ticks().is_multiple_of(stride);
        let admitted = !sampled_out && controller.try_admit();
        {
            let mut metrics = shared.metrics.lock();
            metrics.frames_offered = metrics.frames_offered.saturating_add(1);
            if !admitted {
                metrics.frames_dropped = metrics.frames_dropped.saturating_add(1);
            }
        }
        if admitted {
            if track_outstanding {
                outstanding.insert(pacer.ticks(), Instant::now());
            }
            let t_ns = shared.now_ns();
            for source in &sources {
                let _ = shared.router.send_from(
                    &source_device,
                    WireMessage {
                        kind: MessageKind::Signal,
                        channel: mod_chan(&pipeline, source),
                        reply_to: String::new(),
                        corr_id: 0,
                        seq: pacer.ticks(),
                        timestamp_ns: t_ns,
                        epoch: current_epoch,
                        payload: bytes::Bytes::new(),
                    },
                );
            }
        }
    }
    // Final credit accounting: lets reports prove no credit leaked
    // (admitted == delivered + faulted + in_flight).
    let mut metrics = shared.metrics.lock();
    metrics.frames_admitted = controller.admitted();
    metrics.frames_faulted = controller.faulted();
    metrics.in_flight_at_end = controller.in_flight();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{plan, DeviceSpec, Placement};
    use crate::service::{Service, ServiceCost};
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

    fn test_spec() -> PipelineSpec {
        PipelineSpec::new("test")
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

    fn run_pipeline(devices: Vec<DeviceSpec>, placement: Placement) -> RunReport {
        let spec = test_spec();
        let plan = plan(&spec, &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        runtime.run_until_deliveries(10, Duration::from_secs(10))
    }

    #[test]
    fn single_device_pipeline_delivers_frames() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let report = run_pipeline(devices, placement);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.logs.iter().any(|l| l.starts_with("sink: got")));
        // Stage metrics exist for all three modules.
        assert!(report.metrics.stages.contains_key("src"));
        assert!(report.metrics.stages.contains_key("mid"));
        assert!(report.metrics.stages.contains_key("sink"));
        assert!(report.metrics.fps() > 0.0);
        // Executor dispatch counters flowed into the report.
        let dispatch = report
            .metrics
            .dispatch
            .get("one/doubler")
            .expect("dispatch stats for the doubler host");
        assert!(dispatch.requests >= 10, "{dispatch:?}");
        assert!(dispatch.busy_ns > 0, "{dispatch:?}");
    }

    #[test]
    fn cross_device_pipeline_transcodes_frames() {
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
        let report = run_pipeline(devices, placement);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn tcp_transport_runs_the_cross_device_pipeline() {
        // Same topology as `cross_device_pipeline_transcodes_frames`, but
        // every cross-device message travels over real loopback TCP.
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
        let spec = test_spec();
        let plan = plan(&spec, &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(10, Duration::from_secs(15));
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    /// Middle module that sends the *same frame* to the remote service
    /// twice per tick — the fan-out pattern the encode cache exists for.
    struct FanoutMid;
    impl Module for FanoutMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                for _ in 0..2 {
                    ctx.call_service("doubler", ServiceRequest::new("eat", Payload::FrameRef(id)))?;
                }
                ctx.frame_store().release(id);
                ctx.call_module("sink", Payload::Count(1))?;
            }
            Ok(())
        }
    }

    /// Service that accepts any payload (frames included) and answers with
    /// a count.
    struct FrameEater;
    impl Service for FrameEater {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            if let Payload::FrameRef(id) = request.payload {
                store.release(id);
            }
            Ok(ServiceResponse::new(Payload::Count(1)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn remote_fan_out_hits_the_encode_cache() {
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(FanoutMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(FrameEater));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.deliveries() < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = runtime
            .frame_store_stats("phone")
            .expect("phone frame store");
        let report = runtime.finish();
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        // Two remote calls per frame, one codec run per frame: the second
        // call must hit the cache.
        assert!(
            stats.encode_hits >= 10,
            "expected >=10 encode-cache hits, got {stats:?}"
        );
        assert!(
            stats.encode_misses <= stats.inserted,
            "at most one encode per frame: {stats:?}"
        );
    }

    #[test]
    fn remote_service_binding_works() {
        // Baseline topology: module on phone, service on desktop.
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let report = run_pipeline(devices, placement);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
    }

    #[test]
    fn flow_control_limits_in_flight_frames() {
        // With one credit and a fast camera, drops must occur while
        // deliveries continue.
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let spec = test_spec();
        let plan = plan(&spec, &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 2000.0,
            credits: 1,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_for(Duration::from_millis(500));
        assert!(report.metrics.frames_delivered > 0);
        assert!(report.metrics.frames_offered > report.metrics.frames_delivered);
    }

    #[test]
    fn telemetry_monitor_receives_snapshots() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            telemetry_interval: Some(Duration::from_millis(40)),
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let mut monitor = runtime.monitor().unwrap();
        let report = runtime.run_for(Duration::from_millis(400));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let received = monitor.poll();
        assert!(received >= 2, "only {received} snapshots");
        let latest = monitor.latest().unwrap();
        assert_eq!(latest.pipeline, "test");
        assert!(latest.frames_delivered > 0);
        assert!(latest.stage_means_ms.contains_key("mid"));
        // Snapshots are monotone in time and delivered count.
        let history = monitor.history();
        for pair in history.windows(2) {
            assert!(pair[1].at_ns >= pair[0].at_ns);
            assert!(pair[1].frames_delivered >= pair[0].frames_delivered);
        }
    }

    #[test]
    fn deploy_rejects_missing_module_include() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (_, services) = registries();
        let empty_modules = ModuleRegistry::new();
        let result =
            LocalRuntime::deploy(&plan, &empty_modules, &services, RuntimeConfig::default());
        assert!(result.is_err());
    }

    #[test]
    fn deploy_rejects_missing_service_image() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, _) = registries();
        let empty_services = ServiceRegistry::new();
        let result =
            LocalRuntime::deploy(&plan, &modules, &empty_services, RuntimeConfig::default());
        assert!(result.is_err());
    }

    #[test]
    fn deploy_validates_config_with_typed_errors() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let expect_invalid = |config: RuntimeConfig, field: &str| match LocalRuntime::deploy(
            &plan, &modules, &services, config,
        ) {
            Err(PipelineError::InvalidConfig { field: f, .. }) => {
                assert_eq!(f, field, "wrong field reported")
            }
            other => panic!("expected InvalidConfig({field}), got {other:?}"),
        };
        expect_invalid(
            RuntimeConfig {
                fps: 0.0,
                ..RuntimeConfig::default()
            },
            "fps",
        );
        expect_invalid(
            RuntimeConfig {
                fps: f64::NAN,
                ..RuntimeConfig::default()
            },
            "fps",
        );
        expect_invalid(
            RuntimeConfig {
                credits: 0,
                ..RuntimeConfig::default()
            },
            "credits",
        );
        expect_invalid(
            RuntimeConfig {
                batch: BatchConfig {
                    max_batch: 0,
                    max_wait: Duration::from_millis(2),
                },
                ..RuntimeConfig::default()
            },
            "batch.max_batch",
        );
        expect_invalid(
            RuntimeConfig::default().with_service_batch(
                "doubler",
                BatchConfig {
                    max_batch: 0,
                    max_wait: Duration::from_millis(2),
                },
            ),
            "service_batch",
        );
        // Inverted SLO bounds: p50 above p99.
        let mut slo = crate::slo::SloConfig::p99(Duration::from_millis(50));
        slo.slo.p50 = Some(Duration::from_millis(80));
        expect_invalid(RuntimeConfig::default().with_slo(slo), "slo");
        // Inverted hysteresis band.
        let mut slo = crate::slo::SloConfig::p99(Duration::from_millis(50));
        slo.relax_headroom = 2.0;
        expect_invalid(RuntimeConfig::default().with_slo(slo), "slo");
        // The typed error renders the field name for operators.
        let err = RuntimeConfig {
            credits: 0,
            ..RuntimeConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("credits"), "{err}");
    }

    #[test]
    fn slo_controller_degrades_overloaded_pipeline_and_logs_moves() {
        // 100 fps offered into a ~30 ms service with 4 credits: queueing
        // drives end-to-end p99 way past the 5 ms target, so the controller
        // must walk down its lattice and thin admission.
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Sleepy2));
        let mut slo = crate::slo::SloConfig::p99(Duration::from_millis(5))
            .with_interval(Duration::from_millis(120))
            .with_dwell(Duration::from_millis(120))
            .with_lattice(vec![
                crate::slo::Knob::CodecQuality { shift: 6 },
                crate::slo::Knob::SampleRate { divisor: 2 },
                crate::slo::Knob::SampleRate { divisor: 4 },
            ]);
        // The overloaded pipeline only delivers ~30 fps, so a 120 ms window
        // holds only a few frames; judge on 2+.
        slo.min_window = 2;
        let config = RuntimeConfig {
            fps: 100.0,
            credits: 4,
            slo: Some(slo),
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_for(Duration::from_millis(900));
        assert!(
            report.slo_level > 0,
            "controller never engaged: {:?}",
            report.logs
        );
        assert!(report.slo_moves >= 1);
        assert!(
            report.logs.iter().any(|l| l.starts_with("slo: step down")),
            "no controller log line: {:?}",
            report.logs
        );
        // Dwell 60 ms over a 900 ms run bounds the move rate.
        assert!(
            report.slo_moves <= 15,
            "dwell violated: {} moves",
            report.slo_moves
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// A service slow enough (~30 ms) to overload a 100 fps source.
    struct Sleepy2;
    impl Service for Sleepy2 {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            std::thread::sleep(Duration::from_millis(30));
            let n = match request.payload {
                Payload::Count(n) => n,
                _ => 0,
            };
            Ok(ServiceResponse::new(Payload::Count(n * 2)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn handler_errors_are_reported_not_fatal() {
        struct FailingMid;
        impl Module for FailingMid {
            fn on_event(
                &mut self,
                event: Event,
                _ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if matches!(event, Event::Message(_)) {
                    return Err(PipelineError::Module {
                        module: "mid".into(),
                        reason: "boom".into(),
                    });
                }
                Ok(())
            }
        }
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(FailingMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        let runtime = LocalRuntime::deploy(
            &plan,
            &modules,
            &services,
            RuntimeConfig {
                fps: 100.0,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let report = runtime.run_for(Duration::from_millis(300));
        assert!(!report.errors.is_empty());
        // The pipeline did not stall: multiple frames flowed (and errored).
        assert!(report.metrics.stages["mid"].count() > 1);
    }

    /// A service that sleeps longer than any reasonable test deadline.
    struct Sleepy;
    impl Service for Sleepy {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            _request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            std::thread::sleep(Duration::from_millis(80));
            Ok(ServiceResponse::new(Payload::Count(0)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    fn one_device() -> (Vec<DeviceSpec>, Placement) {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        (devices, placement)
    }

    #[test]
    fn service_call_deadline_is_configurable_and_typed() {
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Sleepy));
        let config = RuntimeConfig {
            fps: 50.0,
            resilience: ResilienceConfig {
                service_call_timeout: Duration::from_millis(10),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_for(Duration::from_millis(400));
        assert!(
            report.errors.iter().any(|e| e.contains("timed out")),
            "expected a typed timeout in {:?}",
            report.errors
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn retries_recover_transient_service_faults() {
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        // Every second request fails; one retry always succeeds.
        services.install(Arc::new(crate::service::ChaosService::new(
            Arc::new(Doubler),
            2,
        )));
        let config = RuntimeConfig {
            fps: 200.0,
            resilience: ResilienceConfig {
                retry: crate::resilience::RetryPolicy::exponential(
                    3,
                    Duration::from_millis(1),
                    Duration::from_millis(5),
                ),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(10, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn panicked_module_is_restarted_and_pipeline_survives() {
        struct PanickyMid {
            calls: u64,
        }
        impl Module for PanickyMid {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(msg) = event {
                    self.calls += 1;
                    if self.calls.is_multiple_of(3) {
                        panic!("injected module panic");
                    }
                    let Payload::FrameRef(id) = msg.payload else {
                        return Err(PipelineError::BadPayload("expected frame"));
                    };
                    ctx.frame_store().release(id);
                    ctx.call_module("sink", Payload::Count(1))?;
                }
                Ok(())
            }
        }
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(PanickyMid { calls: 0 }));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(10, Duration::from_secs(10));
        assert!(report.restarts >= 1, "no restarts recorded");
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(
            report.errors.iter().any(|e| e.contains("panicked")),
            "{:?}",
            report.errors
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// Middle module that fires a burst of uniquely-tagged requests per
    /// frame at the shared executor pool.
    struct BurstMid;
    impl Module for BurstMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                let base = ctx.frame_store().get(id)?.seq() * 100;
                for i in 0..6 {
                    let resp = ctx.call_service(
                        "doubler",
                        ServiceRequest::new("tag", Payload::Count(base + i)),
                    )?;
                    // The executor must answer *this* request, not a
                    // neighbour's.
                    assert!(matches!(resp.payload, Payload::Count(n) if n == base + i));
                }
                ctx.frame_store().release(id);
                ctx.call_module("sink", Payload::Count(1))?;
            }
            Ok(())
        }
    }

    /// Echo service that records every tag it executes.
    struct RecordingService {
        seen: Arc<Mutex<Vec<u64>>>,
    }
    impl Service for RecordingService {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            match request.payload {
                Payload::Count(n) => {
                    self.seen.lock().push(n);
                    Ok(ServiceResponse::new(Payload::Count(n)))
                }
                ref other => Err(crate::service::wrong_payload("doubler", "count", other)),
            }
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn executor_pool_drains_bursts_exactly_once() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(4)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(BurstMid));
        modules.register("TestSink", || Box::new(TestSink));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(RecordingService {
            seen: Arc::clone(&seen),
        }));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(12, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 12,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let mut tags = seen.lock().clone();
        assert!(tags.len() >= 6 * 12, "only {} executions", tags.len());
        let executed = tags.len();
        tags.sort_unstable();
        tags.dedup();
        // No tag executed twice: four competing executors on one MPMC
        // queue must not double-deliver...
        assert_eq!(tags.len(), executed, "a request was executed twice");
        // ...and the load actually spread across more than one executor.
        let busy_hosts = report
            .metrics
            .dispatch
            .get("one/doubler")
            .expect("dispatch stats");
        assert!(busy_hosts.requests as usize >= executed);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn executor_pool_survives_panicking_service() {
        // Every 5th request panics its executor's handler: supervision
        // converts the panic into a typed error, retries recover, and the
        // pool keeps draining — the chaos matrix extended to N competing
        // executors.
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(4)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(crate::service::ChaosService::panicking(
            Arc::new(Doubler),
            5,
        )));
        let config = RuntimeConfig {
            fps: 200.0,
            resilience: ResilienceConfig {
                retry: crate::resilience::RetryPolicy::exponential(
                    4,
                    Duration::from_millis(1),
                    Duration::from_millis(5),
                ),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(10, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn breaker_opens_during_outage_and_recovers() {
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        // Healthy for 150ms, hard down for 200ms, healthy again.
        services.install(Arc::new(crate::service::ChaosService::outage(
            Arc::new(Doubler),
            Duration::from_millis(150),
            Duration::from_millis(200),
        )));
        let config = RuntimeConfig {
            fps: 200.0,
            resilience: ResilienceConfig {
                breaker_failure_threshold: 3,
                breaker_cooldown: Duration::from_millis(40),
                degradation: DegradationPolicy::LastKnownGood,
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_for(Duration::from_millis(700));
        let breaker = report
            .breakers
            .get("doubler")
            .expect("breaker snapshot for doubler");
        assert!(breaker.opened >= 1, "breaker never opened: {breaker:?}");
        assert!(
            breaker.reclosed >= 1,
            "breaker never recovered half-open -> closed: {breaker:?}"
        );
        assert!(report.metrics.frames_delivered > 0);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// Middle module that sends a corrupt encoded frame to the service and
    /// expects a *fast typed* rejection, not a deadline timeout.
    struct CorruptFrameMid;
    impl Module for CorruptFrameMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                if let Payload::FrameRef(id) = msg.payload {
                    ctx.frame_store().release(id);
                }
                let result = ctx.call_service(
                    "doubler",
                    ServiceRequest::new(
                        "eat",
                        Payload::EncodedFrame(bytes::Bytes::from_static(b"not a frame")),
                    ),
                );
                match result {
                    Err(PipelineError::Service { reason, .. }) if reason.contains("decode") => {
                        ctx.log("corrupt frame rejected");
                    }
                    other => panic!("expected a typed decode error, got {other:?}"),
                }
                ctx.call_module("sink", Payload::Count(1))?;
            }
            Ok(())
        }
    }

    #[test]
    fn corrupt_encoded_frame_gets_a_typed_error_reply() {
        // Regression: the executor used to log the decode failure and
        // `continue`, leaving the caller to burn its full call deadline.
        // Now every undecodable slot answers with a typed error payload —
        // the pipeline below only makes progress if those replies arrive
        // promptly (the default call deadline is far beyond the test
        // budget).
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(CorruptFrameMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(FrameEater));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(5, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 5,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(
            report
                .logs
                .iter()
                .any(|l| l.contains("corrupt frame rejected")),
            "{:?}",
            report.logs
        );
        // The executor still records the root cause for diagnostics.
        assert!(
            report
                .errors
                .iter()
                .any(|e| e.contains("frame decode failed")),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn heartbeat_loss_is_detected_and_fences_the_epoch() {
        let devices = vec![
            DeviceSpec::new("phone", 1.0)
                .with_containers(1)
                .with_service("doubler"),
            DeviceSpec::new("desktop", 2.0),
        ];
        // All modules and the service live on the phone: the desktop only
        // heartbeats, so losing it fences in-flight work without stalling
        // the new epoch's traffic.
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            heartbeats: Some(HealthConfig {
                heartbeat_interval: Duration::from_millis(20),
                lease: Duration::from_millis(60),
                suspicion_threshold: 1,
                confirmation_threshold: 2,
            }),
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.deliveries() < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(runtime.device_status("desktop"), Some(DeviceStatus::Alive));
        assert_eq!(runtime.fence_epoch(), 0);
        assert!(runtime.inject_heartbeat_loss("desktop"));
        while runtime.fence_epoch() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(runtime.device_status("desktop"), Some(DeviceStatus::Dead));
        assert_eq!(runtime.device_status("phone"), Some(DeviceStatus::Alive));
        // New-epoch frames keep flowing after the fence.
        let before = runtime.deliveries();
        while runtime.deliveries() < before + 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = runtime.finish();
        assert_eq!(report.fence_epoch, 1);
        assert!(
            report
                .device_statuses
                .iter()
                .any(|(d, s)| d == "desktop" && *s == DeviceStatus::Dead),
            "{:?}",
            report.device_statuses
        );
        assert!(
            report.logs.iter().any(|l| l.contains("confirmed dead")),
            "{:?}",
            report.logs
        );
        assert!(
            report.metrics.frames_delivered >= before + 5,
            "post-fence deliveries stalled: {} vs {before}",
            report.metrics.frames_delivered
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// Sink that tallies frames, checkpoints the tally, and panics once.
    struct CheckpointedTally {
        count: u64,
        resumed_from: Option<u64>,
        poisoned: Arc<AtomicBool>,
    }
    impl Module for CheckpointedTally {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(_) = event {
                if let Some(n) = self.resumed_from.take() {
                    ctx.log(&format!("resumed from {n}"));
                }
                self.count += 1;
                if self.count == 5 && !self.poisoned.swap(true, Ordering::SeqCst) {
                    panic!("tally poisoned at 5");
                }
                ctx.log(&format!("tally {}", self.count));
                ctx.signal_source()?;
            }
            Ok(())
        }
        fn snapshot(&self) -> Option<Vec<u8>> {
            Some(self.count.to_be_bytes().to_vec())
        }
        fn restore(&mut self, snapshot: &[u8]) {
            if let Ok(bytes) = <[u8; 8]>::try_from(snapshot) {
                self.count = u64::from_be_bytes(bytes);
                self.resumed_from = Some(self.count);
            }
        }
    }

    #[test]
    fn panicked_module_resumes_from_its_checkpoint() {
        let spec = PipelineSpec::new("ckpt")
            .with_module(ModuleSpec::new("src", "TestSource").with_next("mid"))
            .with_module(ModuleSpec::new("mid", "Tally"));
        let devices = vec![DeviceSpec::new("one", 1.0)];
        let placement = Placement::new().assign("src", "one").assign("mid", "one");
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        let poisoned = Arc::new(AtomicBool::new(false));
        let poisoned2 = Arc::clone(&poisoned);
        modules.register("Tally", move || {
            Box::new(CheckpointedTally {
                count: 0,
                resumed_from: None,
                poisoned: Arc::clone(&poisoned2),
            })
        });
        let services = ServiceRegistry::new();
        let config = RuntimeConfig {
            fps: 100.0,
            checkpoint_period: Some(Duration::from_millis(20)),
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let report = runtime.run_until_deliveries(12, Duration::from_secs(10));
        assert_eq!(report.restarts, 1, "{:?}", report.errors);
        let resumed: u64 = report
            .logs
            .iter()
            .find_map(|l| {
                l.strip_prefix("mid: resumed from ")
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or_else(|| panic!("no resume log in {:?}", report.logs));
        assert!(
            resumed >= 1,
            "restored checkpoint should carry progress, got {resumed}"
        );
        let max_tally: u64 = report
            .logs
            .iter()
            .filter_map(|l| l.strip_prefix("mid: tally ").and_then(|n| n.parse().ok()))
            .max()
            .unwrap();
        assert!(
            max_tally > resumed,
            "tally did not advance past the restored value {resumed}"
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// Drives `service_executor_loop` directly against a preloaded queue.
    fn bare_shared(config: RuntimeConfig) -> (Arc<Shared>, InprocHub) {
        let hub = InprocHub::new();
        let mut stores = HashMap::new();
        stores.insert("one".to_string(), Arc::new(FrameStore::new()));
        let shared = Arc::new(Shared {
            hub: hub.clone(),
            router: Router::inproc(hub.clone()),
            stores,
            metrics: Mutex::new(PipelineMetrics::new()),
            logs: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            deliveries: AtomicU64::new(0),
            config,
            breakers: Mutex::new(HashMap::new()),
            restarts: AtomicU64::new(0),
            fence_epoch: AtomicU64::new(0),
            detector: Mutex::new(None),
            checkpoints: Mutex::new(HashMap::new()),
            muted_heartbeats: Mutex::new(HashSet::new()),
            knobs: KnobActuators::baseline(),
            gate: ShutdownGate::new(),
        });
        (shared, hub)
    }

    #[test]
    fn saturated_executor_batches_and_samples_depth_before_draining() {
        let config = RuntimeConfig {
            batch: BatchConfig::up_to(8),
            ..RuntimeConfig::default()
        };
        let (shared, hub) = bare_shared(config);
        let channel = svc_chan("one", "doubler");
        let inbox = hub.bind(&channel).unwrap();
        let reply_rx = hub.bind("rpl/test/driver").unwrap();
        // Preload a burst of six requests before the executor starts: the
        // whole burst must come back as one (or few) batches, and the
        // queue-depth gauge must see the backlog even though the drain
        // empties the queue immediately after.
        let tx = hub.connect(&channel).unwrap();
        for i in 0..6u64 {
            tx.send(WireMessage::request(
                channel.clone(),
                "rpl/test/driver".to_string(),
                i,
                ServiceRequest::new("double", Payload::Count(i)).encode(),
            ))
            .unwrap();
        }
        let loop_shared = Arc::clone(&shared);
        let executor = std::thread::spawn(move || {
            service_executor_loop(
                loop_shared,
                inbox,
                Arc::new(Doubler),
                "one".to_string(),
                1.0,
            )
        });
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.len() < 6 && Instant::now() < deadline {
            if let Ok(msg) = reply_rx.recv_timeout(POLL) {
                assert_eq!(msg.kind, MessageKind::Response);
                let resp = ServiceResponse::decode(&msg.payload).unwrap();
                assert_eq!(resp.payload, Payload::Count(msg.corr_id * 2));
                seen.push(msg.corr_id);
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        executor.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        let metrics = shared.metrics.lock();
        let dispatch = metrics.dispatch.get("one/doubler").expect("dispatch stats");
        assert_eq!(dispatch.requests, 6);
        assert!(
            dispatch.batches < dispatch.requests,
            "burst never batched: {dispatch:?}"
        );
        assert!(dispatch.max_batch >= 2, "{dispatch:?}");
        // Five requests were queued behind the leader when it was dequeued.
        assert!(
            dispatch.max_queue_depth >= 5,
            "depth sampled after the drain: {dispatch:?}"
        );
    }

    #[test]
    fn batching_keeps_the_remote_encode_cache_exact() {
        // Satellite of the batching PR: distinct frames fanned out to a
        // *remote* batched service must still hit the per-(frame, quality)
        // encode cache exactly once each — batching changes how requests
        // are drained, never how often the codec runs.
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(FanoutMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(FrameEater));
        let config = RuntimeConfig {
            fps: 200.0,
            batch: BatchConfig::up_to(4),
            ..RuntimeConfig::default()
        }
        .with_service_batch("doubler", BatchConfig::up_to(4));
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.deliveries() < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = runtime
            .frame_store_stats("phone")
            .expect("phone frame store");
        let report = runtime.finish();
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // Two remote calls per frame, one codec run per frame.
        assert!(
            stats.encode_hits >= 10,
            "expected >=10 encode-cache hits, got {stats:?}"
        );
        assert!(
            stats.encode_misses <= stats.inserted,
            "at most one encode per frame: {stats:?}"
        );
        let dispatch = report
            .metrics
            .dispatch
            .get("desktop/doubler")
            .expect("dispatch stats");
        assert!(dispatch.batches >= 1 && dispatch.batches <= dispatch.requests);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn teardown_wakes_interval_parked_watchers_promptly() {
        // Watchers park for their FULL interval on the shutdown gate. With
        // multi-second heartbeat/SLO/telemetry intervals, a teardown that
        // merely set the stop flag would block finish() for seconds; the
        // gate must wake them in milliseconds.
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let long = Duration::from_secs(30);
        let config = RuntimeConfig {
            fps: 100.0,
            telemetry_interval: Some(long),
            heartbeats: Some(HealthConfig {
                heartbeat_interval: long,
                lease: long * 4,
                ..HealthConfig::default()
            }),
            slo: Some(crate::slo::SloConfig::p99(Duration::from_millis(100)).with_interval(long)),
            ..RuntimeConfig::default()
        };
        let runtime = LocalRuntime::deploy(&plan, &modules, &services, config).unwrap();
        // Let the pipeline actually move before tearing it down.
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.deliveries() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let started = Instant::now();
        let report = runtime.finish();
        let teardown = started.elapsed();
        assert!(report.metrics.frames_delivered >= 3);
        assert!(
            teardown < Duration::from_secs(1),
            "teardown took {teardown:?} with 30 s watcher intervals"
        );
    }

    #[test]
    fn shutdown_gate_wakes_waiters_early() {
        let gate = Arc::new(ShutdownGate::new());
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            assert!(g.wait_shutdown(Duration::from_secs(60)), "spurious expiry");
            started.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        gate.trigger();
        let waited = waiter.join().unwrap();
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
        // Once triggered, later waits return immediately.
        let started = Instant::now();
        assert!(gate.wait_shutdown(Duration::from_secs(60)));
        assert!(started.elapsed() < Duration::from_millis(100));
    }
}
