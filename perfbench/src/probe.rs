//! Outside-in instrumentation: decorators around the public `Module`,
//! `ModuleCtx` and `Service` traits.
//!
//! Every module of a benchmarked pipeline is wrapped in a [`ProbedModule`].
//! In [`Mode::Latency`] the wrapper only intercepts the sink's
//! `signal_source()` to take one exact end-to-end sample per frame. In
//! [`Mode::Trace`] it also records a span for every `on_event`,
//! `call_service`, `call_module` and `signal_source`, and services are
//! wrapped in a [`ProbedService`] that records `handle`/`handle_batch`.
//! Spans live in memory in a [`Recorder`] and are written out after the
//! run. Nothing inside the runtime is touched; whatever it does between
//! two wrapped calls (decode, queueing, wakes) shows up as a gap.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use videopipe_core::deploy::DeploymentPlan;
use videopipe_core::message::{Header, Payload};
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::service::{
    Service, ServiceCost, ServiceRegistry, ServiceRequest, ServiceResponse,
};
use videopipe_core::PipelineError;
use videopipe_media::{FrameStore, FrameStoreStats};

/// Nanoseconds on the benchmark's own monotonic clock (one epoch per
/// process, shared by every thread).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Module::on_event`; `source` marks the pipeline's source module.
    Event {
        /// Whether the module is the pipeline's source.
        source: bool,
    },
    /// `ModuleCtx::call_service`.
    CallService,
    /// `ModuleCtx::call_module`; `cross` marks an edge between devices.
    CallModule {
        /// Whether the edge crosses devices.
        cross: bool,
    },
    /// `ModuleCtx::signal_source`; `sink` marks the pipeline's sink.
    Signal {
        /// Whether the signalling module is the pipeline's sink.
        sink: bool,
    },
    /// `Service::handle` or `Service::handle_batch`.
    Handle,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Event { source: true } => "source_event",
            Kind::Event { source: false } => "event",
            Kind::CallService => "call_service",
            Kind::CallModule { cross: true } => "call_module_cross",
            Kind::CallModule { cross: false } => "call_module",
            Kind::Signal { sink: true } => "sink_signal",
            Kind::Signal { sink: false } => "signal",
            Kind::Handle => "handle",
        }
    }
}

/// One timed call. Spans of one frame share `(pipeline, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Pipeline id (as returned by `add_pipeline`).
    pub pipeline: u32,
    /// The frame's `Header::frame_seq`.
    pub seq: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a module's `on_event`.
    pub parent: u64,
    /// What was measured.
    pub kind: Kind,
    /// Interned name: the module for `Event`/`Signal`, the service for
    /// `CallService`/`Handle`, the target module for `CallModule`.
    pub name: u32,
    /// Start, on [`now_ns`]'s clock.
    pub start: u64,
    /// End, on [`now_ns`]'s clock.
    pub end: u64,
    /// Source `Event`: admission lag (pacer stamp → `on_event` start).
    /// Sink `Signal`: end-to-end latency. Both read on the pipeline clock
    /// through `ModuleCtx::now_ns`. Zero otherwise.
    pub aux: u64,
}

/// In-memory span store shared by every probe of a run.
#[derive(Debug, Default)]
pub struct Recorder {
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    names: Mutex<(Vec<String>, HashMap<String, u32>)>,
}

impl Recorder {
    /// Starts or stops recording; spans are only kept while it is on.
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&self, name: &str) -> u32 {
        let mut guard = self.names.lock().expect("name table lock");
        let (list, index) = &mut *guard;
        if let Some(&id) = index.get(name) {
            return id;
        }
        let id = list.len() as u32;
        list.push(name.to_string());
        index.insert(name.to_string(), id);
        id
    }

    /// Takes every recorded span out of the store.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }

    /// Writes `spans` as tab-separated lines with a header row.
    pub fn write_tsv(&self, spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(
            out,
            "pipeline\tseq\tid\tparent\tkind\tname\tstart_ns\tend_ns\taux_ns"
        )?;
        let names = self.names.lock().expect("name table lock").0.clone();
        for s in spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.pipeline,
                s.seq,
                s.id,
                s.parent,
                s.kind.label(),
                names[s.name as usize],
                s.start,
                s.end,
                s.aux
            )?;
        }
        Ok(())
    }
}

/// How much a probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Only the end-to-end sample at the sink.
    Latency,
    /// Spans for one frame in every `sample_every` (per pipeline, by
    /// `frame_seq`), plus the end-to-end sample for every frame.
    Trace {
        /// Sampling stride (1 = every frame).
        sample_every: u64,
    },
}

/// End-to-end latencies of the frames delivered while a measurement window
/// is open, filed by one-second slice as they arrive. Samples are `u32` ns
/// (saturating at 4.29 s), nothing is kept outside a window, and a closed
/// slice is trimmed to its length, so the benchmark's own share of the
/// resident set stays small and fixed for a given window length.
#[derive(Debug, Default)]
pub struct Window {
    /// `None` while closed; the last slice is the one being filled.
    slices: Mutex<Option<Vec<Vec<u32>>>>,
}

impl Window {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Vec<Vec<u32>>>> {
        self.slices.lock().expect("sample window lock")
    }

    /// Opens the window with an empty first slice.
    pub fn open(&self) {
        *self.lock() = Some(vec![Vec::new()]);
    }

    /// Closes the current slice and starts the next one.
    pub fn next_slice(&self) {
        if let Some(slices) = self.lock().as_mut() {
            if let Some(last) = slices.last_mut() {
                last.shrink_to_fit();
            }
            slices.push(Vec::new());
        }
    }

    /// Closes the window, returning every closed slice (the one still
    /// being filled is dropped).
    pub fn close(&self) -> Vec<Vec<u32>> {
        let mut slices = self.lock().take().unwrap_or_default();
        slices.pop();
        slices
    }

    /// Samples in each closed slice.
    pub fn counts(&self) -> Vec<usize> {
        self.lock().as_ref().map_or(Vec::new(), |slices| {
            let closed = slices.len().saturating_sub(1);
            slices[..closed].iter().map(Vec::len).collect()
        })
    }

    /// Bytes the samples occupy right now.
    pub fn bytes(&self) -> usize {
        self.lock().as_ref().map_or(0, |slices| {
            slices
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<u32>())
                .sum()
        })
    }

    fn record(&self, latency_ns: u64) {
        if let Some(slice) = self.lock().as_mut().and_then(|s| s.last_mut()) {
            slice.push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
        }
    }
}

/// Static facts about one module of the plan.
#[derive(Debug)]
struct ModuleInfo {
    name: u32,
    source: bool,
    sink: bool,
    /// Downstream module → (interned name, edge crosses devices).
    targets: HashMap<String, (u32, bool)>,
}

/// Links a `call_service` span to the `handle` span it causes. One module
/// calls each service, one request at a time, so a single open call per
/// (pipeline, service) is unambiguous.
#[derive(Debug, Default)]
struct CallSlot {
    open: Mutex<Option<(u64, u64)>>,
}

/// Per-pipeline probe state shared by its module and service wrappers.
#[derive(Debug)]
pub struct PipelineProbe {
    /// Pipeline id (as returned by `add_pipeline`).
    pipeline: u32,
    mode: Mode,
    recorder: Arc<Recorder>,
    modules: HashMap<String, Arc<ModuleInfo>>,
    slots: HashMap<String, Arc<CallSlot>>,
    window: Arc<Window>,
    /// Capture stamps of the first and the latest frame at the sink.
    first_capture: AtomicU64,
    last_capture: AtomicU64,
    early_exits: AtomicU64,
    /// Per device: frame-store counters at the first and the latest
    /// traced event.
    store_stats: Mutex<BTreeMap<String, (FrameStoreStats, FrameStoreStats)>>,
}

impl PipelineProbe {
    /// Builds the probe for pipeline `pipeline` deployed from `plan`.
    pub fn new(
        pipeline: u32,
        plan: &DeploymentPlan,
        mode: Mode,
        recorder: Arc<Recorder>,
        window: Arc<Window>,
    ) -> Self {
        let sources: Vec<&str> = plan
            .pipeline
            .sources()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let modules = plan
            .pipeline
            .modules
            .iter()
            .map(|m| {
                let targets = m
                    .next_modules
                    .iter()
                    .map(|to| {
                        let cross = plan
                            .edges
                            .iter()
                            .any(|e| e.from == m.name && &e.to == to && e.cross_device);
                        (to.clone(), (recorder.intern(to), cross))
                    })
                    .collect();
                let info = ModuleInfo {
                    name: recorder.intern(&m.name),
                    source: sources.contains(&m.name.as_str()),
                    sink: m.next_modules.is_empty(),
                    targets,
                };
                (m.name.clone(), Arc::new(info))
            })
            .collect();
        let slots = plan
            .service_bindings
            .iter()
            .map(|b| (b.service.clone(), Arc::default()))
            .collect();
        PipelineProbe {
            pipeline,
            mode,
            recorder,
            modules,
            slots,
            window,
            first_capture: AtomicU64::new(u64::MAX),
            last_capture: AtomicU64::new(0),
            early_exits: AtomicU64::new(0),
            store_stats: Mutex::new(BTreeMap::new()),
        }
    }

    fn traces(&self, seq: u64) -> bool {
        match self.mode {
            Mode::Latency => false,
            Mode::Trace { sample_every } => {
                (seq + u64::from(self.pipeline)).is_multiple_of(sample_every.max(1))
                    && self.recorder.recording()
            }
        }
    }

    /// Capture time of the latest frame at the sink minus that of the
    /// first, on the pipeline clock; `None` before two frames arrived.
    pub fn capture_span_ns(&self) -> Option<u64> {
        let first = self.first_capture.load(Ordering::Relaxed);
        let last = self.last_capture.load(Ordering::Relaxed);
        (first < last).then(|| last - first)
    }

    /// Frames that signalled the source from a module other than the sink
    /// (they left the pipeline without producing output).
    pub fn early_exits(&self) -> u64 {
        self.early_exits.load(Ordering::Relaxed)
    }

    /// Encode-cache `(hits, misses)` over the traced events, summed over
    /// devices.
    pub fn encode_counts(&self) -> (u64, u64) {
        let stats = self.store_stats.lock().expect("store stats lock");
        stats.values().fold((0, 0), |(h, m), (first, last)| {
            (
                h + last.encode_hits - first.encode_hits,
                m + last.encode_misses - first.encode_misses,
            )
        })
    }

    /// Wraps every module factory of `modules` in a [`ProbedModule`].
    pub fn wrap_modules(self: &Arc<Self>, modules: &ModuleRegistry) -> ModuleRegistry {
        let mut out = ModuleRegistry::new();
        for name in modules.names() {
            let factory = modules.factory(name).expect("listed name has a factory");
            let probe = Arc::clone(self);
            out.register(name, move || {
                Box::new(ProbedModule {
                    inner: factory(),
                    probe: Arc::clone(&probe),
                    info: None,
                })
            });
        }
        out
    }

    /// Wraps every service of `services` in a [`ProbedService`] in
    /// [`Mode::Trace`]; returns them unwrapped otherwise.
    pub fn wrap_services(self: &Arc<Self>, services: &ServiceRegistry) -> ServiceRegistry {
        let mut out = ServiceRegistry::new();
        for name in services.names() {
            let inner = services.get(name).expect("listed name is installed");
            if self.mode == Mode::Latency {
                out.install(inner);
                continue;
            }
            out.install(Arc::new(ProbedService {
                name: self.recorder.intern(name),
                slot: self.slots.get(name).cloned().unwrap_or_default(),
                probe: Arc::clone(self),
                inner,
            }));
        }
        out
    }

    /// A span of this pipeline's frame `seq`, still to be timed.
    fn span(&self, seq: u64, id: u64, parent: u64, kind: Kind, name: u32) -> Span {
        Span {
            pipeline: self.pipeline,
            seq,
            id,
            parent,
            kind,
            name,
            start: 0,
            end: 0,
            aux: 0,
        }
    }
}

/// A module decorator: forwards everything to the wrapped module through a
/// [`ProbeCtx`].
pub struct ProbedModule {
    inner: Box<dyn Module>,
    probe: Arc<PipelineProbe>,
    /// Resolved on the first event from `ModuleCtx::module_name`.
    info: Option<Arc<ModuleInfo>>,
}

impl Module for ProbedModule {
    fn init(&mut self, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        self.inner.init(ctx)
    }

    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let probe = &*self.probe;
        let info: &ModuleInfo = self.info.get_or_insert_with(|| {
            Arc::clone(
                probe
                    .modules
                    .get(ctx.module_name())
                    .expect("wrapped module is part of the plan"),
            )
        });
        let header = ctx.header();
        if !probe.traces(header.frame_seq) {
            let mut pctx = ProbeCtx {
                inner: &mut *ctx,
                probe,
                info,
                span: None,
            };
            return self.inner.on_event(event, &mut pctx);
        }
        let start = now_ns();
        let aux = match event {
            Event::FrameTick { t_ns } => ctx.now_ns().saturating_sub(t_ns),
            _ => 0,
        };
        let id = probe.recorder.next_id();
        let mut pctx = ProbeCtx {
            inner: &mut *ctx,
            probe,
            info,
            span: Some(id),
        };
        let result = self.inner.on_event(event, &mut pctx);
        let mut span = probe.span(
            header.frame_seq,
            id,
            0,
            Kind::Event {
                source: info.source,
            },
            info.name,
        );
        span.start = start;
        span.end = now_ns();
        span.aux = aux;
        probe.recorder.push(span);
        let stats = ctx.frame_store().stats();
        probe
            .store_stats
            .lock()
            .expect("store stats lock")
            .entry(ctx.device_name().to_string())
            .or_insert((stats, stats))
            .1 = stats;
        result
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.inner.restore(snapshot);
    }
}

/// The context handed to a wrapped module: times the three calls that
/// leave the module and delegates everything else.
struct ProbeCtx<'a> {
    inner: &'a mut dyn ModuleCtx,
    probe: &'a PipelineProbe,
    info: &'a ModuleInfo,
    /// The enclosing `on_event` span when this frame is traced.
    span: Option<u64>,
}

impl ProbeCtx<'_> {
    /// Runs `call` inside a child span of the traced `on_event`.
    fn timed<T>(&mut self, kind: Kind, name: u32, call: impl FnOnce(&mut Self, u64) -> T) -> T {
        let parent = self.span.expect("timed calls run inside a traced event");
        let id = self.probe.recorder.next_id();
        let start = now_ns();
        let out = call(self, id);
        let seq = self.inner.header().frame_seq;
        let mut span = self.probe.span(seq, id, parent, kind, name);
        span.start = start;
        span.end = now_ns();
        self.probe.recorder.push(span);
        out
    }
}

impl ModuleCtx for ProbeCtx<'_> {
    fn call_service(
        &mut self,
        service: &str,
        request: ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError> {
        if self.span.is_none() {
            return self.inner.call_service(service, request);
        }
        let name = self.probe.recorder.intern(service);
        let slot = self.probe.slots.get(service).cloned();
        self.timed(Kind::CallService, name, |ctx, id| {
            let seq = ctx.inner.header().frame_seq;
            if let Some(slot) = &slot {
                *slot.open.lock().expect("call slot lock") = Some((seq, id));
            }
            let result = ctx.inner.call_service(service, request);
            if let Some(slot) = &slot {
                *slot.open.lock().expect("call slot lock") = None;
            }
            result
        })
    }

    fn call_module(&mut self, target: &str, payload: Payload) -> Result<(), PipelineError> {
        if self.span.is_none() {
            return self.inner.call_module(target, payload);
        }
        let Some(&(name, cross)) = self.info.targets.get(target) else {
            // Not an edge of the plan: let the runtime report it.
            return self.inner.call_module(target, payload);
        };
        self.timed(Kind::CallModule { cross }, name, |ctx, _| {
            ctx.inner.call_module(target, payload)
        })
    }

    fn signal_source(&mut self) -> Result<(), PipelineError> {
        // The end-to-end reading and the span start are one instant: the
        // moment the frame's credit heads back to the source.
        let start = now_ns();
        let sink = self.info.sink;
        let mut e2e = 0;
        if sink {
            let captured = self.inner.header().capture_ts_ns;
            e2e = self.inner.now_ns().saturating_sub(captured);
            self.probe.window.record(e2e);
            self.probe
                .first_capture
                .fetch_min(captured, Ordering::Relaxed);
            self.probe
                .last_capture
                .fetch_max(captured, Ordering::Relaxed);
        } else {
            self.probe.early_exits.fetch_add(1, Ordering::Relaxed);
        }
        let Some(parent) = self.span else {
            return self.inner.signal_source();
        };
        let id = self.probe.recorder.next_id();
        let result = self.inner.signal_source();
        let mut span = self.probe.span(
            self.inner.header().frame_seq,
            id,
            parent,
            Kind::Signal { sink },
            self.info.name,
        );
        span.start = start;
        span.end = now_ns();
        span.aux = e2e;
        self.probe.recorder.push(span);
        result
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn module_name(&self) -> &str {
        self.inner.module_name()
    }

    fn device_name(&self) -> &str {
        self.inner.device_name()
    }

    fn frame_store(&self) -> &FrameStore {
        self.inner.frame_store()
    }

    fn header(&self) -> Header {
        self.inner.header()
    }

    fn set_header(&mut self, header: Header) {
        self.inner.set_header(header);
    }

    fn log(&mut self, text: &str) {
        self.inner.log(text);
    }
}

/// A service decorator recording one `Handle` span per `handle` or
/// `handle_batch` call, parented to the open `call_service` span.
pub struct ProbedService {
    inner: Arc<dyn Service>,
    name: u32,
    slot: Arc<CallSlot>,
    probe: Arc<PipelineProbe>,
}

impl ProbedService {
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let open = *self.slot.open.lock().expect("call slot lock");
        let Some((seq, parent)) = open else {
            return call();
        };
        let id = self.probe.recorder.next_id();
        let start = now_ns();
        let out = call();
        let mut span = self.probe.span(seq, id, parent, Kind::Handle, self.name);
        span.start = start;
        span.end = now_ns();
        self.probe.recorder.push(span);
        out
    }
}

impl Service for ProbedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        self.timed(|| self.inner.handle(request, store))
    }

    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        self.timed(|| self.inner.handle_batch(requests, store))
    }

    fn cost(&self, request: &ServiceRequest) -> ServiceCost {
        self.inner.cost(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_files_samples_by_slice_and_keeps_nothing_while_closed() {
        let window = Window::default();
        window.record(7);
        window.open();
        window.record(1);
        window.record(2);
        window.next_slice();
        window.record(u64::MAX);
        window.next_slice();
        window.record(3);
        assert_eq!(window.counts(), vec![2, 1]);
        assert!(window.bytes() >= 4 * std::mem::size_of::<u32>());
        // The slice still being filled when the window closes is dropped.
        assert_eq!(window.close(), vec![vec![1, 2], vec![u32::MAX]]);
        window.record(4);
        assert_eq!(window.bytes(), 0);
        assert!(window.close().is_empty());
    }
}
