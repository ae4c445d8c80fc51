//! The three workloads: how each is deployed on a `ReactorRuntime`, how a
//! measurement window is taken, and how outputs are checked.

use crate::fleet::{self, FleetChecks};
use crate::probe::{self, Mode, PipelineProbe, Recorder, Window};
use crate::procfs;
use crate::stats;
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_apps::fitness;
use videopipe_core::deploy::DeploymentPlan;
use videopipe_core::metrics::WorkerSchedStats;
use videopipe_core::module::ModuleRegistry;
use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::runtime::{EdgeTransport, RunReport, RuntimeConfig};
use videopipe_core::service::ServiceRegistry;
use videopipe_core::PipelineError;
use videopipe_media::motion::ExerciseKind;
use videopipe_ml::features::WINDOW_LEN;
use videopipe_net::telemetry::{self as net_telemetry, NetCounters};

/// Camera rate of each fitness pipeline: the rate the app's activity
/// classifier is trained at. The app's pose and rep windows count frames
/// (15 poses, a 30-pose rep calibration), so it labels and counts
/// correctly only at this rate.
pub const FITNESS_FPS: f64 = 15.0;
/// Pipelines (users, each with a camera) on the `fitness` reactor:
/// 240 frames/s in all, about half of what a 2-vCPU runner sustains. (With
/// 8 the runner idles most of the time, and CPU per frame and latency
/// swung more from run to run.)
pub const FITNESS_PIPELINES: u64 = 16;
/// Pipelines on the `fitness_tcp` reactor: 120 frames/s. (With 16, frames
/// queued on the TCP path and its p50 and p90 swung by a third from run to
/// run.)
pub const FITNESS_TCP_PIPELINES: u64 = 8;
/// Pipelines on the fleet workload's reactor.
pub const FLEET_PIPELINES: u64 = 2_000;
/// Camera rate of each fleet pipeline.
pub const FLEET_FPS: f64 = 20.0;
/// Rep period of the fitness clip (`fitness::module_registry`).
const REP_PERIOD_S: f64 = 2.0;
/// Calm set-ups timed per run, each in a fresh process; `setup_s` is
/// their median.
pub const SETUP_RUNS: usize = 21;
/// Set-ups a run makes at most while too few of them are calm.
pub const MAX_SETUP_RUNS: usize = 3 * SETUP_RUNS;
/// Warm-up before every measurement window (excluded from timing).
const WARMUP: Duration = Duration::from_secs(1);
/// A window short of frames grows to at most this many seconds (or
/// `--seconds`, if longer) before the run gives up.
const MAX_WINDOW_S: u64 = 60;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 4 fitness pipeline, in-process edges.
    Fitness,
    /// The same pipeline with loopback TCP between devices.
    FitnessTcp,
    /// 2,000 light `src → work → sink` pipelines on one reactor.
    Fleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fitness, Workload::FitnessTcp, Workload::Fleet];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fitness => "fitness",
            Workload::FitnessTcp => "fitness_tcp",
            Workload::Fleet => "fleet",
        }
    }

    /// Camera rate of each pipeline and the number of pipelines.
    fn offered(self) -> (f64, u64) {
        match self {
            Workload::Fitness => (FITNESS_FPS, FITNESS_PIPELINES),
            Workload::FitnessTcp => (FITNESS_FPS, FITNESS_TCP_PIPELINES),
            Workload::Fleet => (FLEET_FPS, FLEET_PIPELINES),
        }
    }

    /// Frame periods over which [`Pace::Spread`] adds the pipelines. The
    /// fleet takes two, so that `add_pipeline` fits in the gap on any
    /// runner this benchmark targets (pipelines `i` and `i + 1000` then
    /// share a phase); the few fitness pipelines get a phase each.
    fn spread_periods(self) -> f64 {
        match self {
            Workload::Fitness | Workload::FitnessTcp => 1.0,
            Workload::Fleet => 2.0,
        }
    }

    /// Traced runs record one frame in this many per pipeline.
    pub fn trace_sample_every(self) -> u64 {
        match self {
            Workload::Fitness | Workload::FitnessTcp => 1,
            Workload::Fleet => 16,
        }
    }
}

/// A workload deployed and delivering frames.
pub struct Deployment {
    workload: Workload,
    rt: ReactorRuntime,
    probes: Vec<Arc<PipelineProbe>>,
    window: Arc<Window>,
    fleet_checks: Option<Arc<FleetChecks>>,
    /// Log and error lines taken out of each pipeline by mid-run
    /// `report_for` calls (which drain them), kept for the output checks.
    drained: Vec<(Vec<String>, Vec<String>)>,
    /// Registries built, every pipeline added, first frame delivered.
    pub setup_s: f64,
}

fn deploy_error(e: PipelineError) -> String {
    format!("deploy failed: {e}")
}

/// How [`deploy`] adds the fleet's pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Back to back, as fast as `add_pipeline` returns (set-up timing).
    Burst,
    /// Evenly over [`Workload::spread_periods`] frame periods. A pacer's
    /// first tick is its deploy instant, so this spreads the camera phases
    /// evenly over the frame period, whatever the speed of `add_pipeline`.
    Spread,
}

/// One pipeline ready to add: its plan, wrapped registries and probe.
struct Staged {
    plan: DeploymentPlan,
    modules: ModuleRegistry,
    services: ServiceRegistry,
    config: RuntimeConfig,
    probe: Arc<PipelineProbe>,
}

impl Staged {
    fn new(
        probe: Arc<PipelineProbe>,
        plan: DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        config: RuntimeConfig,
    ) -> Self {
        Staged {
            modules: probe.wrap_modules(modules),
            services: probe.wrap_services(services),
            plan,
            config,
            probe,
        }
    }
}

/// Builds every pipeline's registries and plan, starts the runtime, adds
/// the pipelines and waits for the first delivered frame; with
/// [`Pace::Burst`] that whole span is the set-up time.
pub fn deploy(
    workload: Workload,
    seed: u64,
    mode: Mode,
    pace: Pace,
    recorder: &Arc<Recorder>,
) -> Result<Deployment, String> {
    let started = Instant::now();
    let window = Arc::new(Window::default());
    let probe = |pipeline: u32, plan: &DeploymentPlan| {
        Arc::new(PipelineProbe::new(
            pipeline,
            plan,
            mode,
            Arc::clone(recorder),
            Arc::clone(&window),
        ))
    };
    let mut fleet_checks = None;
    let (fps, pipelines) = workload.offered();
    let staged = match workload {
        Workload::Fitness | Workload::FitnessTcp => {
            let config = RuntimeConfig {
                fps,
                transport: if workload == Workload::FitnessTcp {
                    EdgeTransport::Tcp
                } else {
                    EdgeTransport::Inproc
                },
                ..RuntimeConfig::default()
            };
            let plan = fitness::videopipe_plan().map_err(deploy_error)?;
            let services = fitness::service_registry(seed);
            (0..pipelines)
                .map(|i| {
                    // Each user's camera has its own noise.
                    let modules = fitness::module_registry(seed.wrapping_add(i));
                    Staged::new(
                        probe(i as u32, &plan),
                        plan.clone(),
                        &modules,
                        &services,
                        config.clone(),
                    )
                })
                .collect()
        }
        Workload::Fleet => {
            let checks = Arc::new(FleetChecks::default());
            let config = RuntimeConfig {
                fps,
                ..RuntimeConfig::default()
            };
            let services = fleet::service_registry();
            let staged: Vec<_> = (0..pipelines)
                .map(|i| {
                    let modules = fleet::module_registry(seed, i, &checks);
                    let plan = fleet::pipeline_plan(i);
                    Staged::new(
                        probe(i as u32, &plan),
                        plan,
                        &modules,
                        &services,
                        config.clone(),
                    )
                })
                .collect();
            fleet_checks = Some(checks);
            staged
        }
    };
    let mut rt = ReactorRuntime::new(ReactorConfig::default());
    let gap = Duration::from_secs_f64(workload.spread_periods() / fps / pipelines as f64);
    let adding = Instant::now();
    let mut probes = Vec::with_capacity(staged.len());
    for (i, p) in staged.into_iter().enumerate() {
        if pace == Pace::Spread {
            let due = adding + gap * i as u32;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        rt.add_pipeline(&p.plan, &p.modules, &p.services, p.config)
            .map_err(deploy_error)?;
        probes.push(p.probe);
    }
    let deadline = started + Duration::from_secs(60);
    while rt.deliveries() == 0 {
        if Instant::now() > deadline {
            return Err("no frame delivered within 60 s of deploy".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(Deployment {
        workload,
        rt,
        probes,
        window,
        fleet_checks,
        drained: Vec::new(),
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Runtime counters read at both ends of a window.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Reactor scheduler counters summed over workers
    /// (`queue_high_water` is the maximum).
    pub sched: WorkerSchedStats,
    /// Process-wide TCP data-plane counters.
    pub net: NetCounters,
    /// Camera ticks offered, summed over pipelines.
    pub offered: u64,
    /// Ticks dropped at the source by flow control.
    pub dropped: u64,
    /// Service requests executed.
    pub requests: u64,
    /// Service batches dispatched.
    pub batches: u64,
    /// Deepest service queue seen so far.
    pub max_queue_depth: u64,
}

impl Counters {
    fn read(dep: &mut Deployment, with_reports: bool) -> Self {
        let mut c = Counters {
            sched: sum_sched(&dep.rt.scheduler_stats()),
            net: net_telemetry::snapshot(),
            ..Counters::default()
        };
        if with_reports {
            dep.drained.resize_with(dep.probes.len(), Default::default);
            for (id, (logs, errors)) in dep.drained.iter_mut().enumerate() {
                if let Some(report) = dep.rt.report_for(id) {
                    c.add_report(&report);
                    logs.extend(report.logs);
                    errors.extend(report.errors);
                }
            }
        }
        c
    }

    fn add_report(&mut self, report: &RunReport) {
        let m = &report.metrics;
        self.offered += m.frames_offered;
        self.dropped += m.frames_dropped;
        for d in m.dispatch.values() {
            self.requests += d.requests;
            self.batches += d.batches;
            self.max_queue_depth = self.max_queue_depth.max(d.max_queue_depth);
        }
    }

    /// Counter-wise change since `before` (high-water marks keep `self`).
    pub fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.sched, &before.sched);
        Counters {
            sched: WorkerSchedStats {
                worker: a.worker,
                tasks_run: a.tasks_run - b.tasks_run,
                steals_attempted: a.steals_attempted - b.steals_attempted,
                steals_succeeded: a.steals_succeeded - b.steals_succeeded,
                queue_high_water: a.queue_high_water,
                timer_fires: a.timer_fires - b.timer_fires,
                unparks: a.unparks - b.unparks,
            },
            net: self.net.delta_since(&before.net),
            offered: self.offered - before.offered,
            dropped: self.dropped - before.dropped,
            requests: self.requests - before.requests,
            batches: self.batches - before.batches,
            max_queue_depth: self.max_queue_depth,
        }
    }
}

fn sum_sched(workers: &[WorkerSchedStats]) -> WorkerSchedStats {
    workers.iter().fold(
        WorkerSchedStats {
            worker: workers.len(),
            ..WorkerSchedStats::default()
        },
        |acc, w| WorkerSchedStats {
            worker: acc.worker,
            tasks_run: acc.tasks_run + w.tasks_run,
            steals_attempted: acc.steals_attempted + w.steals_attempted,
            steals_succeeded: acc.steals_succeeded + w.steals_succeeded,
            queue_high_water: acc.queue_high_water.max(w.queue_high_water),
            timer_fires: acc.timer_fires + w.timer_fires,
            unparks: acc.unparks + w.unparks,
        },
    )
}

/// One second of a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Slice length, seconds (one, up to timer slack).
    pub secs: f64,
    /// Process CPU (user + system) spent in the slice, seconds.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole in the slice.
    pub steal: f64,
    /// End-to-end latency of every frame delivered in the slice, ns.
    pub latencies_ns: Vec<u32>,
}

/// Clock and CPU readings at one slice boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: u64,
    cpu_s: f64,
    host: procfs::HostTicks,
}

impl Mark {
    fn now() -> Self {
        Mark {
            at: probe::now_ns(),
            cpu_s: procfs::cpu_seconds(),
            host: procfs::host_ticks(),
        }
    }
}

/// Machine steal in each slice between consecutive `marks`.
fn steals(marks: &[Mark]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| w[1].host.steal_share_since(&w[0].host))
        .collect()
}

/// Share of the machine the hypervisor may steal in a slice that still
/// counts as calm. Without a steal burst, 99 % of one-second slices on a
/// 2-vCPU runner stay under 1.2 %.
const QUIET_STEAL: f64 = 0.02;

/// Whether at least `wanted` slices are calm.
pub fn calm_enough(steals: &[f64], wanted: usize) -> bool {
    steals.iter().filter(|&&s| s <= QUIET_STEAL).count() >= wanted
}

/// Indices of the slices metrics are taken over: the calm ones, if there
/// are at least `wanted`; otherwise (steal through most of the window)
/// those that lost no more than the window's median slice. On a shared VM
/// steal arrives in bursts of seconds to minutes, and a burst slows every
/// layer, so slices inside one would move the result.
pub fn quiet(steals: &[f64], wanted: usize) -> Vec<usize> {
    let limit = if calm_enough(steals, wanted) {
        QUIET_STEAL
    } else {
        match stats::median_f64(steals) {
            Some(median) => median,
            None => return Vec::new(),
        }
    };
    (0..steals.len()).filter(|&i| steals[i] <= limit).collect()
}

/// One measured window of one deployment, after teardown and checks.
#[derive(Debug)]
pub struct Run {
    /// The window cut into one-second slices.
    pub slices: Vec<Slice>,
    /// Runtime counters over the window.
    pub counters: Counters,
    /// Frames admitted by flow control over the whole run.
    pub attempted: u64,
    /// Faulted frames plus frames failing an output check.
    pub failed: u64,
    /// Why frames failed, one line per cause.
    pub notes: Vec<String>,
    /// Encode-cache `(hits, misses)` over the traced frames.
    pub encode_counts: (u64, u64),
    /// Bytes the window's latency samples occupied at its end.
    pub sample_bytes: usize,
    /// Indices of the quiet slices.
    quiet: Vec<usize>,
}

impl Run {
    /// Window length, seconds.
    pub fn window_s(&self) -> f64 {
        self.slices.iter().map(|s| s.secs).sum()
    }

    /// The quiet slices the metrics are taken over.
    pub fn quiet(&self) -> Vec<&Slice> {
        self.quiet.iter().map(|&i| &self.slices[i]).collect()
    }

    /// Frames delivered in the quiet slices.
    pub fn frames(&self) -> usize {
        self.quiet().iter().map(|s| s.latencies_ns.len()).sum()
    }

    /// Frames delivered to a sink per second: the median over the quiet
    /// slices.
    pub fn fps(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .quiet()
            .iter()
            .map(|s| s.latencies_ns.len() as f64 / s.secs)
            .collect();
        stats::median_f64(&per_slice).expect("a window has at least one slice")
    }

    /// Exact nearest-rank percentile `pct` of the end-to-end latencies of
    /// the frames delivered in the quiet slices, ms.
    pub fn latency_ms(&self, pct: u32) -> Result<f64, String> {
        let mut sorted: Vec<u32> = self
            .quiet()
            .iter()
            .flat_map(|s| s.latencies_ns.iter().copied())
            .collect();
        sorted.sort_unstable();
        stats::percentile(&sorted, pct)
            .map(|ns| f64::from(ns) / 1e6)
            .ok_or_else(|| format!("{} frames do not support a p{pct}", sorted.len()))
    }

    /// Process CPU per delivered frame over the quiet slices, µs. (A
    /// slice's CPU time comes in 10 ms ticks, too coarse for a per-slice
    /// ratio on the fitness workloads.)
    pub fn cpu_us_per_frame(&self) -> f64 {
        let quiet = self.quiet();
        let frames: usize = quiet.iter().map(|s| s.latencies_ns.len()).sum();
        let cpu_s: f64 = quiet.iter().map(|s| s.cpu_s).sum();
        if frames == 0 {
            return 0.0;
        }
        cpu_s * 1e6 / frames as f64
    }
}

/// Warms `dep` up, measures a window of `seconds` one-second slices (more
/// while its quiet slices hold fewer than `min_frames` deliveries), tears
/// the deployment down and checks its outputs. With `recorder`, spans are
/// recorded during the window only.
pub fn measure(
    mut dep: Deployment,
    seconds: u64,
    min_frames: usize,
    recorder: Option<&Recorder>,
) -> Result<Run, String> {
    std::thread::sleep(WARMUP);
    let traced = recorder.is_some();
    let before = Counters::read(&mut dep, traced);
    if let Some(r) = recorder {
        r.set_recording(true);
    }
    let window = Arc::clone(&dep.window);
    // Half the asked-for window must be calm; while it is not, or while
    // the quiet slices hold too few frames, the window grows.
    let wanted = (seconds as usize).div_ceil(2);
    let mut marks = vec![Mark::now()];
    window.open();
    let t0 = marks[0].at;
    loop {
        let due = t0 + marks.len() as u64 * 1_000_000_000;
        std::thread::sleep(Duration::from_nanos(due.saturating_sub(probe::now_ns())));
        marks.push(Mark::now());
        window.next_slice();
        let elapsed = marks.len() as u64 - 1;
        if elapsed < seconds {
            continue;
        }
        let steals = steals(&marks);
        let counts = window.counts();
        let frames: usize = quiet(&steals, wanted).iter().map(|&i| counts[i]).sum();
        let last = elapsed >= seconds.max(MAX_WINDOW_S);
        if frames >= min_frames && (last || calm_enough(&steals, wanted)) {
            break;
        }
        if last {
            window.close();
            return Err(format!(
                "{}: fewer than {min_frames} frames in the quiet slices of {elapsed} s",
                dep.workload.name()
            ));
        }
    }
    let sample_bytes = window.bytes();
    let quiet = quiet(&steals(&marks), wanted);
    let slices = marks
        .windows(2)
        .zip(steals(&marks))
        .zip(window.close())
        .map(|((w, steal), latencies_ns)| Slice {
            secs: (w[1].at - w[0].at) as f64 / 1e9,
            cpu_s: w[1].cpu_s - w[0].cpu_s,
            steal,
            latencies_ns,
        })
        .collect();
    if let Some(r) = recorder {
        r.set_recording(false);
    }
    let counters = Counters::read(&mut dep, traced).since(&before);

    let Deployment {
        workload,
        rt,
        probes,
        fleet_checks,
        drained,
        ..
    } = dep;
    let mut reports = rt.finish();
    for (report, (mut logs, mut errors)) in reports.iter_mut().zip(drained) {
        logs.append(&mut report.logs);
        errors.append(&mut report.errors);
        report.logs = logs;
        report.errors = errors;
    }
    let encode_counts = probes
        .iter()
        .map(|p| p.encode_counts())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let mut check = Check::default();
    check.reports(&reports);
    for p in &probes {
        check.fail(p.early_exits(), "frames left the pipeline before the sink");
    }
    match workload {
        Workload::Fitness | Workload::FitnessTcp => {
            for (report, probe) in reports.iter().zip(&probes) {
                check.fitness(report, probe.capture_span_ns());
            }
        }
        Workload::Fleet => {
            let checks = fleet_checks.expect("fleet deployments carry checks");
            check.fail(
                checks
                    .bad_payloads
                    .load(std::sync::atomic::Ordering::Relaxed),
                "sink payloads other than 2 × the source count",
            );
            check.fail(
                checks
                    .repeated_seqs
                    .load(std::sync::atomic::Ordering::Relaxed),
                "frame_seq repeated or reordered at a sink",
            );
        }
    }
    Ok(Run {
        slices,
        counters,
        attempted: reports.iter().map(|r| r.metrics.frames_admitted).sum(),
        failed: check.failed,
        notes: check.notes,
        encode_counts,
        sample_bytes,
        quiet,
    })
}

/// Output-check tally.
#[derive(Debug, Default)]
struct Check {
    failed: u64,
    notes: Vec<String>,
}

impl Check {
    fn fail(&mut self, frames: u64, why: &str) {
        if frames > 0 {
            self.failed += frames;
            self.notes.push(format!("{frames} × {why}"));
        }
    }

    /// Every report balances its credits and carries no errors.
    fn reports(&mut self, reports: &[RunReport]) {
        let unbalanced = reports
            .iter()
            .filter(|r| !r.metrics.credits_balanced())
            .count();
        self.fail(unbalanced as u64, "pipelines with unbalanced credits");
        let faulted: u64 = reports.iter().map(|r| r.metrics.frames_faulted).sum();
        self.fail(faulted, "faulted frames");
        let errors: Vec<&String> = reports.iter().flat_map(|r| &r.errors).collect();
        if let Some(first) = errors.first() {
            self.fail(
                errors.len() as u64,
                &format!("runtime errors, first: {first}"),
            );
        }
    }

    /// Display lines name the squat once the pose window has filled, and
    /// the final rep count matches, within one rep, the whole reps in the
    /// span of video between the first and the last displayed frame
    /// (`capture_span_ns`, from the frames' capture stamps).
    fn fitness(&mut self, report: &RunReport, capture_span_ns: Option<u64>) {
        let lines = display_lines(&report.logs);
        let wrong: Vec<&DisplayLine> = lines
            .iter()
            .enumerate()
            .filter(|(i, l)| {
                let label = l.activity.as_deref();
                let warming = *i + 1 < WINDOW_LEN && label == Some("warming_up");
                !warming && label != Some(ExerciseKind::Squat.label())
            })
            .map(|(_, l)| l)
            .collect();
        if let Some(first) = wrong.first() {
            self.fail(
                wrong.len() as u64,
                &format!(
                    "display lines without activity=squat, first: frame {} activity={}",
                    first.seq,
                    first.activity.as_deref().unwrap_or("(none)")
                ),
            );
        }
        let (Some(last), Some(span_ns)) = (lines.last(), capture_span_ns) else {
            self.fail(1, "runs without display output");
            return;
        };
        let span_s = span_ns as f64 / 1e9;
        let expected = (span_s / REP_PERIOD_S).floor() as u64;
        let reps = last.reps.unwrap_or(0);
        if reps.abs_diff(expected) > 1 {
            self.fail(
                1,
                &format!("final rep count {reps}, {expected} whole reps in {span_s:.2} s of video"),
            );
        }
    }
}

/// One parsed `display: frame <seq>: activity=<label> reps=<n>` log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisplayLine {
    /// Frame sequence number.
    pub seq: u64,
    /// The activity label, when present.
    pub activity: Option<String>,
    /// The rep count, when present.
    pub reps: Option<u64>,
}

/// The display module's log lines, in order.
pub fn display_lines(logs: &[String]) -> Vec<DisplayLine> {
    logs.iter()
        .filter_map(|l| {
            let rest = l.strip_prefix("display: frame ")?;
            let (seq, parts) = rest.split_once(": ")?;
            let mut line = DisplayLine {
                seq: seq.parse().ok()?,
                activity: None,
                reps: None,
            };
            for part in parts.split_whitespace() {
                if let Some(a) = part.strip_prefix("activity=") {
                    line.activity = Some(a.to_string());
                } else if let Some(n) = part.strip_prefix("reps=") {
                    line.reps = n.parse().ok();
                }
            }
            Some(line)
        })
        .collect()
}

/// Set-up time of one deployment, torn down once it has delivered its
/// first frame.
pub fn setup_time(workload: Workload, seed: u64) -> Result<f64, String> {
    let recorder = Arc::new(Recorder::default());
    let dep = deploy(workload, seed, Mode::Latency, Pace::Burst, &recorder)?;
    dep.rt.finish();
    Ok(dep.setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lines_parse_either_part_order() {
        let logs = vec![
            "rep_counter: rep counter calibrated".to_string(),
            "display: frame 12: activity=warming_up reps=0".to_string(),
            "display: frame 13: reps=4 activity=squat".to_string(),
        ];
        let lines = display_lines(&logs);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].activity.as_deref(), Some("warming_up"));
        assert_eq!(
            lines[1],
            DisplayLine {
                seq: 13,
                activity: Some("squat".into()),
                reps: Some(4),
            }
        );
    }

    #[test]
    fn quiet_slices_are_the_calm_ones_when_there_are_enough() {
        // Little steal anywhere: every slice counts.
        assert_eq!(quiet(&[0.0, 0.004, 0.019, 0.001], 2), vec![0, 1, 2, 3]);
        // A burst over part of the window: its slices go.
        let steals = [0.01, 0.2, 0.25, 0.03, 0.02];
        assert!(calm_enough(&steals, 2) && !calm_enough(&steals, 3));
        assert_eq!(quiet(&steals, 2), vec![0, 4]);
        // Too few calm slices: those at or below the median steal.
        assert_eq!(quiet(&steals, 3), vec![0, 3, 4]);
        assert!(quiet(&[], 1).is_empty());
    }

    #[test]
    fn fitness_cameras_run_at_the_classifiers_training_rate() {
        assert_eq!(
            FITNESS_FPS,
            videopipe_ml::dataset::DatasetConfig::default().fps
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// The decorators record every fleet frame they sample as a complete
    /// chain, and the blocking-path split accounts for all of its latency.
    #[test]
    fn traced_fleet_frames_split_along_their_blocking_path() {
        let recorder = Arc::new(Recorder::default());
        let mode = Mode::Trace { sample_every: 16 };
        let dep = deploy(Workload::Fleet, 5, mode, Pace::Spread, &recorder).expect("fleet deploys");
        let run = measure(dep, 1, 1, Some(&recorder)).expect("window measured");
        assert_eq!(run.failed, 0, "{:?}", run.notes);
        let mut spans = recorder.take();
        let frames = crate::analysis::split_frames(&mut spans);
        assert!(frames.len() > 100, "only {} traced frames", frames.len());
        eprintln!("FRAMES {}", frames.len());
        let double = recorder.intern(fleet::DOUBLE);
        let mut split_up = 0;
        for f in &frames {
            assert_eq!(f.module_self.len(), 3, "src, work and sink all traced");
            assert!(f.handle.contains_key(&double) && f.wait.contains_key(&double));
            assert_eq!(f.cross_device_hops, 0, "fleet pipelines use one device");
            // The residual is the untraced part of the blocking path. The
            // pipeline clock and the probe clock are read one after the
            // other, so a thread preempted between the two reads (rare)
            // leaves a frame that does not add up.
            let gaps = f.admit_lag + f.same_device_hops;
            if f.residual().abs_diff(gaps) < 2_000 {
                split_up += 1;
            }
        }
        assert!(
            split_up * 100 >= frames.len() * 99,
            "{split_up} of {} frames add up",
            frames.len()
        );
    }
}
