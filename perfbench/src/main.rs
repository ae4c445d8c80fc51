//! Frame-path benchmark for VideoPipe.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fitness|fitness_tcp|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the set-up in child processes (`--setup-only 1`, one
//! set-up each), then deploys the workload on a `ReactorRuntime`, warms it
//! up, measures one window and prints the end-to-end metrics. `--trace 1`
//! measures an untraced window and then a traced one in a fresh
//! deployment, writes the traced spans to `perfbench/out/`, and prints the
//! per-layer metrics. Either way the last stdout line is the JSON result,
//! and outputs are checked: any failed check makes `correct` false and the
//! exit code 1.

mod analysis;
mod fleet;
mod probe;
mod procfs;
mod report;
mod runner;
mod stats;
mod workload;

use analysis::FrameSplit;
use probe::{Mode, Recorder};
use report::{Metric, Outcome};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use workload::{Pace, Run, Workload};

const USAGE: &str =
    "usage: perfbench --workload <fitness|fitness_tcp|fleet> --seed <n> --seconds <s> --trace <0|1>";

/// Marks the last stdout line of a `--setup-only 1` process.
const SETUP_LINE: &str = "setup_s ";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Time one set-up and exit: the untraced run starts one such process
    /// per set-up, so each starts from a fresh process.
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad())?;
                if !(1..=60).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--setup-only" => {
                setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match workload::setup_time(args.workload, args.seed) {
            Ok(s) => {
                println!("{SETUP_LINE}{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let recorder = Arc::new(Recorder::default());
    let outcome = if args.trace {
        traced(args, &recorder)?
    } else {
        untraced(args, &recorder)?
    };
    print!("{}", outcome.table());
    Ok(outcome)
}

fn metric(name: &str, unit: &'static str, value: f64, samples: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples,
    }
}

fn print_notes(label: &str, run: &Run) {
    for note in &run.notes {
        println!("  check failed ({label}): {note}");
    }
}

fn print_runner(fp: &runner::Fingerprint) {
    println!(
        "  runner: nproc {} reactor workers {} profile {} memcpy {:.2} GB/s mpsc ping-pong {:.2} us",
        fp.nproc, fp.workers, fp.profile, fp.memcpy_gbps, fp.pingpong_us
    );
}

/// Set-up time of one deployment, timed in a child process of its own.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--setup-only", "1"])
        .output()
        .map_err(|e| format!("start set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let time = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix(SETUP_LINE))
        .and_then(|v| v.parse().ok());
    match time {
        Some(t) if out.status.success() => Ok(t),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Times set-ups, one after the other, until `wanted` of all those in
/// `setups` are calm: the hypervisor stole no more of the machine during
/// the set-up than a quiet slice may lose. While too few are, more are
/// made, up to [`workload::MAX_SETUP_RUNS`] in all.
fn run_setups(args: &Args, wanted: usize, setups: &mut Setups) -> Result<(), String> {
    while !workload::calm_enough(&setups.steals, wanted)
        && setups.times.len() < workload::MAX_SETUP_RUNS
    {
        let before = procfs::host_ticks();
        setups.times.push(setup_in_child(args)?);
        setups
            .steals
            .push(procfs::host_ticks().steal_share_since(&before));
    }
    Ok(())
}

/// Set-up times with the machine steal during each.
#[derive(Debug, Default)]
struct Setups {
    times: Vec<f64>,
    steals: Vec<f64>,
}

impl Setups {
    /// The set-ups `setup_s` is taken over: the calm ones, or when fewer
    /// than [`workload::SETUP_RUNS`] are calm, those picked by the quiet
    /// rule of the measurement window.
    fn kept(&self) -> Vec<f64> {
        workload::quiet(&self.steals, workload::SETUP_RUNS)
            .into_iter()
            .map(|i| self.times[i])
            .collect()
    }
}

fn untraced(args: &Args, recorder: &Arc<Recorder>) -> Result<Outcome, String> {
    let w = args.workload;
    // Half the set-ups before the window and half after, so that a few
    // slow seconds on the host do not move them all; none runs beside it.
    let mut setups = Setups::default();
    run_setups(args, workload::SETUP_RUNS.div_ceil(2), &mut setups)?;
    let dep = workload::deploy(w, args.seed, Mode::Latency, Pace::Spread, recorder)?;
    let run = workload::measure(dep, args.seconds, stats::samples_needed(99), None)?;
    // Read before the latencies are sorted and the runner probes allocate.
    let peak_rss = procfs::peak_rss_mb();
    run_setups(args, workload::SETUP_RUNS, &mut setups)?;
    let kept = setups.kept();
    print_runner(&runner::fingerprint(run.counters.sched.worker));
    print_notes("untraced", &run);
    let n = run.frames();
    let p99 = run.latency_ms(99)?;
    let quiet = run.quiet();
    println!(
        "  window {:.3} s; {} quiet slices (steal <= {:.1} %) delivered {n} frames; \
         latency_p99_ms {p99:.4} ms ({} beyond it); latency samples {:.2} MiB of the peak RSS",
        run.window_s(),
        quiet.len(),
        100.0 * quiet.iter().map(|s| s.steal).fold(0.0, f64::max),
        stats::beyond(n, 99),
        run.sample_bytes as f64 / f64::from(1 << 20),
    );
    println!(
        "  set-ups {:?} s, steal (%) during each {:?}",
        setups.times,
        setups
            .steals
            .iter()
            .map(|s| (s * 1e3).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let values = [
        (run.fps(), Some(n)),
        (run.latency_ms(50)?, Some(n)),
        (run.latency_ms(90)?, Some(n)),
        (run.cpu_us_per_frame(), Some(n)),
        (
            stats::median_f64(&kept).expect("at least one set-up"),
            Some(kept.len()),
        ),
        (peak_rss, None),
    ];
    let metrics = report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| metric(name, unit, value, samples))
        .collect();
    Ok(Outcome {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    })
}

/// Median over frames of `f`, in µs, and the number of frames it covers.
fn median_us(frames: &[FrameSplit], f: impl Fn(&FrameSplit) -> Option<u64>) -> (f64, usize) {
    let values: Vec<f64> = frames
        .iter()
        .filter_map(&f)
        .map(|ns| ns as f64 / 1e3)
        .collect();
    (stats::median_f64(&values).unwrap_or(0.0), values.len())
}

/// Per-layer values by name, emitted in `BENCHMARK.json` order.
#[derive(Default)]
struct Layers(std::collections::HashMap<String, (f64, Option<usize>)>);

impl Layers {
    /// A statistic over `samples` frames.
    fn time(&mut self, name: &str, (value, samples): (f64, usize)) {
        self.0.insert(name.to_string(), (value, Some(samples)));
    }

    fn count(&mut self, name: &str, n: u64) {
        self.value(name, n as f64);
    }

    fn value(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), (v, None));
    }

    fn into_metrics(mut self) -> Vec<Metric> {
        let metrics = report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let (value, samples) = self
                    .0
                    .remove(&name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} computed"));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect();
        assert!(
            self.0.is_empty(),
            "undeclared per-layer metrics: {:?}",
            self.0.keys()
        );
        metrics
    }
}

fn traced(args: &Args, recorder: &Arc<Recorder>) -> Result<Outcome, String> {
    let w = args.workload;
    // The two windows share the run's time.
    let half = args.seconds.div_ceil(2);
    let base = workload::measure(
        workload::deploy(w, args.seed, Mode::Latency, Pace::Spread, recorder)?,
        half,
        stats::samples_needed(99),
        None,
    )?;
    print_notes("untraced", &base);
    let mode = Mode::Trace {
        sample_every: w.trace_sample_every(),
    };
    let run = workload::measure(
        workload::deploy(w, args.seed, mode, Pace::Spread, recorder)?,
        half,
        1,
        Some(recorder),
    )?;
    print_notes("traced", &run);
    let mut spans = recorder.take();
    let path = out_dir()?.join(format!("spans-{}.tsv", w.name()));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    recorder
        .write_tsv(&spans, &mut file)
        .and_then(|()| file.flush())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  {} spans written to {}", spans.len(), path.display());
    let frames = analysis::split_frames(&mut spans);
    let fp = runner::fingerprint(run.counters.sched.worker);
    print_runner(&fp);

    let tcp = w == Workload::FitnessTcp;
    let c = &run.counters;
    let net = &c.net;
    let mut layers = Layers::default();
    let median = |f: &dyn Fn(&FrameSplit) -> Option<u64>| median_us(&frames, f);
    // The untraced window's tail: reported, not bounded (see README).
    let p99 = base.latency_ms(99)?;
    layers.time("e2e.latency_p99_ms", (p99, base.frames()));
    layers.time("flow.admit_lag_us", median(&|f| Some(f.admit_lag)));
    layers.count("flow.offered", c.offered);
    layers.count("flow.dropped", c.dropped);
    layers.time("reactor.hop_us", median(&|f| Some(f.same_device_hops)));
    layers.count("reactor.tasks_run", c.sched.tasks_run);
    layers.count("reactor.unparks", c.sched.unparks);
    layers.count("reactor.steals_succeeded", c.sched.steals_succeeded);
    layers.count("reactor.timer_fires", c.sched.timer_fires);
    layers.count("reactor.queue_high_water", c.sched.queue_high_water);
    for m in report::MODULES {
        let name = recorder.intern(m);
        let self_us = median(&|f| f.module_self.get(&name).copied());
        layers.time(&format!("module.{m}.self_us"), self_us);
    }
    for s in report::SERVICES {
        let name = recorder.intern(s);
        let handle_us = median(&|f| f.handle.get(&name).copied());
        let wait_us = median(&|f| f.wait.get(&name).copied());
        layers.time(&format!("service.{s}.handle_us"), handle_us);
        layers.time(&format!("service.{s}.wait_us"), wait_us);
    }
    layers.count("dispatch.requests", c.requests);
    layers.count("dispatch.batches", c.batches);
    layers.count("dispatch.max_queue_depth", c.max_queue_depth);
    layers.time(
        "media.send_us",
        median(&|f| (f.cross_sends > 0).then_some(f.cross_sends)),
    );
    // A cross-device hop is the TCP data plane under `fitness_tcp`, and an
    // in-process handoff plus the receiver's frame decode otherwise.
    let cross_hops = median(&|f| (f.cross_device_hops > 0).then_some(f.cross_device_hops));
    let (net_hop, media_hop) = if tcp {
        (cross_hops, (0.0, 0))
    } else {
        ((0.0, 0), cross_hops)
    };
    layers.time("media.decode_hop_us", media_hop);
    layers.count("media.encode_hits", run.encode_counts.0);
    layers.count("media.encode_misses", run.encode_counts.1);
    layers.time("net.hop_us", net_hop);
    layers.count("net.tx_frames", net.tx_frames);
    layers.count("net.tx_vectored_writes", net.tx_vectored_writes);
    layers.count("net.tx_iovecs", net.tx_iovecs);
    layers.count("net.rx_zero_copy_frames", net.rx_zero_copy_frames);
    layers.count("net.rx_payload_copies", net.rx_payload_copies);
    layers.count("net.pool_misses", net.pool_misses);
    layers.time("trace.residual_us", median(&|f| Some(f.residual())));
    let overhead = 100.0 * (run.cpu_us_per_frame() / base.cpu_us_per_frame() - 1.0);
    layers.value("trace.overhead_pct", overhead);
    layers.count("trace.frames", frames.len() as u64);
    layers.count("trace.spans", spans.len() as u64);
    layers.count("runner.nproc", fp.nproc as u64);
    layers.count("runner.workers", fp.workers as u64);
    layers.value("runner.memcpy_gbps", fp.memcpy_gbps);
    layers.value("runner.pingpong_us", fp.pingpong_us);
    let metrics = layers.into_metrics();
    println!(
        "  traced {} complete frames; untraced p50 {:.4} ms, cpu {:.2} us/frame; traced cpu {:.2} us/frame",
        frames.len(),
        base.latency_ms(50)?,
        base.cpu_us_per_frame(),
        run.cpu_us_per_frame()
    );
    let failed = base.failed + run.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: base.attempted + run.attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args =
            parse_args(&argv("--workload fleet --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            args,
            Args {
                workload: Workload::Fleet,
                seed: 7,
                seconds: 10,
                trace: true,
                setup_only: false,
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fitness --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fitness --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fitness --seed")).is_err());
        assert!(parse_args(&argv("--workload fitness --setup-only yes")).is_err());
    }
}
