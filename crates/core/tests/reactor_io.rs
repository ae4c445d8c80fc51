//! The reactor's TCP ingress thread (`vp-reactor-io`): it blocks on socket
//! readiness while idle and shuts down without waiting out a timeout.
//!
//! Every test here inspects the process's one I/O thread through
//! `/proc/self/task`, so they hold `IO_SERIAL` to keep runtimes from
//! overlapping.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::runtime::{EdgeTransport, RuntimeConfig};
use videopipe_core::service::ServiceRegistry;
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;

static IO_SERIAL: Mutex<()> = Mutex::new(());

/// Source: on its first tick sends `burst` counts to the sink back to
/// back, then stays silent (the sink never returns the credit).
struct Burst {
    burst: u64,
    fired: bool,
}

impl Module for Burst {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if matches!(event, Event::FrameTick { .. }) && !self.fired {
            self.fired = true;
            for n in 0..self.burst {
                ctx.call_module("sink", Payload::Count(n))?;
            }
        }
        Ok(())
    }
}

/// Sink: records every count it receives, in arrival order.
struct Recorder(Arc<Mutex<Vec<u64>>>);

impl Module for Recorder {
    fn on_event(&mut self, event: Event, _ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            if let Payload::Count(n) = msg.payload {
                self.0.lock().unwrap().push(n);
            }
        }
        Ok(())
    }
}

/// `src` on device `a`, `sink` on device `b`: every message crosses TCP.
fn two_device_plan() -> DeploymentPlan {
    let spec = PipelineSpec::new("io")
        .with_module(ModuleSpec::new("src", "Burst").with_next("sink"))
        .with_module(ModuleSpec::new("sink", "Recorder"));
    let devices = vec![DeviceSpec::new("a", 1.0), DeviceSpec::new("b", 1.0)];
    let placement = Placement::new().assign("src", "a").assign("sink", "b");
    plan(&spec, &devices, &placement).unwrap()
}

/// A reactor running one TCP pipeline whose source sends `burst` counts
/// once; returns the runtime and the sink's record.
fn deploy(burst: u64) -> (ReactorRuntime, Arc<Mutex<Vec<u64>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut modules = ModuleRegistry::new();
    modules.register("Burst", move || {
        Box::new(Burst {
            burst,
            fired: false,
        })
    });
    let record = Arc::clone(&seen);
    modules.register("Recorder", move || Box::new(Recorder(Arc::clone(&record))));
    let mut rt = ReactorRuntime::new(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let config = RuntimeConfig {
        fps: 50.0,
        transport: EdgeTransport::Tcp,
        ..RuntimeConfig::default()
    };
    rt.add_pipeline(
        &two_device_plan(),
        &modules,
        &ServiceRegistry::new(),
        config,
    )
    .unwrap();
    (rt, seen)
}

/// `/proc/self/task/<tid>` directories of threads named `vp-reactor-io`.
fn io_threads() -> Vec<std::path::PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|c| c.trim() == "vp-reactor-io")
        })
        .collect()
}

fn voluntary_switches(task: &std::path::Path) -> u64 {
    std::fs::read_to_string(task.join("status"))
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches in task status")
}

#[test]
fn idle_io_thread_blocks_instead_of_polling() {
    let _serial = IO_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (rt, _seen) = deploy(0);
    // Let the deploy's connection accepts and wake bytes settle.
    std::thread::sleep(Duration::from_millis(100));
    let threads = io_threads();
    assert_eq!(threads.len(), 1, "expected one I/O thread: {threads:?}");
    let before = voluntary_switches(&threads[0]);
    std::thread::sleep(Duration::from_millis(500));
    let woke = voluntary_switches(&threads[0]) - before;
    drop(rt);
    // A sleep-and-poll loop at 1 ms switches about 500 times here.
    assert!(woke < 50, "idle I/O thread woke {woke} times in 500 ms");
}

#[test]
fn finish_joins_the_io_thread_promptly() {
    let _serial = IO_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (rt, seen) = deploy(8);
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.lock().unwrap().len() < 8 {
        assert!(Instant::now() < deadline, "burst never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The I/O thread is now blocked in its readiness wait; only the
    // waker can end it.
    std::thread::sleep(Duration::from_millis(50));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let finisher = std::thread::spawn(move || {
        let started = Instant::now();
        rt.finish();
        let _ = done_tx.send(started.elapsed());
    });
    let took = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("finish() never returned: the I/O thread missed its wake");
    finisher.join().expect("finish() panicked");
    assert!(took < Duration::from_millis(250), "finish() took {took:?}");
    assert!(io_threads().is_empty(), "I/O thread outlived finish()");
}
