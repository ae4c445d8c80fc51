//! The `fleet` workload's pipeline: `src → work → sink` on one device, with
//! one co-located call to a `double` service per frame. The payloads are
//! counts, so media, ml and net stay idle and every microsecond goes to
//! the pacer, the reactor, the in-process hub and service dispatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::service::{Service, ServiceRegistry, ServiceRequest, ServiceResponse};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::FrameStore;

/// The service every `work` module calls.
pub const DOUBLE: &str = "double";
const DEVICE: &str = "edge";

/// The count the source of pipeline `pipeline` emits for frame `seq`: a
/// seeded 32-bit hash, so doubling it never overflows and the sink can
/// recompute it independently.
pub fn source_count(seed: u64, pipeline: u64, seq: u64) -> u64 {
    // splitmix64 finalizer over the three inputs.
    let mut z = seed
        .wrapping_add(pipeline.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

/// Output-check counters shared by every fleet sink.
#[derive(Debug, Default)]
pub struct FleetChecks {
    /// Sink payloads that were not `Count(2 × source count)`.
    pub bad_payloads: AtomicU64,
    /// Frames whose `frame_seq` did not increase past the previous one at
    /// the same sink (a duplicate or a reordering).
    pub repeated_seqs: AtomicU64,
}

struct Source {
    seed: u64,
    pipeline: u64,
}

impl Module for Source {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { .. } = event {
            let count = source_count(self.seed, self.pipeline, ctx.header().frame_seq);
            ctx.call_module("work", Payload::Count(count))?;
        }
        Ok(())
    }
}

struct Work;

impl Module for Work {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let reply = ctx.call_service(DOUBLE, ServiceRequest::new(DOUBLE, msg.payload))?;
            ctx.call_module("sink", reply.payload)?;
        }
        Ok(())
    }
}

struct Sink {
    seed: u64,
    pipeline: u64,
    last_seq: Option<u64>,
    checks: Arc<FleetChecks>,
}

impl Module for Sink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        let seq = msg.header.frame_seq;
        let expected = 2 * source_count(self.seed, self.pipeline, seq);
        if msg.payload != Payload::Count(expected) {
            self.checks.bad_payloads.fetch_add(1, Ordering::Relaxed);
        }
        if self.last_seq.is_some_and(|last| seq <= last) {
            self.checks.repeated_seqs.fetch_add(1, Ordering::Relaxed);
        }
        self.last_seq = Some(seq);
        ctx.signal_source()
    }
}

/// Doubles a `Count`.
struct Double;

impl Service for Double {
    fn name(&self) -> &str {
        DOUBLE
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        match request.payload {
            Payload::Count(n) => Ok(ServiceResponse::new(Payload::Count(2 * n))),
            ref other => Err(videopipe_core::service::wrong_payload(
                DOUBLE, "count", other,
            )),
        }
    }
}

/// The deployment plan of fleet pipeline `pipeline` (unique name per
/// pipeline).
pub fn pipeline_plan(pipeline: u64) -> DeploymentPlan {
    let spec = PipelineSpec::new(format!("fleet-{pipeline}"))
        .with_module(ModuleSpec::new("src", "FleetSource").with_next("work"))
        .with_module(
            ModuleSpec::new("work", "FleetWork")
                .with_service(DOUBLE)
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "FleetSink"));
    let devices = vec![DeviceSpec::new(DEVICE, 1.0)
        .with_containers(1)
        .with_service(DOUBLE)];
    let placement = Placement::new()
        .assign("src", DEVICE)
        .assign("work", DEVICE)
        .assign("sink", DEVICE);
    plan(&spec, &devices, &placement).expect("fleet plan is valid")
}

/// The modules of fleet pipeline `pipeline`.
pub fn module_registry(seed: u64, pipeline: u64, checks: &Arc<FleetChecks>) -> ModuleRegistry {
    let mut modules = ModuleRegistry::new();
    modules.register("FleetSource", move || Box::new(Source { seed, pipeline }));
    modules.register("FleetWork", || Box::new(Work));
    let checks = Arc::clone(checks);
    modules.register("FleetSink", move || {
        Box::new(Sink {
            seed,
            pipeline,
            last_seq: None,
            checks: Arc::clone(&checks),
        })
    });
    modules
}

/// The services of a fleet pipeline.
pub fn service_registry() -> ServiceRegistry {
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(Double));
    services
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_counts_are_seeded_and_doubling_is_safe() {
        assert_eq!(source_count(7, 3, 11), source_count(7, 3, 11));
        assert_ne!(source_count(7, 3, 11), source_count(8, 3, 11));
        assert_ne!(source_count(7, 3, 11), source_count(7, 4, 11));
        assert!((0..1000).all(|s| source_count(1, 2, s) <= u64::from(u32::MAX)));
    }

    #[test]
    fn double_service_doubles_counts_only() {
        let store = FrameStore::new();
        let reply = Double
            .handle(&ServiceRequest::new(DOUBLE, Payload::Count(21)), &store)
            .expect("count doubles");
        assert_eq!(reply.payload, Payload::Count(42));
        assert!(Double
            .handle(&ServiceRequest::new(DOUBLE, Payload::Empty), &store)
            .is_err());
    }
}
