//! Shared helpers for the benchmark applications.

use std::sync::Arc;

use impacc_core::{Launch, RunSummary, RuntimeOptions, TaskCtx};
use impacc_machine::MachineSpec;
use impacc_vtime::{SimError, SpanSink};

// The partition/neighbour arithmetic and the truncation gate moved to
// `impacc-array`, the single home for decomposition math; re-exported
// here so app code keeps one import path.
pub use impacc_array::{math_ok, BlockPartition};

/// Run a per-task program over `spec` with the given runtime options.
pub fn launch_app<F>(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    app: F,
) -> Result<RunSummary, SimError>
where
    F: Fn(&TaskCtx) + Send + Sync + 'static,
{
    launch_app_sink(spec, options, phys_cap, None, app)
}

/// [`launch_app`] with an optional span sink (e.g. an
/// `impacc_obs::Recorder`) attached for timeline capture.
pub fn launch_app_sink<F>(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    sink: Option<Arc<dyn SpanSink>>,
    app: F,
) -> Result<RunSummary, SimError>
where
    F: Fn(&TaskCtx) + Send + Sync + 'static,
{
    let mut l = Launch::new(spec, options);
    if let Some(cap) = phys_cap {
        l = l.phys_cap(cap);
    }
    if let Some(sink) = sink {
        l = l.span_sink(sink);
    }
    l.run(app)
}
