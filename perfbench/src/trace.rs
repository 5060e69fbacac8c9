//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every load thread owns a [`SpanBuf`]; buffers are merged when the
//! run ends, self time is computed per layer, and the spans are written
//! out as one TSV file. A span's self time is its duration minus its
//! children's durations. Children normally lie inside their parent's
//! interval; the direct pass also records a re-run of the engine part
//! of `run_job` as `run_job`'s child, so that `exec` self time is the
//! per-job cost outside the engine.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Zero of every span timestamp in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// Request (or job) the span belongs to.
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many real calls this span stands for (a sampled pass
    /// weighs each sample by the sampling stride).
    pub weight: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer. Disabled buffers record nothing and cost
/// one branch per call.
pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// `lane` keeps span ids of different threads apart.
    pub fn new(on: bool, lane: u64) -> SpanBuf {
        SpanBuf {
            on,
            epoch: epoch(),
            next: lane << 40,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[t0, t1]`; returns the new span's id (0 when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        parent: u64,
        t0: Instant,
        t1: Instant,
        weight: f64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let span = Span {
            id: self.next,
            parent,
            req,
            layer,
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            weight,
        };
        self.spans.push(span);
        self.next
    }

    /// Reserve an id for a parent recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        self.next
    }

    /// Record a span under an id from [`SpanBuf::reserve`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        layer: &'static str,
        name: &'static str,
        req: u64,
        t0: Instant,
        t1: Instant,
        weight: f64,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent: 0,
            req,
            layer,
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            weight,
        };
        self.spans.push(span);
    }
}

/// Weighted self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.layer).or_default() += s.dur_ns().saturating_sub(children) as f64 * s.weight;
    }
    out
}

/// Write spans as TSV: `id parent req layer name start_ns end_ns weight`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tlayer\tname\tstart_ns\tend_ns\tweight")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.layer, s.name, s.start_ns, s.end_ns, s.weight
        )?;
    }
    w.flush()
}
