//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark's own code around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Every span records its name, start and end (nanoseconds since the
//! world launch instant, which forked rank processes share because they
//! read the same monotonic clock) and the index of the span that was open
//! when it started. A layer's self time is its spans' durations minus the
//! parts their child spans cover.

use std::time::Instant;

use mimir_mpi::Wire;

/// The layer boundaries the traced run spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// World launch up to the rank closure: thread spawn or fork plus the
    /// transport handshake.
    Launch,
    /// `MimirContext::new` (setup side).
    ContextNew,
    /// `pick_root` (setup side, a collective).
    PickRoot,
    /// The job window: job start to output drained. Its self time is the
    /// time no layer accounts for.
    Job,
    /// `map_shuffle` / `chain_shuffle`, or the shuffler fed by a combiner
    /// flush: the user map (when it runs inside) plus emit, partition,
    /// exchange and the phase barrier.
    MapShuffle,
    /// The user map driven into the map-side combiner table (in-place
    /// folds, no exchange).
    CombinerFold,
    /// `mimir_core::convert_with`.
    Convert,
    /// `KmvContainer::for_each_group` or `PartialReducer::into_output`.
    Reduce,
    /// An explicit `Comm` collective (barrier, allreduce) the app calls.
    Collective,
    /// The app draining the job output into its own structures.
    Drain,
    /// The user map closure driven once against a no-op emitter, after
    /// the job (outside the job window).
    MapUser,
}

impl Kind {
    const ALL: [Kind; 11] = [
        Kind::Launch,
        Kind::ContextNew,
        Kind::PickRoot,
        Kind::Job,
        Kind::MapShuffle,
        Kind::CombinerFold,
        Kind::Convert,
        Kind::Reduce,
        Kind::Collective,
        Kind::Drain,
        Kind::MapUser,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Launch => "mpi.launch",
            Kind::ContextNew => "core.context_new",
            Kind::PickRoot => "apps.pick_root",
            Kind::Job => "job",
            Kind::MapShuffle => "core.map_shuffle",
            Kind::CombinerFold => "core.combiner.fold",
            Kind::Convert => "core.convert",
            Kind::Reduce => "core.reduce",
            Kind::Collective => "mpi.collective",
            Kind::Drain => "apps.drain",
            Kind::MapUser => "apps.map_user",
        }
    }

    fn code(self) -> u64 {
        Kind::ALL.iter().position(|&k| k == self).expect("listed") as u64
    }

    fn from_code(c: u64) -> Option<Kind> {
        Kind::ALL.get(usize::try_from(c).ok()?).copied()
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl Wire for Span {
    fn wire_write(&self, out: &mut Vec<u8>) {
        let parent = self.parent.map_or(0, |p| p as u64 + 1);
        (self.kind.code(), self.start_ns, self.end_ns, parent).wire_write(out);
    }

    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        let (code, start_ns, end_ns, parent) = <(u64, u64, u64, u64)>::wire_read(buf)?;
        Some(Span {
            kind: Kind::from_code(code)?,
            start_ns,
            end_ns,
            parent: parent.checked_sub(1).map(|p| p as usize),
        })
    }
}

/// Nanoseconds from `origin` to now.
pub fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Records one rank's spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(&mut self, kind: Kind, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, kind: Kind) {
        let start_ns = since(self.origin);
        self.record(kind, start_ns, start_ns);
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = since(self.origin);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        self.open(kind);
        let r = f();
        self.close();
        r
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Per-kind self time of one rank's spans, in seconds.
pub fn self_times(spans: &[Span]) -> Vec<(Kind, f64)> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    Kind::ALL
        .iter()
        .map(|&k| {
            let ns: u64 = spans
                .iter()
                .zip(&child)
                .filter(|(s, _)| s.kind == k)
                .map(|(s, &c)| s.dur_ns().saturating_sub(c))
                .sum();
            (k, ns as f64 * 1e-9)
        })
        .collect()
}

/// One JSON line per span, tagged with the run id and rank.
pub fn write_jsonl(out: &mut String, run_id: &str, rank: usize, spans: &[Span]) {
    use std::fmt::Write;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"rank\":{rank},\"id\":{i},\"parent\":{parent},\
             \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns
        );
    }
}
