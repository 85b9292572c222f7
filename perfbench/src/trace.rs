//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: name, start, end, parent span and
//! burst id. When a burst phase ends its spans are folded into
//! per-layer self times (µs) for that burst; the spans of the first
//! [`KEEP_BURSTS`] bursts are also kept and written out when the run
//! ends.

use std::time::Instant;

use crate::stats::{self_times, Interval};

/// Bursts whose raw spans are kept for the spans file.
pub const KEEP_BURSTS: u32 = 4;

macro_rules! layers {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// A traced boundary: one call (or call group) into a layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Layer { $($variant),* }

        impl Layer {
            pub const ALL: &'static [Layer] = &[$(Layer::$variant),*];
            pub fn name(self) -> &'static str {
                match self { $(Layer::$variant => $name),* }
            }
        }
    };
}

layers! {
    TxBurst => "tx.burst",
    TxReplay => "tx.replay",
    TxCoding => "tx.coding",
    TxMap => "tx.map",
    TxOfdm => "tx.ofdm",
    ChannelPropagate => "channel.propagate",
    RxBurst => "rx.burst",
    RxReplay => "rx.replay",
    RxSync => "rx.sync",
    RxChanest => "rx.chanest",
    RxQrd => "rx.qrd",
    RxIngest => "rx.ingest",
    RxZf => "rx.zf",
    RxPilotPhase => "rx.pilot_phase",
    RxTiming => "rx.timing",
    RxEvm => "rx.evm",
    RxDemap => "rx.demap",
    RxHeader => "rx.header",
    RxViterbi => "rx.viterbi",
    RxDescramble => "rx.descramble",
    PipelineBatch => "pipeline.batch",
    TxstreamPull => "txstream.pull",
    TransportEncode => "transport.encode",
    TransportDecode => "transport.decode",
    StreamRxPush => "stream_rx.push",
    StreamRxClose => "stream_rx.close",
}

/// The RX leaf layers the replay times; `rx.uncovered` is `rx.burst`
/// minus their sum.
pub const RX_LEAVES: [Layer; 12] = [
    Layer::RxSync,
    Layer::RxChanest,
    Layer::RxQrd,
    Layer::RxIngest,
    Layer::RxZf,
    Layer::RxPilotPhase,
    Layer::RxTiming,
    Layer::RxEvm,
    Layer::RxDemap,
    Layer::RxHeader,
    Layer::RxViterbi,
    Layer::RxDescramble,
];

/// Per-layer self time of one burst, µs, indexed by `Layer as usize`.
pub type LayerTimes = Vec<f64>;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// A kept span, as written to the spans file.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub burst: u32,
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    burst: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Id offset of the current phase's spans within its burst (a
    /// burst may be traced in several phases).
    base: Vec<usize>,
    per_burst: Vec<LayerTimes>,
    kept: Vec<SpanRecord>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            burst: 0,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            base: Vec::new(),
            per_burst: Vec::new(),
            kept: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts (or resumes) tracing burst `burst`.
    pub fn start_burst(&mut self, burst: u32) {
        debug_assert!(self.spans.is_empty() && self.open.is_empty());
        self.burst = burst;
        let b = burst as usize;
        if self.per_burst.len() <= b {
            self.per_burst.resize(b + 1, vec![0.0; Layer::ALL.len()]);
            self.base.resize(b + 1, 0);
        }
    }

    pub fn begin(&mut self, layer: Layer) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id.0].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Closes a span under a layer known only once the call returned
    /// (the push that happens to close a burst).
    pub fn end_as(&mut self, id: SpanId, layer: Layer) {
        self.spans[id.0].layer = layer;
        self.end(id);
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer);
        let out = f();
        self.end(id);
        out
    }

    /// Folds the current phase's spans into the burst's per-layer self
    /// times and clears them.
    pub fn finish_burst(&mut self) {
        debug_assert!(self.open.is_empty(), "unclosed span at burst end");
        let intervals: Vec<Interval> = self
            .spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect();
        let b = self.burst as usize;
        for (s, own) in self.spans.iter().zip(self_times(&intervals)) {
            self.per_burst[b][s.layer as usize] += own as f64 / 1e3;
        }
        if self.burst < KEEP_BURSTS {
            let base = self.base[b];
            self.kept
                .extend(self.spans.iter().enumerate().map(|(i, s)| SpanRecord {
                    burst: self.burst,
                    id: base + i,
                    parent: s.parent.map(|p| base + p),
                    layer: s.layer,
                    start_ns: s.start,
                    end_ns: s.end,
                }));
        }
        self.base[b] += self.spans.len();
        self.spans.clear();
    }

    /// Charges `us` of `layer` time measured outside a span to `burst`
    /// (a batch call shared by several bursts).
    pub fn charge(&mut self, burst: u32, layer: Layer, us: f64) {
        self.per_burst[burst as usize][layer as usize] += us;
    }

    /// Per-burst per-layer self times, µs.
    pub fn per_burst(&self) -> &[LayerTimes] {
        &self.per_burst
    }

    pub fn kept(&self) -> &[SpanRecord] {
        &self.kept
    }
}

/// The kept spans as CSV: `burst,id,parent,name,start_ns,end_ns`.
pub fn spans_csv(spans: &[SpanRecord]) -> String {
    let mut out = String::from("burst,id,parent,name,start_ns,end_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(String::new, |p| p.to_string());
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            s.burst,
            s.id,
            parent,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_fold_into_self_times_per_burst() {
        let mut t = Tracer::new();
        t.start_burst(0);
        let root = t.begin(Layer::RxReplay);
        let leaf = t.begin(Layer::RxSync);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(leaf);
        t.end(root);
        t.finish_burst();
        // A second phase of the same burst accumulates.
        t.start_burst(0);
        t.span(Layer::RxSync, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.finish_burst();
        let times = &t.per_burst()[0];
        assert!(times[Layer::RxSync as usize] >= 3000.0);
        assert!(times[Layer::RxReplay as usize] < times[Layer::RxSync as usize]);
        let kept = t.kept();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[1].parent, Some(0));
        assert_eq!(kept[2].id, 2);
        assert!(spans_csv(kept)
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("0,1,0,rx.sync,"));
    }
}
