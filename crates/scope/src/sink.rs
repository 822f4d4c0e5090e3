//! Trace sinks: where instrumented layers deliver their [`Event`]s.
//!
//! Two shapes are provided: a bounded [`RingSink`] (drops the oldest event
//! bodies under pressure but keeps exact per-kind counts — what a fleet
//! node carries), and an unbounded [`StreamSink`] (retains everything —
//! what `harbor-trace` and the profiler use). [`ScopeSink`] wraps both in a
//! concrete `Clone`-able enum so machine environments that are themselves
//! plain values (`UmpuEnv`, `SosSystem`) can own a sink.
//!
//! A ring sink can additionally carry a [`KindMask`]: event kinds outside
//! the mask are not recorded *and*, at instrumentation sites that consult
//! [`ScopeSink::accepts`] before constructing the event, never even built.
//! That is what keeps an always-on flight recorder (`harbor-blackbox`)
//! cheap: the per-store check events are filtered out before any work
//! happens, while the rare protection events still land in the ring.

use crate::event::{Event, EventKind};

/// Receiver of trace events. Instrumentation sites take
/// `Option<&mut dyn TraceSink>` (or test for an attached concrete sink)
/// so the disabled path does not even construct the event.
pub trait TraceSink {
    /// Records one event. Implementations must not reorder events.
    fn record(&mut self, ev: &Event);
}

/// Exact per-kind event counts, maintained by every sink even when event
/// bodies are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindCounts([u64; EventKind::COUNT]);

impl Default for KindCounts {
    fn default() -> Self {
        KindCounts([0; EventKind::COUNT])
    }
}

impl KindCounts {
    #[inline]
    fn bump(&mut self, kind: EventKind) {
        self.0[kind.index()] += 1;
    }

    /// Count of events of `kind` recorded so far.
    pub const fn get(&self, kind: EventKind) -> u64 {
        self.0[kind.index()]
    }

    /// The raw per-kind array, indexed by [`EventKind::index`].
    pub const fn as_array(&self) -> &[u64; EventKind::COUNT] {
        &self.0
    }
}

/// A set of [`EventKind`]s, as one bit per kind. `Copy`, so configuration
/// structs can carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(u16);

impl KindMask {
    /// Every kind enabled (the default for plain sinks).
    pub const ALL: KindMask = KindMask(u16::MAX);

    /// No kind enabled.
    pub const NONE: KindMask = KindMask(0);

    /// This mask with `kind` enabled.
    #[must_use]
    pub const fn with(self, kind: EventKind) -> KindMask {
        KindMask(self.0 | 1 << kind.index())
    }

    /// This mask with `kind` disabled.
    #[must_use]
    pub const fn without(self, kind: EventKind) -> KindMask {
        KindMask(self.0 & !(1 << kind.index()))
    }

    /// Whether `kind` is enabled.
    #[inline]
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & 1 << kind.index() != 0
    }
}

impl Default for KindMask {
    fn default() -> Self {
        KindMask::ALL
    }
}

/// Bounded ring-buffer sink: retains the most recent `capacity` events,
/// dropping the oldest bodies when full. Per-kind counts stay exact
/// regardless of drops, so metrics built on a ring sink never undercount.
/// An optional [`KindMask`] filters whole kinds out *before* recording —
/// a masked kind is as if it never happened (not retained, not counted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSink {
    capacity: usize,
    mask: KindMask,
    buf: Vec<Event>,
    /// Once the buffer is saturated, the slot the next event overwrites —
    /// which is also where the oldest retained event lives. A wrapping
    /// cursor makes the saturated push a single slot store, where a deque
    /// pop-then-push costs several times as much on the recorder hot path.
    head: usize,
    recorded: u64,
    dropped: u64,
    counts: KindCounts,
}

impl RingSink {
    /// A ring sink retaining at most `capacity` events (minimum 1), all
    /// kinds enabled.
    pub fn new(capacity: usize) -> RingSink {
        RingSink::with_mask(capacity, KindMask::ALL)
    }

    /// A ring sink recording only the kinds in `mask`.
    pub fn with_mask(capacity: usize, mask: KindMask) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            mask,
            buf: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            dropped: 0,
            counts: KindCounts::default(),
        }
    }

    /// The retention capacity.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// The kind filter.
    pub const fn mask(&self) -> KindMask {
        self.mask
    }

    /// The retained events, oldest first. The cursor is 0 until the ring
    /// saturates, so the unsaturated buffer is already in order.
    fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }
}

impl TraceSink for RingSink {
    #[inline]
    fn record(&mut self, ev: &Event) {
        let kind = ev.kind();
        if !self.mask.contains(kind) {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(*ev);
        } else {
            self.buf[self.head] = *ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
        self.recorded += 1;
        self.counts.bump(kind);
    }
}

/// Events per allocation chunk of a [`StreamSink`]. Chunking keeps pushes
/// O(1) without ever copying the backlog: a growing `Vec` would move the
/// whole event history on each reallocation, which is what made unbounded
/// sinks superlinear at fleet scale.
const STREAM_CHUNK: usize = 1024;

/// Unbounded streaming sink: retains every event in order. Storage is
/// chunked (`STREAM_CHUNK` events per allocation) so recording never
/// relocates previously retained events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSink {
    chunks: Vec<Vec<Event>>,
    total: u64,
    counts: KindCounts,
}

impl StreamSink {
    /// An empty streaming sink.
    pub fn new() -> StreamSink {
        StreamSink::default()
    }

    /// Events retained.
    pub const fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub const fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.total as usize);
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// The last `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let n = n.min(self.total as usize);
        let mut out = Vec::with_capacity(n);
        let mut skip = self.total as usize - n;
        for chunk in &self.chunks {
            if skip >= chunk.len() {
                skip -= chunk.len();
                continue;
            }
            out.extend_from_slice(&chunk[skip..]);
            skip = 0;
        }
        out
    }
}

impl TraceSink for StreamSink {
    #[inline]
    fn record(&mut self, ev: &Event) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < STREAM_CHUNK => chunk.push(*ev),
            _ => {
                let mut chunk = Vec::with_capacity(STREAM_CHUNK);
                chunk.push(*ev);
                self.chunks.push(chunk);
            }
        }
        self.total += 1;
        self.counts.bump(ev.kind());
    }
}

/// A concrete, `Clone`-able sink — the form machine environments own.
///
/// `Box<dyn TraceSink>` cannot be cloned, but the simulator's environments
/// (`UmpuEnv`, `SosSystem`, fleet nodes) are plain values that get cloned
/// for snapshot/replay and per-node fan-out, so the owned sink is this enum
/// instead; the [`TraceSink`] trait remains the instrumentation interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeSink {
    /// Bounded retention (fleet nodes).
    Ring(RingSink),
    /// Unbounded retention (tracing/profiling runs).
    Stream(StreamSink),
}

impl ScopeSink {
    /// A ring sink of `capacity` events.
    pub fn ring(capacity: usize) -> ScopeSink {
        ScopeSink::Ring(RingSink::new(capacity))
    }

    /// A ring sink of `capacity` events recording only the kinds in `mask`.
    pub fn masked_ring(capacity: usize, mask: KindMask) -> ScopeSink {
        ScopeSink::Ring(RingSink::with_mask(capacity, mask))
    }

    /// An unbounded streaming sink.
    pub fn stream() -> ScopeSink {
        ScopeSink::Stream(StreamSink::new())
    }

    /// Whether this sink records events of `kind`. Instrumentation sites on
    /// hot paths consult this *before* constructing the event, so a masked
    /// kind costs one bit test instead of an event build + record.
    #[inline]
    pub const fn accepts(&self, kind: EventKind) -> bool {
        match self {
            ScopeSink::Ring(r) => r.mask.contains(kind),
            ScopeSink::Stream(_) => true,
        }
    }

    /// The retained events, oldest first. A ring sink returns only what it
    /// still holds; pair with [`ScopeSink::dropped`] to know what was shed.
    pub fn events(&self) -> Vec<Event> {
        match self {
            ScopeSink::Ring(r) => r.iter().copied().collect(),
            ScopeSink::Stream(s) => s.events(),
        }
    }

    /// The last `n` retained events, oldest first (cheap cursor for
    /// per-instruction draining; `n` never exceeds what one instruction can
    /// emit, so a ring sink with a sane capacity always still holds them).
    pub fn tail(&self, n: usize) -> Vec<Event> {
        match self {
            ScopeSink::Ring(r) => {
                let skip = r.buf.len().saturating_sub(n);
                r.iter().skip(skip).copied().collect()
            }
            ScopeSink::Stream(s) => s.tail(n),
        }
    }

    /// Total events recorded (including any dropped bodies).
    #[inline]
    pub const fn recorded(&self) -> u64 {
        match self {
            ScopeSink::Ring(r) => r.recorded,
            ScopeSink::Stream(s) => s.total,
        }
    }

    /// Event bodies dropped under pressure (ring sinks only).
    #[inline]
    pub const fn dropped(&self) -> u64 {
        match self {
            ScopeSink::Ring(r) => r.dropped,
            ScopeSink::Stream(_) => 0,
        }
    }

    /// Exact per-kind counts (never affected by drops).
    pub const fn kind_counts(&self) -> &KindCounts {
        match self {
            ScopeSink::Ring(r) => &r.counts,
            ScopeSink::Stream(s) => &s.counts,
        }
    }
}

impl TraceSink for ScopeSink {
    #[inline]
    fn record(&mut self, ev: &Event) {
        match self {
            ScopeSink::Ring(r) => r.record(ev),
            ScopeSink::Stream(s) => s.record(ev),
        }
    }
}

/// Declarative sink choice — `Copy`, so configuration structs that are
/// `Copy` (e.g. `harbor_fleet::FleetConfig`) can carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkSpec {
    /// A bounded ring sink of the given capacity.
    Ring(usize),
    /// A bounded ring sink recording only the kinds in the mask.
    MaskedRing(usize, KindMask),
    /// An unbounded streaming sink.
    Stream,
}

impl SinkSpec {
    /// Builds the sink this spec describes.
    pub fn build(self) -> ScopeSink {
        match self {
            SinkSpec::Ring(cap) => ScopeSink::ring(cap),
            SinkSpec::MaskedRing(cap, mask) => ScopeSink::masked_ring(cap, mask),
            SinkSpec::Stream => ScopeSink::stream(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycles: u64) -> Event {
        Event::Recovery { cycles }
    }

    #[test]
    fn ring_drops_oldest_but_counts_exactly() {
        let mut s = ScopeSink::ring(3);
        for c in 0..10 {
            s.record(&ev(c));
        }
        assert_eq!(s.recorded(), 10);
        assert_eq!(s.dropped(), 7);
        let kept: Vec<u64> = s.events().iter().map(Event::cycles).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(s.kind_counts().get(EventKind::Recovery), 10);
        assert_eq!(s.kind_counts().get(EventKind::Fault), 0);
    }

    #[test]
    fn stream_retains_everything_in_order() {
        let mut s = ScopeSink::stream();
        for c in 0..5 {
            s.record(&ev(c));
        }
        assert_eq!(s.recorded(), 5);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.events().len(), 5);
        assert_eq!(s.tail(2).iter().map(Event::cycles).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn stream_chunking_preserves_order_across_boundaries() {
        let mut s = StreamSink::new();
        let n = STREAM_CHUNK as u64 * 3 + 17;
        for c in 0..n {
            s.record(&ev(c));
        }
        assert_eq!(s.len(), n);
        let all: Vec<u64> = s.events().iter().map(Event::cycles).collect();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        let tail: Vec<u64> = s.tail(STREAM_CHUNK + 5).iter().map(Event::cycles).collect();
        assert_eq!(tail, (n - STREAM_CHUNK as u64 - 5..n).collect::<Vec<_>>());
    }

    #[test]
    fn tail_larger_than_retained_is_everything() {
        let mut s = ScopeSink::ring(2);
        s.record(&ev(1));
        assert_eq!(s.tail(10).len(), 1);
        let mut s = ScopeSink::stream();
        s.record(&ev(1));
        assert_eq!(s.tail(10).len(), 1);
    }

    #[test]
    fn masked_ring_filters_before_counting() {
        let mask = KindMask::NONE.with(EventKind::Fault).with(EventKind::Recovery);
        assert!(mask.contains(EventKind::Fault));
        assert!(!mask.contains(EventKind::MemMapCheck));
        let mut s = ScopeSink::masked_ring(8, mask.without(EventKind::Recovery));
        assert!(s.accepts(EventKind::Fault));
        assert!(!s.accepts(EventKind::Recovery));
        s.record(&Event::Fault { cycles: 1, code: 2, addr: 3, info: 4 });
        s.record(&ev(2)); // Recovery: masked out entirely.
        assert_eq!(s.recorded(), 1);
        assert_eq!(s.events().len(), 1);
        assert_eq!(s.kind_counts().get(EventKind::Recovery), 0);
        assert_eq!(s.kind_counts().get(EventKind::Fault), 1);
    }

    #[test]
    fn unmasked_sinks_accept_everything() {
        for sink in [ScopeSink::ring(4), ScopeSink::stream()] {
            for kind in EventKind::ALL {
                assert!(sink.accepts(kind));
            }
        }
    }

    #[test]
    fn sink_spec_builds_the_right_shape() {
        assert!(matches!(SinkSpec::Ring(8).build(), ScopeSink::Ring(_)));
        assert!(matches!(SinkSpec::Stream.build(), ScopeSink::Stream(_)));
        let masked = SinkSpec::MaskedRing(8, KindMask::NONE.with(EventKind::Fault)).build();
        assert!(masked.accepts(EventKind::Fault));
        assert!(!masked.accepts(EventKind::MemMapCheck));
    }

    #[test]
    fn sinks_clone_with_contents() {
        let mut s = ScopeSink::stream();
        s.record(&ev(9));
        let c = s.clone();
        assert_eq!(c, s);
    }
}
