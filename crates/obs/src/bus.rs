//! The event bus: one emission point, pluggable sinks.
//!
//! The machine model and the schedulers emit [`ObsRecord`]s into an
//! [`EventBus`]; the bus fans each record out to every attached
//! [`Sink`]. Three sinks cover the paper-reproduction needs:
//!
//! * [`RingSink`] — the bounded in-memory log (`Machine::trace()`), kept
//!   for post-run inspection and trace-diffing;
//! * [`JsonLinesSink`] — streams each record as one JSON line to any
//!   `io::Write`, for `--trace-out <path>`;
//! * [`CallbackSink`] — hands each record to a closure, for tests and
//!   ad-hoc online analysis.
//!
//! Emission is deterministic: records flow to sinks in attachment order,
//! synchronously, at the virtual time the emitter supplies.

use crate::event::{ObsEvent, ObsRecord};
use elsc_simcore::Cycles;
use std::io::Write;

/// A consumer of observability records.
pub trait Sink {
    /// Receives one record.
    fn record(&mut self, rec: &ObsRecord);

    /// Called once when the run ends; flush buffers here.
    fn finish(&mut self) {}
}

/// A bounded in-memory event log.
///
/// Off by default (capacity 0) and bounded — once full, further events
/// are dropped and counted, so a trace can never blow up a long run.
#[derive(Debug, Default)]
pub struct RingSink {
    records: Vec<ObsRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a log holding at most `capacity` records (0 disables).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            records: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether recording is enabled at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (drops it if full or disabled).
    #[inline]
    pub fn record(&mut self, at: Cycles, event: ObsEvent) {
        if self.records.len() < self.capacity {
            self.records.push(ObsRecord { at, event });
        } else if self.capacity > 0 {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    pub fn records(&self) -> &[ObsRecord] {
        &self.records
    }

    /// Events dropped after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over the events of one kind via a filter closure.
    pub fn filter<'a, F>(&'a self, f: F) -> impl Iterator<Item = &'a ObsRecord>
    where
        F: Fn(&ObsEvent) -> bool + 'a,
    {
        self.records.iter().filter(move |r| f(&r.event))
    }

    /// Verifies the fundamental trace invariant: timestamps are
    /// non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if time ran backwards anywhere in the log.
    pub fn check_monotone(&self) {
        for pair in self.records.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "trace time ran backwards: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

impl Sink for RingSink {
    fn record(&mut self, rec: &ObsRecord) {
        RingSink::record(self, rec.at, rec.event);
    }
}

/// Streams each record as one JSON line to a writer.
pub struct JsonLinesSink<W: Write> {
    writer: W,
    written: u64,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink { writer, written: 0 }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> Sink for JsonLinesSink<W> {
    fn record(&mut self, rec: &ObsRecord) {
        // An observability sink must never abort the simulation; on I/O
        // failure the line is simply lost (matching the bounded ring's
        // drop semantics).
        if writeln!(self.writer, "{}", rec.to_json_line()).is_ok() {
            self.written += 1;
        }
    }

    fn finish(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Hands each record to a closure.
pub struct CallbackSink<F: FnMut(&ObsRecord)> {
    f: F,
}

impl<F: FnMut(&ObsRecord)> CallbackSink<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> CallbackSink<F> {
        CallbackSink { f }
    }
}

impl<F: FnMut(&ObsRecord)> Sink for CallbackSink<F> {
    fn record(&mut self, rec: &ObsRecord) {
        (self.f)(rec);
    }
}

/// The emission hub: a built-in bounded ring plus external sinks.
///
/// The bus tracks the current virtual time ([`EventBus::set_now`]) so
/// emitters deep inside a scheduler — which have no clock access — can
/// timestamp events correctly with a plain [`EventBus::emit`].
#[derive(Default)]
pub struct EventBus {
    now: Cycles,
    ring: RingSink,
    sinks: Vec<Box<dyn Sink>>,
}

impl EventBus {
    /// Creates a bus whose built-in ring holds `ring_capacity` records
    /// (0 disables the ring; external sinks still receive everything).
    pub fn new(ring_capacity: usize) -> EventBus {
        EventBus {
            now: Cycles(0),
            ring: RingSink::new(ring_capacity),
            sinks: Vec::new(),
        }
    }

    /// Attaches an external sink; records flow in attachment order.
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// Whether anything is listening (ring enabled or sinks attached).
    /// Lets emitters skip building events nobody will see.
    #[inline]
    pub fn active(&self) -> bool {
        self.ring.enabled() || !self.sinks.is_empty()
    }

    /// Updates the bus clock; subsequent [`EventBus::emit`]s use it.
    #[inline]
    pub fn set_now(&mut self, now: Cycles) {
        self.now = now;
    }

    /// The bus clock.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Emits `event` at the current bus time.
    #[inline]
    pub fn emit(&mut self, event: ObsEvent) {
        self.emit_at(self.now, event);
    }

    /// Emits `event` at an explicit virtual time.
    pub fn emit_at(&mut self, at: Cycles, event: ObsEvent) {
        if !self.active() {
            return;
        }
        let rec = ObsRecord { at, event };
        self.ring.record(at, event);
        for s in &mut self.sinks {
            s.record(&rec);
        }
    }

    /// The built-in bounded ring.
    pub fn ring(&self) -> &RingSink {
        &self.ring
    }

    /// Records dropped by the built-in ring.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Finishes every sink (flushes writers). Idempotent per sink
    /// implementation; call once when the run ends.
    pub fn finish(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("now", &self.now)
            .field("ring", &self.ring)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::Tid;
    use std::sync::{Arc, Mutex};

    fn tid(i: u32) -> Tid {
        Tid::from_raw(i, 0)
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut t = RingSink::new(0);
        assert!(!t.enabled());
        t.record(Cycles(1), ObsEvent::Exit { tid: tid(1) });
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0, "disabled is not 'full'");
    }

    #[test]
    fn bounded_capacity_drops_overflow() {
        let mut t = RingSink::new(2);
        for i in 0..5 {
            t.record(Cycles(i), ObsEvent::Exit { tid: tid(i as u32) });
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn filter_selects_kinds() {
        let mut t = RingSink::new(10);
        t.record(
            Cycles(1),
            ObsEvent::Wakeup {
                tid: tid(1),
                by_cpu: 0,
            },
        );
        t.record(
            Cycles(2),
            ObsEvent::Switch {
                cpu: 0,
                from: tid(0),
                to: tid(1),
            },
        );
        t.record(Cycles(3), ObsEvent::Exit { tid: tid(1) });
        let switches: Vec<_> = t.filter(|e| matches!(e, ObsEvent::Switch { .. })).collect();
        assert_eq!(switches.len(), 1);
        assert_eq!(switches[0].at, Cycles(2));
    }

    #[test]
    fn monotone_check_passes_in_order() {
        let mut t = RingSink::new(4);
        t.record(Cycles(1), ObsEvent::Exit { tid: tid(1) });
        t.record(Cycles(1), ObsEvent::Exit { tid: tid(2) });
        t.record(Cycles(5), ObsEvent::Exit { tid: tid(3) });
        t.check_monotone();
    }

    #[test]
    #[should_panic(expected = "ran backwards")]
    fn monotone_check_catches_regression() {
        let mut t = RingSink::new(4);
        t.record(Cycles(5), ObsEvent::Exit { tid: tid(1) });
        t.record(Cycles(1), ObsEvent::Exit { tid: tid(2) });
        t.check_monotone();
    }

    #[test]
    fn bus_fans_out_to_all_sinks() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut bus = EventBus::new(4);
        bus.add_sink(Box::new(CallbackSink::new(move |r: &ObsRecord| {
            seen2.lock().unwrap().push(*r);
        })));
        bus.set_now(Cycles(10));
        bus.emit(ObsEvent::Exit { tid: tid(1) });
        bus.emit_at(Cycles(11), ObsEvent::Exit { tid: tid(2) });
        assert_eq!(bus.ring().records().len(), 2);
        assert_eq!(bus.ring().records()[0].at, Cycles(10));
        let got = seen.lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].at, Cycles(11));
    }

    #[test]
    fn inactive_bus_skips_everything() {
        let mut bus = EventBus::new(0);
        assert!(!bus.active());
        bus.emit(ObsEvent::Exit { tid: tid(1) });
        assert_eq!(bus.ring().records().len(), 0);
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_record() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf);
            sink.record(&ObsRecord {
                at: Cycles(1),
                event: ObsEvent::Exit { tid: tid(7) },
            });
            sink.record(&ObsRecord {
                at: Cycles(2),
                event: ObsEvent::QueueDepthSample { cpu: 0, depth: 3 },
            });
            assert_eq!(sink.written(), 2);
            sink.finish();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"at\":1,\"event\":\"exit\",\"tid\":7}\n{\"at\":2,\"event\":\"queue_depth\",\"cpu\":0,\"depth\":3}\n"
        );
    }
}
