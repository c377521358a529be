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

    /// Records this sink received but lost (a full ring, a failed write).
    fn dropped(&self) -> u64 {
        0
    }
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

    fn dropped(&self) -> u64 {
        RingSink::dropped(self)
    }
}

/// Streams each record as one JSON line to a writer.
///
/// The sink owns one line buffer: each record is serialized into it in
/// place (`ObsRecord::write_json_bytes`), the `\n` is appended, and
/// the line reaches the writer as a single `write_all` — once the buffer
/// has grown to the longest line, a record costs no allocation.
pub struct JsonLinesSink<W: Write> {
    writer: W,
    line: Vec<u8>,
    written: u64,
    dropped: u64,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            writer,
            line: Vec::new(),
            written: 0,
            dropped: 0,
        }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Lines the writer refused, plus one for a flush that failed at
    /// [`finish`](Sink::finish) (a buffering writer reports there what it
    /// lost, without saying how many lines that was).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<W: Write> Sink for JsonLinesSink<W> {
    fn record(&mut self, rec: &ObsRecord) {
        rec.write_json_bytes(&mut self.line);
        self.line.push(b'\n');
        // An observability sink must never abort the simulation; on I/O
        // failure the line is lost and counted (matching the bounded
        // ring's drop semantics).
        match self.writer.write_all(&self.line) {
            Ok(()) => self.written += 1,
            Err(_) => self.dropped += 1,
        }
    }

    fn finish(&mut self) {
        if self.writer.flush().is_err() {
            self.dropped += 1;
        }
    }

    fn dropped(&self) -> u64 {
        JsonLinesSink::dropped(self)
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

    /// Records lost anywhere on the bus: dropped by the built-in ring
    /// once full, or by an attached sink (a trace file that stopped
    /// taking writes).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped() + self.sinks.iter().map(|s| s.dropped()).sum::<u64>()
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

    /// A mixed stream: short and long lines, numeric and string fields.
    fn mixed_record(i: u64) -> ObsRecord {
        let event = match i % 4 {
            0 => ObsEvent::Exit { tid: tid(i as u32) },
            1 => ObsEvent::Switch {
                cpu: 1,
                from: tid(i as u32),
                to: tid(i as u32 + 1),
            },
            2 => ObsEvent::SchedCandidate {
                cpu: 0,
                tid: tid(i as u32),
                counter: i,
                priority: 20,
                rt: 0,
                mm_match: 1,
                affinity: 15,
                recency: 255,
            },
            _ => ObsEvent::FaultInjected {
                cpu: 0,
                fault: "tick_jitter",
            },
        };
        ObsRecord {
            at: Cycles(i * 1_000_003),
            event,
        }
    }

    #[test]
    fn json_lines_sink_reuses_its_line_buffer_and_writes_once_per_record() {
        /// Counts `write` calls and checks each one carries one whole line.
        #[derive(Default)]
        struct CountingWriter {
            writes: u64,
            bytes: u64,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                assert_eq!(buf.last(), Some(&b'\n'));
                assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 1);
                self.writes += 1;
                self.bytes += buf.len() as u64;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = JsonLinesSink::new(CountingWriter::default());
        // Warm up on the longest line of the mix (the widest `at` and
        // counter the loop reaches), so the buffer never has to grow again.
        sink.record(&mixed_record(9_998));
        let (ptr, cap) = (sink.line.as_ptr(), sink.line.capacity());
        let mut expected_bytes = sink.writer.bytes;
        for i in 0..10_000 {
            let rec = mixed_record(i);
            sink.record(&rec);
            expected_bytes += rec.to_json_line().len() as u64 + 1;
        }
        assert_eq!((sink.line.as_ptr(), sink.line.capacity()), (ptr, cap));
        assert_eq!(sink.writer.writes, 10_001);
        assert_eq!(sink.writer.bytes, expected_bytes);
        assert_eq!((sink.written(), sink.dropped()), (10_001, 0));
    }

    #[test]
    fn lost_lines_are_counted_by_the_sink_and_the_bus() {
        /// Accepts `room` bytes, then fails every write (a full disk).
        struct FullAfter {
            room: usize,
        }
        impl Write for FullAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.room {
                    self.room = 0;
                    return Err(std::io::Error::other("no space left on device"));
                }
                self.room -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = JsonLinesSink::new(FullAfter { room: 200 });
        for i in 0..50 {
            sink.record(&mixed_record(i));
        }
        sink.finish();
        assert!(sink.written() > 0 && sink.dropped() > 0);
        assert_eq!(sink.written() + sink.dropped(), 50);

        // The bus adds its sinks' losses to the ring's own.
        let mut bus = EventBus::new(2);
        bus.add_sink(Box::new(JsonLinesSink::new(FullAfter { room: 0 })));
        for i in 0..5 {
            bus.emit_at(Cycles(i), ObsEvent::Exit { tid: tid(1) });
        }
        assert_eq!(bus.ring().dropped(), 3);
        assert_eq!(bus.dropped(), 3 + 5);
    }

    #[test]
    fn a_failed_flush_counts_as_a_loss() {
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("no space left on device"))
            }
        }
        let mut sink = JsonLinesSink::new(FailingFlush);
        sink.record(&mixed_record(1));
        assert_eq!(Sink::dropped(&sink), 0);
        sink.finish();
        assert_eq!(Sink::dropped(&sink), 1);
    }
}
