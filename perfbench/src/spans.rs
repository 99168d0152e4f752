//! Span recording for the traced run.
//!
//! Spans live in memory reserved (and touched) before the window
//! starts; recording copies a few integers into it and never allocates.
//! A full log drops further spans and counts them. The logs are written
//! out as little-endian binary records when the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One `ServingCore::process_batch` call, as seen by the handler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerSpan {
    /// Call start, ns since the log's base instant.
    pub start_ns: u64,
    /// Call end, ns since the log's base instant.
    pub end_ns: u64,
    /// Dispatcher lane the batch ran on.
    pub lane: u32,
    /// Queries in the batch.
    pub queries: u32,
}

impl HandlerSpan {
    /// Call duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client request: send and reply instants, ns since the client
/// log's base instant. The request index is the span's position in its
/// connection's log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientSpan {
    /// When the request's bytes were handed to the socket.
    pub send_ns: u64,
    /// When its reply had been read and verified.
    pub reply_ns: u64,
}

/// A `Vec` whose capacity is reserved and whose pages are touched up
/// front, so pushes within capacity neither allocate nor fault.
#[must_use]
pub fn touched_vec<T: Copy + Default>(capacity: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity);
    v.resize(capacity, T::default());
    v.clear();
    v
}

/// Push `item` if `v` has room; returns whether it did.
#[inline]
pub fn push_within_capacity<T>(v: &mut Vec<T>, item: T) -> bool {
    if v.len() < v.capacity() {
        v.push(item);
        true
    } else {
        false
    }
}

/// The handler's span log, shared with the server's dispatcher threads.
#[derive(Debug)]
pub struct HandlerLog {
    base: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<HandlerSpan>>,
    dropped: AtomicU64,
}

impl HandlerLog {
    /// A switched-off log with room for `capacity` spans.
    #[must_use]
    pub fn new(base: Instant, capacity: usize) -> HandlerLog {
        HandlerLog {
            base,
            on: AtomicBool::new(false),
            spans: Mutex::new(touched_vec(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether the handler should record spans now.
    #[inline]
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Start or stop recording.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Record one call.
    pub fn record(&self, lane: usize, queries: usize, start: Instant, end: Instant) {
        let span = HandlerSpan {
            start_ns: start.duration_since(self.base).as_nanos() as u64,
            end_ns: end.duration_since(self.base).as_nanos() as u64,
            lane: lane as u32,
            queries: queries as u32,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span log lock poisoned by a panic");
        if !push_within_capacity(&mut spans, span) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans dropped because the log was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of every recorded span.
    #[must_use]
    pub fn spans(&self) -> Vec<HandlerSpan> {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panic")
            .clone()
    }
}

/// Write the handler log and each connection's client log to `dir` as
/// `<workload>.handler.bin` (start, end, lane, queries: u64 u64 u32 u32)
/// and `<workload>.client.bin` (connection, request index, send, reply:
/// u32 u32 u64 u64). Both clocks share one base instant.
pub fn write_spans(
    dir: &Path,
    workload: &str,
    handler: &[HandlerSpan],
    clients: &[Vec<ClientSpan>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.handler.bin")),
    )?);
    for s in handler {
        out.write_all(&s.start_ns.to_le_bytes())?;
        out.write_all(&s.end_ns.to_le_bytes())?;
        out.write_all(&s.lane.to_le_bytes())?;
        out.write_all(&s.queries.to_le_bytes())?;
    }
    out.flush()?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.client.bin")),
    )?);
    for (conn, spans) in clients.iter().enumerate() {
        for (idx, s) in spans.iter().enumerate() {
            out.write_all(&(conn as u32).to_le_bytes())?;
            out.write_all(&(idx as u32).to_le_bytes())?;
            out.write_all(&s.send_ns.to_le_bytes())?;
            out.write_all(&s.reply_ns.to_le_bytes())?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn log_records_only_while_on_and_never_grows() {
        let base = Instant::now();
        let log = HandlerLog::new(base, 2);
        assert!(!log.is_on());
        log.set_on(true);
        let t = base + Duration::from_micros(5);
        log.record(0, 16, t, t + Duration::from_micros(3));
        log.record(0, 8, t, t + Duration::from_micros(1));
        log.record(0, 4, t, t);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(spans[0].queries, 16);
        assert_eq!(spans[0].duration_ns(), 3_000);
        assert_eq!(log.spans.lock().unwrap().capacity(), 2);
    }

    #[test]
    fn push_within_capacity_refuses_to_reallocate() {
        let mut v: Vec<ClientSpan> = touched_vec(1);
        let ptr = v.as_ptr();
        assert!(push_within_capacity(&mut v, ClientSpan::default()));
        assert!(!push_within_capacity(&mut v, ClientSpan::default()));
        assert_eq!(v.as_ptr(), ptr);
    }
}
