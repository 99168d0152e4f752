//! The closed-loop client of one connection.
//!
//! Each connection keeps a fixed number of requests in flight: it
//! sends a window, and every verified reply releases one slot that the
//! next request from the connection's pool refills. Replies read
//! together are verified in order and their slots refilled with one
//! write.

use crate::spans::{push_within_capacity, ClientSpan};
use crate::verify::{Carved, Proto, Tally, ValueTable};
use crate::workload::Pool;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Phase: traffic runs, nothing is recorded.
pub const WARM: u32 = 0;
/// Phase: no new requests; drain the outstanding ones.
pub const STOP: u32 = u32::MAX;

/// Phase: traffic runs and replies are recorded into slice `slice` of
/// the measured window.
#[must_use]
pub fn measuring(slice: usize) -> u32 {
    u32::try_from(slice + 1).expect("slice index fits the phase word")
}

/// Longest a connection waits for bytes before giving its outstanding
/// requests up as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Initial receive buffer; grows only for a reply larger than it.
const RECV_BUF: usize = 256 << 10;

/// One client connection and its position in its pool.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Next pool request to send.
    next: usize,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            next: 0,
            buf: vec![0; RECV_BUF],
        })
    }
}

/// What a connection records for replies that arrive while measuring.
#[derive(Debug)]
pub enum Record {
    /// Send-to-reply latency, ns.
    Latency(Vec<u32>),
    /// Send and reply instants.
    Spans(Vec<ClientSpan>),
}

impl Record {
    /// Samples recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Record::Latency(v) => v.len(),
            Record::Spans(v) => v.len(),
        }
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latency of sample `i`, ns.
    #[must_use]
    pub fn latency_ns(&self, i: usize) -> u32 {
        match self {
            Record::Latency(v) => v[i],
            Record::Spans(v) => (v[i].reply_ns - v[i].send_ns).min(u64::from(u32::MAX)) as u32,
        }
    }
}

/// Replies of one slice of the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceTally {
    /// Queries answered in the slice.
    pub queries: u64,
    /// The record's length when the slice ended: the slice's samples
    /// follow those of the slice before.
    pub samples_end: usize,
}

/// What one drive of a connection observed.
#[derive(Debug)]
pub struct DriveReport {
    /// Every request of the drive, warm-up and drain included.
    pub all: Tally,
    /// Requests whose reply arrived while measuring.
    pub measured: Tally,
    /// The samples, in reply order.
    pub record: Record,
    /// Per-slice counts, in slice order.
    pub slices: Vec<SliceTally>,
    /// Measured replies not recorded because the buffer was full.
    pub unrecorded: u64,
    /// The error that ended the drive early, if any.
    pub error: Option<String>,
}

/// How long a drive runs.
#[derive(Debug, Clone, Copy)]
pub enum Until<'a> {
    /// Send every pool request once, then finish.
    PoolEnd,
    /// Cycle through the pool until the phase reads [`STOP`].
    Stopped(&'a AtomicU32),
}

/// Drive `conn` over `pool` with `window` requests in flight, checking
/// every reply. `base` anchors span instants.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conn: &mut Conn,
    proto: Proto,
    pool: &Pool,
    values: &ValueTable,
    window: usize,
    until: Until<'_>,
    base: Instant,
    mut record: Record,
) -> DriveReport {
    assert!(
        window <= pool.len(),
        "a window larger than its pool would resend requests in flight"
    );
    let mut all = Tally::default();
    let mut measured = Tally::default();
    let mut unrecorded = 0u64;
    // Room for every slice of the longest (60 s) window.
    let mut slices: Vec<SliceTally> = Vec::with_capacity(256);
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut to_send = match until {
        Until::PoolEnd => pool.len(),
        Until::Stopped(_) => usize::MAX,
    };
    let mut filled = 0usize;
    let mut need = window;
    let error = loop {
        let phase = match until {
            Until::PoolEnd => WARM,
            Until::Stopped(p) => p.load(Ordering::Relaxed),
        };
        if phase == STOP {
            to_send = 0;
        }
        let burst = need.min(to_send);
        if burst > 0 {
            if let Err(e) = send(conn, pool, burst, &mut inflight) {
                break Some(format!("send: {e}"));
            }
            to_send -= burst;
        }
        need -= burst;
        if inflight.is_empty() {
            break None;
        }
        if filled == conn.buf.len() {
            conn.buf.resize(conn.buf.len() * 2, 0);
        }
        let n = match conn.stream.read(&mut conn.buf[filled..]) {
            Ok(0) => break Some("server closed the connection".to_string()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Some(format!("receive: {e}")),
        };
        filled += n;
        let now = Instant::now();
        let phase = match until {
            Until::PoolEnd => WARM,
            Until::Stopped(p) => p.load(Ordering::Relaxed),
        };
        let mut pos = 0;
        let garbage = loop {
            let reply_len = match proto.carve(&conn.buf[pos..filled]) {
                Carved::Partial => break false,
                Carved::Garbage => break true,
                Carved::Reply(len) => len,
            };
            let Some((idx, sent)) = inflight.pop_front() else {
                break true;
            };
            let mut t = Tally::default();
            proto.check(
                &conn.buf[pos..pos + reply_len],
                pool.ops(idx),
                values,
                &mut t,
            );
            pos += reply_len;
            need += 1;
            all += t;
            if phase != WARM && phase != STOP {
                measured += t;
                let slice = phase as usize - 1;
                if slices.len() <= slice {
                    let samples_end = record.len();
                    slices.resize(
                        slice + 1,
                        SliceTally {
                            queries: 0,
                            samples_end,
                        },
                    );
                }
                let kept = match &mut record {
                    Record::Latency(v) => push_within_capacity(
                        v,
                        (now - sent).as_nanos().min(u32::MAX as u128) as u32,
                    ),
                    Record::Spans(v) => push_within_capacity(
                        v,
                        ClientSpan {
                            send_ns: (sent - base).as_nanos() as u64,
                            reply_ns: (now - base).as_nanos() as u64,
                        },
                    ),
                };
                unrecorded += u64::from(!kept);
                slices[slice].queries += t.queries;
                slices[slice].samples_end = record.len();
            }
        };
        if garbage {
            break Some("unparsable or unrequested reply bytes".to_string());
        }
        conn.buf.copy_within(pos..filled, 0);
        filled -= pos;
    };
    if error.is_some() {
        all.fail_missing(inflight.len() as u64);
    }
    DriveReport {
        all,
        measured,
        record,
        slices,
        unrecorded,
        error,
    }
}

/// Send the next `count` pool requests (wrapping around the pool) in
/// at most two writes, stamping each with the send instant. The
/// requests count as outstanding even if the write fails.
fn send(
    conn: &mut Conn,
    pool: &Pool,
    count: usize,
    inflight: &mut VecDeque<(usize, Instant)>,
) -> std::io::Result<()> {
    let first = conn.next;
    let head = count.min(pool.len() - first);
    let sent = Instant::now();
    for i in 0..count {
        inflight.push_back(((first + i) % pool.len(), sent));
    }
    conn.next = (first + count) % pool.len();
    conn.stream.write_all(pool.wire(first, head))?;
    if head < count {
        conn.stream.write_all(pool.wire(0, count - head))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Op;
    use dido_model::Query;
    use dido_workload::{key_bytes, value_bytes, Dataset};
    use std::net::TcpListener;

    fn bulk(v: &[u8]) -> Vec<u8> {
        let mut out = format!("${}\r\n", v.len()).into_bytes();
        out.extend_from_slice(v);
        out.extend_from_slice(b"\r\n");
        out
    }

    /// A peer that reads every request, answers with `replies`, and
    /// hangs up.
    fn fake_server(
        expect_bytes: usize,
        replies: Vec<u8>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut got = vec![0u8; expect_bytes];
            s.read_exact(&mut got).expect("requests");
            s.write_all(&replies).expect("replies");
        });
        (addr, peer)
    }

    #[test]
    fn planted_faults_on_the_wire_each_count_as_failed() {
        let values = ValueTable::build(8, |_| Dataset::K16);
        let get = |id: u64| Query::get(key_bytes(Dataset::K16, id));
        let set = Query::set(key_bytes(Dataset::K16, 7), value_bytes(Dataset::K16, 7));
        let pool = Pool::resp([get(0), get(1), get(2), set, get(3), get(4)].into_iter());
        assert_eq!(pool.ops(3), &[Op::Set]);
        let mut wrong = bulk(values.value(0));
        wrong[6] ^= 0x55;
        let mut replies = wrong; // 0: wrong value
        replies.extend(bulk(values.value(2))); // 1 and 2: out of order
        replies.extend(bulk(values.value(1)));
        replies.extend_from_slice(b"-ERR out of memory\r\n"); // 3: error reply
        replies.extend(bulk(values.value(3))); // 4: correct
                                               // 5: dropped — the peer hangs up instead.
        let (addr, peer) = fake_server(pool.wire(0, pool.len()).len(), replies);
        let mut conn = Conn::connect(addr).expect("connect");
        let report = drive(
            &mut conn,
            Proto::Resp,
            &pool,
            &values,
            pool.len(),
            Until::PoolEnd,
            Instant::now(),
            Record::Latency(Vec::new()),
        );
        peer.join().expect("peer");
        assert!(report.error.is_some(), "the hang-up ends the drive");
        assert_eq!(report.all.requests, 6);
        assert_eq!(report.all.failed, 5, "{:?}", report.all);
        assert!((report.all.error_share() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(report.all.hits, 1);
    }

    #[test]
    fn measured_replies_land_in_their_slices() {
        let values = ValueTable::build(4, |_| Dataset::K16);
        let pool = Pool::resp((0..4).map(|id| Query::get(key_bytes(Dataset::K16, id))));
        let mut replies = Vec::new();
        for id in 0..4u32 {
            replies.extend(bulk(values.value(id)));
        }
        let (addr, peer) = fake_server(pool.wire(0, 4).len(), replies);
        let phase = AtomicU32::new(measuring(2));
        let mut conn = Conn::connect(addr).expect("connect");
        // Cycling mode: the peer answers the first window, then hangs up.
        let report = drive(
            &mut conn,
            Proto::Resp,
            &pool,
            &values,
            4,
            Until::Stopped(&phase),
            Instant::now(),
            Record::Latency(Vec::with_capacity(8)),
        );
        peer.join().expect("peer");
        assert_eq!(report.measured.hits, 4);
        assert_eq!(report.record.len(), 4);
        assert_eq!(report.slices.len(), 3, "slices 0 and 1 stay empty");
        assert_eq!(report.slices[1].samples_end, 0);
        assert_eq!(report.slices[2].queries, 4);
        assert_eq!(report.slices[2].samples_end, 4);
        // The second window was sent and never answered.
        assert_eq!(report.all.failed, 4);
    }
}
