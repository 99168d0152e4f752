//! Reply verification and failure accounting for both codecs.
//!
//! Every request the generator sends carries the expected outcome of
//! each of its queries ([`Op`]). Replies arrive in request order on a
//! connection, so the verifier pairs each reply with the oldest
//! outstanding request and checks count, order and status; every GET
//! hit must carry the key's canonical value (`value_bytes`). A reply
//! out of order shows up as a wrong value or a wrong reply type, a
//! dropped reply as a request still outstanding when the connection
//! ends.

use dido_workload::{value_bytes, Dataset};

/// Expected outcome of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// GET of key id `.0`: a miss, or a hit carrying the canonical value.
    Get(u32),
    /// SET: must succeed.
    Set,
}

/// Canonical values of every key id, for checking GET hits without
/// allocating.
#[derive(Debug)]
pub struct ValueTable {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl ValueTable {
    /// `value_bytes(dataset_of(id), id)` for every id in `0..n_keys`.
    #[must_use]
    pub fn build(n_keys: u64, dataset_of: impl Fn(u64) -> Dataset) -> ValueTable {
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(n_keys as usize + 1);
        offsets.push(0);
        for id in 0..n_keys {
            bytes.extend_from_slice(&value_bytes(dataset_of(id), id));
            offsets.push(bytes.len());
        }
        ValueTable { bytes, offsets }
    }

    /// The canonical value of key `id`.
    #[must_use]
    pub fn value(&self, id: u32) -> &[u8] {
        let id = id as usize;
        &self.bytes[self.offsets[id]..self.offsets[id + 1]]
    }
}

/// Counts one connection (or a merged set) accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests answered or given up on (frames or RESP commands).
    pub requests: u64,
    /// Requests that failed: error reply, wrong value, wrong count or
    /// type, missing reply, connection error.
    pub failed: u64,
    /// Queries inside answered requests.
    pub queries: u64,
    /// GET queries answered.
    pub gets: u64,
    /// GET queries answered with the canonical value.
    pub hits: u64,
    /// SET queries answered.
    pub sets: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.requests += o.requests;
        self.failed += o.failed;
        self.queries += o.queries;
        self.gets += o.gets;
        self.hits += o.hits;
        self.sets += o.sets;
    }
}

impl Tally {
    /// Failed over attempted requests.
    #[must_use]
    pub fn error_share(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.failed as f64 / self.requests as f64
        }
    }

    /// Count `outstanding` requests that never got a reply.
    pub fn fail_missing(&mut self, outstanding: u64) {
        self.requests += outstanding;
        self.failed += outstanding;
    }
}

/// Outcome of looking for one complete reply at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carved {
    /// The reply is not complete yet.
    Partial,
    /// One reply occupies the first `.0` bytes.
    Reply(usize),
    /// The bytes can never form a reply; the stream is lost.
    Garbage,
}

/// Wire protocol of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// The dido binary protocol: one response frame per request frame.
    Dido,
    /// RESP2: one reply per command.
    Resp,
}

impl Proto {
    /// Find one complete reply at the front of `buf`.
    #[must_use]
    pub fn carve(self, buf: &[u8]) -> Carved {
        match self {
            Proto::Dido => carve_dido(buf),
            Proto::Resp => carve_resp(buf),
        }
    }

    /// Check one complete reply (as carved) against the request's
    /// expected `ops`, adding the outcome to `tally`. Returns whether
    /// the request succeeded.
    pub fn check(self, reply: &[u8], ops: &[Op], values: &ValueTable, tally: &mut Tally) -> bool {
        let ok = match self {
            Proto::Dido => check_dido(reply, ops, values, tally),
            Proto::Resp => ops.len() == 1 && check_resp(reply, ops[0], values, tally),
        };
        tally.requests += 1;
        if ok {
            tally.queries += ops.len() as u64;
        } else {
            tally.failed += 1;
        }
        ok
    }
}

/// Largest reply the verifier accepts; anything longer is a lost stream.
const MAX_REPLY: usize = 4 << 20;

fn carve_dido(buf: &[u8]) -> Carved {
    if buf.len() < 4 {
        return Carved::Partial;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_REPLY {
        Carved::Garbage
    } else if buf.len() < 4 + len {
        Carved::Partial
    } else {
        Carved::Reply(4 + len)
    }
}

/// Check a length-prefixed dido response frame record by record.
fn check_dido(frame: &[u8], ops: &[Op], values: &ValueTable, tally: &mut Tally) -> bool {
    let body = &frame[4..];
    if body.len() < 2 || u16::from_le_bytes([body[0], body[1]]) as usize != ops.len() {
        return false;
    }
    let mut pos = 2;
    let (mut gets, mut hits, mut sets) = (0u64, 0u64, 0u64);
    for op in ops {
        if pos + 5 > body.len() {
            return false;
        }
        let status = body[pos];
        let len = u32::from_le_bytes([body[pos + 1], body[pos + 2], body[pos + 3], body[pos + 4]])
            as usize;
        pos += 5;
        if pos + len > body.len() {
            return false;
        }
        let value = &body[pos..pos + len];
        pos += len;
        match (*op, status) {
            (Op::Get(id), 0) if value == values.value(id) => {
                gets += 1;
                hits += 1;
            }
            (Op::Get(_), 1) if len == 0 => gets += 1,
            (Op::Set, 0) => sets += 1,
            _ => return false,
        }
    }
    if pos != body.len() {
        return false;
    }
    tally.gets += gets;
    tally.hits += hits;
    tally.sets += sets;
    true
}

/// Parse `<digits>\r\n` starting at `buf[from]`; returns the number
/// (or -1 for `-1`) and the offset past the LF.
fn resp_number(buf: &[u8], from: usize) -> Option<Result<(i64, usize), ()>> {
    let lf = match buf[from..].iter().position(|&b| b == b'\n') {
        Some(lf) => from + lf,
        None if buf.len() - from > 32 => return Some(Err(())),
        None => return None,
    };
    let digits = buf[from..lf].strip_suffix(b"\r");
    let parsed = digits
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|s| s.parse::<i64>().ok());
    Some(parsed.map(|n| (n, lf + 1)).ok_or(()))
}

fn carve_resp(buf: &[u8]) -> Carved {
    let Some(&kind) = buf.first() else {
        return Carved::Partial;
    };
    match kind {
        b'+' | b'-' | b':' => match buf.iter().take(MAX_REPLY).position(|&b| b == b'\n') {
            Some(lf) => Carved::Reply(lf + 1),
            None if buf.len() >= MAX_REPLY => Carved::Garbage,
            None => Carved::Partial,
        },
        b'$' => match resp_number(buf, 1) {
            None => Carved::Partial,
            Some(Err(())) => Carved::Garbage,
            Some(Ok((-1, end))) => Carved::Reply(end),
            Some(Ok((n, end))) if (0..MAX_REPLY as i64).contains(&n) => {
                let total = end + n as usize + 2;
                if buf.len() < total {
                    Carved::Partial
                } else {
                    Carved::Reply(total)
                }
            }
            Some(Ok(_)) => Carved::Garbage,
        },
        _ => Carved::Garbage,
    }
}

/// Check one RESP reply against a single-query command.
fn check_resp(reply: &[u8], op: Op, values: &ValueTable, tally: &mut Tally) -> bool {
    match op {
        Op::Set => {
            let ok = reply == b"+OK\r\n";
            tally.sets += u64::from(ok);
            ok
        }
        Op::Get(id) => {
            if reply == b"$-1\r\n" {
                tally.gets += 1;
                return true;
            }
            let Some(Ok((n, start))) = (reply.first() == Some(&b'$'))
                .then(|| resp_number(reply, 1))
                .flatten()
            else {
                return false;
            };
            let end = start + n.max(0) as usize;
            let ok = n >= 0
                && reply.len() == end + 2
                && &reply[end..] == b"\r\n"
                && &reply[start..end] == values.value(id);
            if ok {
                tally.gets += 1;
                tally.hits += 1;
            }
            ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::Response;
    use dido_net::encode_responses_wire_into;

    fn table() -> ValueTable {
        ValueTable::build(8, |id| {
            if id % 2 == 0 {
                Dataset::K16
            } else {
                Dataset::K8
            }
        })
    }

    /// Feed `stream` through carve/check against `requests` the way the
    /// client does, then count unanswered requests as missing.
    fn replay(proto: Proto, requests: &[Vec<Op>], stream: &[u8], values: &ValueTable) -> Tally {
        let mut tally = Tally::default();
        let mut pos = 0;
        let mut answered = 0;
        for ops in requests {
            match proto.carve(&stream[pos..]) {
                Carved::Reply(n) => {
                    proto.check(&stream[pos..pos + n], ops, values, &mut tally);
                    pos += n;
                    answered += 1;
                }
                Carved::Partial | Carved::Garbage => break,
            }
        }
        tally.fail_missing((requests.len() - answered) as u64);
        tally
    }

    fn resp_hit(values: &ValueTable, id: u32) -> Vec<u8> {
        let v = values.value(id);
        let mut out = format!("${}\r\n", v.len()).into_bytes();
        out.extend_from_slice(v);
        out.extend_from_slice(b"\r\n");
        out
    }

    #[test]
    fn resp_correct_stream_has_no_failures() {
        let values = table();
        let requests = vec![
            vec![Op::Get(1)],
            vec![Op::Set],
            vec![Op::Get(2)],
            vec![Op::Get(3)],
        ];
        let mut stream = resp_hit(&values, 1);
        stream.extend_from_slice(b"+OK\r\n");
        stream.extend_from_slice(&resp_hit(&values, 2));
        stream.extend_from_slice(b"$-1\r\n");
        let t = replay(Proto::Resp, &requests, &stream, &values);
        assert_eq!(t.failed, 0);
        assert_eq!(t.requests, 4);
        assert_eq!((t.gets, t.hits, t.sets), (3, 2, 1));
        assert_eq!(t.error_share(), 0.0);
    }

    #[test]
    fn resp_planted_faults_each_count_in_error_share() {
        let values = table();
        // 0: wrong value, 1-2: replies swapped (out of order), 3: -ERR,
        // 4: fine, 5: reply dropped.
        let requests = vec![
            vec![Op::Get(0)],
            vec![Op::Get(1)],
            vec![Op::Get(2)],
            vec![Op::Set],
            vec![Op::Get(3)],
            vec![Op::Get(4)],
        ];
        let mut wrong = resp_hit(&values, 0);
        let at = wrong.len() - 3;
        wrong[at] ^= 0xFF;
        let mut stream = wrong;
        stream.extend_from_slice(&resp_hit(&values, 2));
        stream.extend_from_slice(&resp_hit(&values, 1));
        stream.extend_from_slice(b"-ERR out of memory\r\n");
        stream.extend_from_slice(&resp_hit(&values, 3));
        let t = replay(Proto::Resp, &requests, &stream, &values);
        assert_eq!(t.requests, 6);
        assert_eq!(t.failed, 5, "{t:?}");
        assert!((t.error_share() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!((t.gets, t.hits), (1, 1), "only request 4 verified");
    }

    fn dido_reply(rs: &[Response]) -> Vec<u8> {
        let mut buf = bytes::BytesMut::new();
        encode_responses_wire_into(&mut buf, rs);
        buf.to_vec()
    }

    #[test]
    fn dido_planted_faults_each_count_in_error_share() {
        let values = table();
        let hit = |id: u32| Response::hit(values.value(id).to_vec());
        let requests = vec![
            vec![Op::Get(0), Op::Set],    // fine
            vec![Op::Get(1), Op::Get(2)], // wrong value
            vec![Op::Get(3)],             // swapped with the next
            vec![Op::Get(4)],             // swapped with the previous
            vec![Op::Set, Op::Set],       // error status
            vec![Op::Get(5)],             // reply count mismatch
            vec![Op::Get(6)],             // dropped
        ];
        let mut stream = dido_reply(&[hit(0), Response::ok()]);
        stream.extend(dido_reply(&[hit(1), hit(1)]));
        stream.extend(dido_reply(&[hit(4)]));
        stream.extend(dido_reply(&[hit(3)]));
        stream.extend(dido_reply(&[Response::ok(), Response::error()]));
        stream.extend(dido_reply(&[]));
        let t = replay(Proto::Dido, &requests, &stream, &values);
        assert_eq!(t.requests, 7);
        assert_eq!(t.failed, 6, "{t:?}");
        assert!((t.error_share() - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!((t.gets, t.hits, t.sets, t.queries), (1, 1, 1, 2));
    }

    #[test]
    fn dido_misses_are_not_failures() {
        let values = table();
        let stream = dido_reply(&[Response::not_found(), Response::ok()]);
        let t = replay(Proto::Dido, &[vec![Op::Get(7), Op::Set]], &stream, &values);
        assert_eq!((t.failed, t.gets, t.hits, t.sets), (0, 1, 0, 1));
    }

    #[test]
    fn carving_waits_for_complete_replies() {
        assert_eq!(Proto::Resp.carve(b"$5\r\nab"), Carved::Partial);
        assert_eq!(Proto::Resp.carve(b"$5\r\nabcde\r\n+OK"), Carved::Reply(11));
        assert_eq!(Proto::Resp.carve(b"+OK\r"), Carved::Partial);
        assert_eq!(Proto::Resp.carve(b"?junk\r\n"), Carved::Garbage);
        assert_eq!(Proto::Resp.carve(b"$x\r\n"), Carved::Garbage);
        let frame = dido_reply(&[Response::ok()]);
        assert_eq!(
            Proto::Dido.carve(&frame[..frame.len() - 1]),
            Carved::Partial
        );
        assert_eq!(Proto::Dido.carve(&frame), Carved::Reply(frame.len()));
    }
}
