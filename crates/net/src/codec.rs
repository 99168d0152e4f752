//! The protocol front door: one codec seam with three implementations.
//!
//! Every connection speaks exactly one [`ProtocolKind`], stamped at
//! accept time from its listener. The batched data path touches the
//! protocol at exactly three points, and this module owns all three:
//!
//! * **carve** ([`carve_one`]) — find the byte range of *one client
//!   request* in a streaming buffer. Runs inside `FrameReader`, so the
//!   frame-boundary invariant (a partial request's bytes stay buffered
//!   across readiness events; `WouldBlock` escapes only at a request
//!   boundary) is stated once and holds for every codec on both the
//!   epoll and uring RX paths.
//! * **decode** ([`decode_request`]) — turn one carved request into
//!   zero-copy [`Query`]s plus a [`RequestMeta`] describing how its
//!   responses must be re-aggregated. One memcached `get a b c` or RESP
//!   `MGET` decodes to N queries that answer as *one* reply.
//! * **encode** ([`encode_reply_into`]) — serialize the request's
//!   response slice into a pooled `BytesMut`, appended to the
//!   connection's open SD run. The dido binary codec is just the third
//!   implementation of this seam.
//!
//! Carve/decode/encode agree on a crucial accounting rule: one carved
//! request is one sequence number and one reply run entry, regardless
//! of how many queries it fans out to (or whether its reply is zero
//! bytes, as with memcached `noreply`). The SD reorder ring therefore
//! counts *requests*, never queries, and needed no changes to host two
//! new protocols.

use crate::protocol::{encode_responses_wire_into, frame_query_count, parse_frame_into};
use crate::server::MAX_FRAME_BYTES;
use bytes::{Bytes, BytesMut};
use dido_model::{Query, Response, ResponseStatus, TTL_IMMEDIATE};
use std::ops::Range;

/// memcached's relative/absolute exptime boundary: values up to 30
/// days are relative seconds, larger values are absolute unix time.
pub const MC_EXPTIME_ABS_THRESHOLD: u32 = 30 * 24 * 60 * 60;

/// Convert a memcached `exptime` into the engine's relative-seconds
/// TTL, per the original protocol: `0` never expires; values up to
/// [`MC_EXPTIME_ABS_THRESHOLD`] are relative seconds; anything larger
/// is an absolute unix timestamp evaluated against `now` (a timestamp
/// already in the past stores the object pre-expired, which memcached
/// also accepts).
#[must_use]
pub fn mc_exptime_to_ttl(exptime: u32, now: u32) -> u32 {
    if exptime <= MC_EXPTIME_ABS_THRESHOLD {
        exptime
    } else if exptime > now {
        exptime - now
    } else {
        TTL_IMMEDIATE
    }
}

/// Longest accepted protocol text line (memcached command lines, RESP
/// inline commands and array/bulk headers). Anything longer without a
/// terminator is a protocol violation, not a slow client.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Longest accepted memcached key (the protocol's own limit).
pub const MAX_MC_KEY: usize = 250;

/// Most elements accepted in one RESP request array.
pub const MAX_RESP_ARRAY: usize = 1024;

/// Number of [`ProtocolKind`] variants (sizes per-protocol stats
/// arrays).
pub const PROTOCOL_KINDS: usize = 3;

/// Wire protocol spoken by a listener and every connection it accepts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The bespoke binary protocol: 4-byte LE length prefix, then
    /// `count:u16` + query records (see [`crate::parse_frame`]).
    #[default]
    Dido,
    /// memcached text protocol: `get`/`gets` multi-key, `set`/`delete`
    /// with `noreply`.
    Memcached,
    /// RESP2 (redis): inline and array commands, `GET`/`SET`/`DEL`/
    /// `MGET`/`PING`.
    Resp,
}

impl ProtocolKind {
    /// Stable index into per-protocol stats arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ProtocolKind::Dido => 0,
            ProtocolKind::Memcached => 1,
            ProtocolKind::Resp => 2,
        }
    }

    /// CLI / display name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolKind::Dido => "dido",
            ProtocolKind::Memcached => "memcached",
            ProtocolKind::Resp => "resp",
        }
    }

    /// Parse a CLI name (`dido`, `memcached`, `resp`; `redis` is an
    /// alias for `resp`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        match name {
            "dido" => Some(ProtocolKind::Dido),
            "memcached" | "mc" => Some(ProtocolKind::Memcached),
            "resp" | "redis" => Some(ProtocolKind::Resp),
            _ => None,
        }
    }

    /// All variants, in [`ProtocolKind::index`] order.
    #[must_use]
    pub fn all() -> [ProtocolKind; PROTOCOL_KINDS] {
        [
            ProtocolKind::Dido,
            ProtocolKind::Memcached,
            ProtocolKind::Resp,
        ]
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of [`carve_one`] over a streaming buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carve {
    /// No complete request buffered yet; keep the bytes and read more.
    Partial,
    /// One complete request occupies `buf[..total]`; its payload (what
    /// [`decode_request`] consumes) is `buf[skip..total]`. `skip`
    /// strips pure transport framing — the dido length prefix — and is
    /// zero for the text protocols, whose command line *is* payload.
    Request {
        /// Bytes the request occupies, including transport framing.
        total: usize,
        /// Leading framing bytes excluded from the decode payload.
        skip: usize,
    },
}

fn proto_err(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Locate one complete request at the start of `buf`.
///
/// Errors are *connection-fatal*: the stream can no longer be resynced
/// (an unparsable length field, a line overrunning [`MAX_LINE_BYTES`],
/// an oversized payload) and the caller retires the connection.
/// Recoverable garbage — an unknown command on an intact line — carves
/// fine and becomes an in-band error reply at decode time.
pub fn carve_one(kind: ProtocolKind, buf: &[u8]) -> std::io::Result<Carve> {
    if buf.is_empty() {
        return Ok(Carve::Partial);
    }
    match kind {
        ProtocolKind::Dido => carve_dido(buf),
        ProtocolKind::Memcached => carve_memcached(buf),
        ProtocolKind::Resp => carve_resp(buf),
    }
}

fn carve_dido(buf: &[u8]) -> std::io::Result<Carve> {
    if buf.len() < 4 {
        return Ok(Carve::Partial);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte prefix")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(proto_err("frame too large"));
    }
    if buf.len() < 4 + len {
        return Ok(Carve::Partial);
    }
    Ok(Carve::Request {
        total: 4 + len,
        skip: 4,
    })
}

/// Find the first LF within the line budget. `Ok(None)` = keep reading.
fn find_line(buf: &[u8]) -> std::io::Result<Option<usize>> {
    match buf.iter().take(MAX_LINE_BYTES).position(|&b| b == b'\n') {
        Some(lf) => Ok(Some(lf)),
        None if buf.len() >= MAX_LINE_BYTES => Err(proto_err("protocol line too long")),
        None => Ok(None),
    }
}

fn carve_memcached(buf: &[u8]) -> std::io::Result<Carve> {
    let Some(lf) = find_line(buf)? else {
        return Ok(Carve::Partial);
    };
    let line_total = lf + 1;
    let line = trim_line(&buf[..line_total]);
    let mut tokens = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    if tokens.next() == Some(&b"set"[..]) {
        // A storage command is followed by a data block whose length
        // only the `bytes` field reveals; if that field is unparsable
        // there is no way back to a request boundary.
        let bytes_field = tokens
            .nth(3)
            .ok_or_else(|| proto_err("set line missing bytes"))?;
        let n = parse_ascii_usize(bytes_field)
            .ok_or_else(|| proto_err("set bytes not a number"))?;
        if n > MAX_FRAME_BYTES {
            return Err(proto_err("set data too large"));
        }
        let total = line_total + n + 2; // data block + its CRLF
        if buf.len() < total {
            return Ok(Carve::Partial);
        }
        return Ok(Carve::Request { total, skip: 0 });
    }
    Ok(Carve::Request {
        total: line_total,
        skip: 0,
    })
}

fn carve_resp(buf: &[u8]) -> std::io::Result<Carve> {
    if buf[0] != b'*' {
        // Inline command: one line.
        let Some(lf) = find_line(buf)? else {
            return Ok(Carve::Partial);
        };
        return Ok(Carve::Request {
            total: lf + 1,
            skip: 0,
        });
    }
    // Array of bulk strings: *N\r\n ($len\r\n<data>\r\n){N}.
    let Some((n, mut pos)) = resp_header(buf, 0, b'*')? else {
        return Ok(Carve::Partial);
    };
    if n > MAX_RESP_ARRAY {
        return Err(proto_err("RESP array too long"));
    }
    for _ in 0..n {
        if pos >= buf.len() {
            return Ok(Carve::Partial);
        }
        if buf[pos] != b'$' {
            return Err(proto_err("RESP array element not a bulk string"));
        }
        let Some((len, data)) = resp_header(buf, pos, b'$')? else {
            return Ok(Carve::Partial);
        };
        if len > MAX_FRAME_BYTES {
            return Err(proto_err("RESP bulk string too large"));
        }
        pos = data + len + 2; // data + CRLF
        if pos > buf.len() {
            return Ok(Carve::Partial);
        }
    }
    Ok(Carve::Request {
        total: pos,
        skip: 0,
    })
}

/// Parse a `<marker><decimal>\r\n` header starting at `pos`. Returns
/// the value and the offset just past the header's LF, or `None` when
/// the header's line is still incomplete.
fn resp_header(buf: &[u8], pos: usize, marker: u8) -> std::io::Result<Option<(usize, usize)>> {
    debug_assert_eq!(buf[pos], marker);
    let Some(lf) = find_line(&buf[pos..])? else {
        return Ok(None);
    };
    let line = &buf[pos + 1..pos + lf];
    let digits = line.strip_suffix(b"\r").unwrap_or(line);
    let n = parse_ascii_usize(digits).ok_or_else(|| proto_err("RESP header not a number"))?;
    Ok(Some((n, pos + lf + 1)))
}

fn parse_ascii_usize(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() || digits.len() > 10 {
        return None;
    }
    let mut n = 0usize;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        n = n * 10 + (d - b'0') as usize;
    }
    Some(n)
}

/// Strip the trailing `\r\n` (or bare `\n`) from a carved line.
fn trim_line(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Everything [`encode_reply_into`] needs to turn a request's response
/// slice back into one wire reply: the command shape, the keys a
/// memcached `VALUE` line must echo, and whether the client asked for
/// no reply at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestMeta {
    /// A dido binary frame (N queries → one response frame).
    Dido,
    /// A dido frame that failed to decode; answered with an empty
    /// response frame so pipelined clients stay in sync.
    DidoBad,
    /// memcached `get`/`gets`: echo each hit as a `VALUE` line, then
    /// `END`.
    McGet {
        /// The validated command line without its CRLF (a zero-copy
        /// slice of the request payload): the tokens after the command
        /// are the requested keys, in request order, which the encoder
        /// re-walks to echo — no per-request key list is built.
        line: Bytes,
        /// `gets` — append a CAS column to each `VALUE` line.
        with_cas: bool,
    },
    /// memcached `set`.
    McStore {
        /// Client asked for no reply; encode zero bytes (the reply run
        /// still advances the sequence).
        noreply: bool,
    },
    /// memcached `delete`.
    McDelete {
        /// Client asked for no reply.
        noreply: bool,
    },
    /// Unusable memcached request (unknown command, bad formatting);
    /// decodes to zero queries and answers with `msg` verbatim.
    McError(&'static str),
    /// RESP `GET`.
    RespGet,
    /// RESP `SET`.
    RespSet,
    /// RESP `DEL` (N keys → one integer reply).
    RespDel,
    /// RESP `MGET` (N keys → one array reply).
    RespMGet,
    /// RESP `PING` → `+PONG`.
    RespPing,
    /// RESP `COMMAND` (redis-cli handshake) → empty array.
    RespCommand,
    /// Empty RESP inline line; ignored without a reply, as redis does.
    RespNoop,
    /// Unusable RESP request; decodes to zero queries and answers with
    /// `msg` verbatim.
    RespError(&'static str),
}

impl RequestMeta {
    /// Whether this request failed protocol parsing (feeds the
    /// `proto_parse_errors` counter).
    #[must_use]
    pub fn is_parse_error(&self) -> bool {
        matches!(
            self,
            RequestMeta::DidoBad | RequestMeta::McError(_) | RequestMeta::RespError(_)
        )
    }
}

/// Decode one carved request payload, appending its zero-copy queries
/// to `out`. Returns the metadata [`encode_reply_into`] needs; the
/// number of queries appended is the caller's `out.len()` delta (the
/// dispatcher tracks it per slot). Never fails: unusable requests
/// decode to zero queries and an error-reply meta.
///
/// `now` (unix seconds) anchors memcached's absolute-exptime
/// conversion (see [`mc_exptime_to_ttl`]); the dido and RESP codecs
/// carry relative TTLs and ignore it.
pub fn decode_request(
    kind: ProtocolKind,
    payload: &Bytes,
    now: u32,
    out: &mut Vec<Query>,
) -> RequestMeta {
    match kind {
        ProtocolKind::Dido => match parse_frame_into(payload, out) {
            Ok(_) => RequestMeta::Dido,
            Err(_) => RequestMeta::DidoBad,
        },
        ProtocolKind::Memcached => decode_memcached(payload, now, out),
        ProtocolKind::Resp => decode_resp(payload, out),
    }
}

const MC_BAD_LINE: &str = "CLIENT_ERROR bad command line format\r\n";
const MC_BAD_DATA: &str = "CLIENT_ERROR bad data chunk\r\n";

fn decode_memcached(payload: &Bytes, now: u32, out: &mut Vec<Query>) -> RequestMeta {
    let Some(lf) = payload.iter().position(|&b| b == b'\n') else {
        return RequestMeta::McError(MC_BAD_LINE);
    };
    // The text protocol terminates lines with CRLF; a bare LF still
    // carves (so the stream stays in sync) but is rejected here.
    if lf == 0 || payload[lf - 1] != b'\r' {
        return RequestMeta::McError(MC_BAD_LINE);
    }
    let line_end = lf - 1;
    let mut tokens = TokenIter::new(payload, 0, line_end);
    let Some(cmd) = tokens.next() else {
        return RequestMeta::McError(MC_BAD_LINE);
    };
    match &payload[cmd] {
        cmd @ (b"get" | b"gets") => {
            let with_cas = cmd == b"gets";
            let start = out.len();
            for key in tokens {
                if key.len() > MAX_MC_KEY {
                    out.truncate(start);
                    return RequestMeta::McError(MC_BAD_LINE);
                }
                out.push(Query::get(payload.slice(key)));
            }
            if out.len() == start {
                return RequestMeta::McError(MC_BAD_LINE);
            }
            RequestMeta::McGet {
                line: payload.slice(..line_end),
                with_cas,
            }
        }
        b"set" => match decode_mc_set(payload, tokens) {
            Ok(set) => set.finish(payload, lf, now, out),
            Err(msg) => RequestMeta::McError(msg),
        },
        b"delete" => {
            let Some(key) = tokens.next() else {
                return RequestMeta::McError(MC_BAD_LINE);
            };
            if key.len() > MAX_MC_KEY {
                return RequestMeta::McError(MC_BAD_LINE);
            }
            let noreply = match tokens.next().map(|t| &payload[t]) {
                None => false,
                Some(b"noreply") if tokens.next().is_none() => true,
                Some(_) => return RequestMeta::McError(MC_BAD_LINE),
            };
            out.push(Query::delete(payload.slice(key)));
            RequestMeta::McDelete { noreply }
        }
        _ => RequestMeta::McError("ERROR\r\n"),
    }
}

/// A validated memcached `set` command line, pending data-block
/// extraction.
struct McSet {
    key: Range<usize>,
    flags: u32,
    exptime: u32,
    bytes: usize,
    noreply: bool,
}

impl McSet {
    /// Extract the data block that follows the command line and emit
    /// the SET query.
    fn finish(self, payload: &Bytes, lf: usize, now: u32, out: &mut Vec<Query>) -> RequestMeta {
        let data_start = lf + 1;
        let data_end = data_start + self.bytes;
        // Carve sized the request as line + bytes + CRLF; enforce the
        // terminator so a lying client gets an error, not a desync.
        if payload.len() < data_end + 2 || payload[data_end..data_end + 2] != *b"\r\n" {
            return RequestMeta::McError(MC_BAD_DATA);
        }
        let value = payload.slice(data_start..data_end);
        let ttl = mc_exptime_to_ttl(self.exptime, now);
        out.push(Query::set_with(payload.slice(self.key), value, ttl, self.flags));
        RequestMeta::McStore {
            noreply: self.noreply,
        }
    }
}

/// Validate the `set <key> <flags> <exptime> <bytes> [noreply]` tokens
/// (the command token already consumed).
fn decode_mc_set(line: &[u8], mut tokens: TokenIter<'_>) -> Result<McSet, &'static str> {
    let key = tokens.next().ok_or(MC_BAD_LINE)?;
    if key.len() > MAX_MC_KEY {
        return Err(MC_BAD_LINE);
    }
    let mut field = || tokens.next().map(|t| &line[t]).ok_or(MC_BAD_LINE);
    let flags = parse_u32(field()?).ok_or(MC_BAD_LINE)?;
    let exptime = parse_u32(field()?).ok_or(MC_BAD_LINE)?;
    let bytes = parse_ascii_usize(field()?).ok_or(MC_BAD_LINE)?;
    let noreply = match tokens.next().map(|t| &line[t]) {
        None => false,
        Some(b"noreply") if tokens.next().is_none() => true,
        Some(_) => return Err(MC_BAD_LINE),
    };
    Ok(McSet {
        key,
        flags,
        exptime,
        bytes,
        noreply,
    })
}

fn parse_u32(digits: &[u8]) -> Option<u32> {
    parse_ascii_usize(digits).and_then(|n| u32::try_from(n).ok())
}

/// Space-separated token ranges of `buf[start..end]`; the caller
/// slices only the tokens it keeps.
struct TokenIter<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> TokenIter<'a> {
    fn new(buf: &'a [u8], start: usize, end: usize) -> TokenIter<'a> {
        TokenIter {
            buf,
            pos: start,
            end,
        }
    }
}

impl Iterator for TokenIter<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        while self.pos < self.end && self.buf[self.pos] == b' ' {
            self.pos += 1;
        }
        if self.pos >= self.end {
            return None;
        }
        let start = self.pos;
        while self.pos < self.end && self.buf[self.pos] != b' ' {
            self.pos += 1;
        }
        Some(start..self.pos)
    }
}

const RESP_ERR_ARGS: &str = "-ERR wrong number of arguments\r\n";
const RESP_ERR_PROTO: &str = "-ERR Protocol error\r\n";

/// Argument ranges `resp_args` keeps in place: enough for every
/// fixed-arity command (`SET k v EX t` is the longest); the variadic
/// ones re-walk the request.
const RESP_KEPT_ARGS: usize = 5;

fn decode_resp(payload: &Bytes, out: &mut Vec<Query>) -> RequestMeta {
    let (n, args) = match resp_args(payload) {
        Ok(parsed) => parsed,
        Err(msg) => return RequestMeta::RespError(msg),
    };
    if n == 0 {
        return RequestMeta::RespNoop;
    }
    let arg = |i: usize| &payload[args[i].clone()];
    let cmd = arg(0);
    let mut upper = [0u8; 8];
    let cmd_upper: &[u8] = if cmd.len() <= upper.len() {
        for (dst, &src) in upper.iter_mut().zip(cmd.iter()) {
            *dst = src.to_ascii_uppercase();
        }
        &upper[..cmd.len()]
    } else {
        b""
    };
    match cmd_upper {
        b"GET" if n == 2 => {
            out.push(Query::get(payload.slice(args[1].clone())));
            RequestMeta::RespGet
        }
        b"GET" => RequestMeta::RespError(RESP_ERR_ARGS),
        b"SET" => {
            let (ttl, ok) = match n {
                3 => (0, true),
                5 if arg(3).eq_ignore_ascii_case(b"EX") => match parse_u32(arg(4)) {
                    Some(t) => (t, true),
                    None => (0, false),
                },
                _ => (0, false),
            };
            if !ok {
                return RequestMeta::RespError("-ERR syntax error\r\n");
            }
            out.push(Query::set_with(
                payload.slice(args[1].clone()),
                payload.slice(args[2].clone()),
                ttl,
                0,
            ));
            RequestMeta::RespSet
        }
        b"DEL" if n >= 2 => {
            for key in RespArgWalk::new(payload).skip(1).filter_map(Result::ok) {
                out.push(Query::delete(payload.slice(key)));
            }
            RequestMeta::RespDel
        }
        b"MGET" if n >= 2 => {
            for key in RespArgWalk::new(payload).skip(1).filter_map(Result::ok) {
                out.push(Query::get(payload.slice(key)));
            }
            RequestMeta::RespMGet
        }
        b"PING" => RequestMeta::RespPing,
        b"COMMAND" => RequestMeta::RespCommand,
        b"DEL" | b"MGET" => RequestMeta::RespError(RESP_ERR_ARGS),
        _ => RequestMeta::RespError("-ERR unknown command\r\n"),
    }
}

/// Validate one carved RESP request in place: the argument count plus
/// the byte ranges of its first [`RESP_KEPT_ARGS`] arguments. Total over
/// arbitrary payloads (not just carve outputs), so the public decode API
/// can never panic on hostile bytes; every argument is checked before
/// any query is emitted.
fn resp_args(payload: &[u8]) -> Result<(usize, [Range<usize>; RESP_KEPT_ARGS]), &'static str> {
    let mut kept: [Range<usize>; RESP_KEPT_ARGS] = Default::default();
    let mut n = 0;
    for arg in RespArgWalk::new(payload) {
        let arg = arg?;
        if let Some(slot) = kept.get_mut(n) {
            *slot = arg;
        }
        n += 1;
    }
    Ok((n, kept))
}

/// Walks the argument ranges of a RESP request: whitespace-separated
/// tokens of an inline command's line, or the bulk strings of an array
/// (CRLF enforced after every header and every string). Yields an error
/// at the first malformed element and then stops.
struct RespArgWalk<'a> {
    buf: &'a [u8],
    /// Inline commands: their token iterator.
    inline: Option<TokenIter<'a>>,
    /// Arrays: elements still to parse and where the next one starts.
    left: usize,
    pos: usize,
    /// A header error to report as the first item.
    error: Option<&'static str>,
}

impl<'a> RespArgWalk<'a> {
    fn new(buf: &'a [u8]) -> RespArgWalk<'a> {
        let mut walk = RespArgWalk {
            buf,
            inline: None,
            left: 0,
            pos: 0,
            error: None,
        };
        if buf.is_empty() {
            return walk;
        }
        if buf[0] != b'*' {
            // Inline command: whitespace-separated tokens on one line.
            let lf = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
            let end = if lf > 0 && buf[lf - 1] == b'\r' { lf - 1 } else { lf };
            walk.inline = Some(TokenIter::new(buf, 0, end));
            return walk;
        }
        match resp_header_decoded(buf, 0) {
            Ok((n, _)) if n > MAX_RESP_ARRAY => walk.error = Some(RESP_ERR_PROTO),
            Ok((n, pos)) => (walk.left, walk.pos) = (n, pos),
            Err(msg) => walk.error = Some(msg),
        }
        walk
    }

    fn bulk(&mut self) -> Result<Range<usize>, &'static str> {
        if self.buf.get(self.pos) != Some(&b'$') {
            return Err(RESP_ERR_PROTO);
        }
        let (len, data) = resp_header_decoded(self.buf, self.pos)?;
        let end = data.checked_add(len).ok_or(RESP_ERR_PROTO)?;
        if self.buf.len() < end + 2 || self.buf[end..end + 2] != *b"\r\n" {
            return Err(RESP_ERR_PROTO);
        }
        self.pos = end + 2;
        Ok(data..end)
    }
}

impl Iterator for RespArgWalk<'_> {
    type Item = Result<Range<usize>, &'static str>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(msg) = self.error.take() {
            self.left = 0;
            return Some(Err(msg));
        }
        if let Some(tokens) = &mut self.inline {
            return tokens.next().map(Ok);
        }
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let arg = self.bulk();
        if arg.is_err() {
            self.left = 0;
        }
        Some(arg)
    }
}

/// Re-parse a `<marker><decimal>\r\n` header at `pos`; CRLF (not bare
/// LF) is enforced here even though the carve validated the structure.
fn resp_header_decoded(payload: &[u8], pos: usize) -> Result<(usize, usize), &'static str> {
    let lf = payload[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(RESP_ERR_PROTO)?;
    if lf < 2 || payload[pos + lf - 1] != b'\r' {
        return Err(RESP_ERR_PROTO);
    }
    let n = parse_ascii_usize(&payload[pos + 1..pos + lf - 1]).ok_or(RESP_ERR_PROTO)?;
    Ok((n, pos + lf + 1))
}

/// Cheap pre-decode estimate of how many queries a carved request will
/// produce (pre-sizes the dispatcher's shared query vector). Exact for
/// dido (the frame's own count header); 1 for the text protocols.
#[must_use]
pub fn request_query_estimate(kind: ProtocolKind, payload: &Bytes) -> usize {
    match kind {
        ProtocolKind::Dido => frame_query_count(payload),
        ProtocolKind::Memcached | ProtocolKind::Resp => 1,
    }
}

/// Serialize one request's responses into `buf`, appended to the
/// connection's open reply run. `rs` is exactly the response slice the
/// request's queries produced (possibly empty for error metas).
pub fn encode_reply_into(buf: &mut BytesMut, meta: &RequestMeta, rs: &[Response]) {
    match meta {
        RequestMeta::Dido | RequestMeta::DidoBad => encode_responses_wire_into(buf, rs),
        RequestMeta::McGet { line, with_cas } => {
            let mut keys = TokenIter::new(line, 0, line.len());
            keys.next(); // the command
            for (key, r) in keys.zip(rs) {
                if r.status == ResponseStatus::Ok {
                    buf.extend_from_slice(b"VALUE ");
                    buf.extend_from_slice(&line[key]);
                    // Client flags are stored with the object but not
                    // yet read back on GET; echoed as 0 (CAS likewise).
                    buf.extend_from_slice(b" 0 ");
                    put_decimal(buf, r.value.len());
                    if *with_cas {
                        buf.extend_from_slice(b" 0");
                    }
                    buf.extend_from_slice(b"\r\n");
                    buf.extend_from_slice(&r.value);
                    buf.extend_from_slice(b"\r\n");
                }
            }
            buf.extend_from_slice(b"END\r\n");
        }
        RequestMeta::McStore { noreply } => {
            if !noreply {
                buf.extend_from_slice(match rs.first().map(|r| r.status) {
                    Some(ResponseStatus::Ok) => b"STORED\r\n" as &[u8],
                    _ => b"SERVER_ERROR object too large for cache\r\n",
                });
            }
        }
        RequestMeta::McDelete { noreply } => {
            if !noreply {
                buf.extend_from_slice(match rs.first().map(|r| r.status) {
                    Some(ResponseStatus::Ok) => b"DELETED\r\n" as &[u8],
                    Some(ResponseStatus::NotFound) => b"NOT_FOUND\r\n",
                    _ => b"SERVER_ERROR delete failed\r\n",
                });
            }
        }
        RequestMeta::McError(msg) | RequestMeta::RespError(msg) => {
            buf.extend_from_slice(msg.as_bytes());
        }
        RequestMeta::RespGet => match rs.first() {
            Some(r) if r.status == ResponseStatus::Ok => put_resp_bulk(buf, &r.value),
            Some(r) if r.status == ResponseStatus::NotFound => {
                buf.extend_from_slice(b"$-1\r\n");
            }
            _ => buf.extend_from_slice(b"-ERR internal error\r\n"),
        },
        RequestMeta::RespSet => {
            buf.extend_from_slice(match rs.first().map(|r| r.status) {
                Some(ResponseStatus::Ok) => b"+OK\r\n" as &[u8],
                _ => b"-ERR out of memory\r\n",
            });
        }
        RequestMeta::RespDel => {
            let removed = rs.iter().filter(|r| r.status == ResponseStatus::Ok).count();
            buf.extend_from_slice(b":");
            put_decimal(buf, removed);
            buf.extend_from_slice(b"\r\n");
        }
        RequestMeta::RespMGet => {
            buf.extend_from_slice(b"*");
            put_decimal(buf, rs.len());
            buf.extend_from_slice(b"\r\n");
            for r in rs {
                if r.status == ResponseStatus::Ok {
                    put_resp_bulk(buf, &r.value);
                } else {
                    buf.extend_from_slice(b"$-1\r\n");
                }
            }
        }
        RequestMeta::RespPing => buf.extend_from_slice(b"+PONG\r\n"),
        RequestMeta::RespCommand => buf.extend_from_slice(b"*0\r\n"),
        RequestMeta::RespNoop => {}
    }
}

fn put_resp_bulk(buf: &mut BytesMut, value: &[u8]) {
    buf.extend_from_slice(b"$");
    put_decimal(buf, value.len());
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(value);
    buf.extend_from_slice(b"\r\n");
}

/// Append `n` in decimal: the allocation-free stand-in for `format!` in
/// reply headers.
fn put_decimal(buf: &mut BytesMut, mut n: usize) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Serialize the "server overloaded, request dropped" reply a reactor
/// sends when the frame ring rejects a burst (the SD plane's
/// `overflow_answers`). Dido answers with an empty response frame (its
/// clients treat that as a drop); the text protocols answer in-band —
/// except a memcached `noreply` request, which must stay silent.
pub fn encode_overflow_into(buf: &mut BytesMut, kind: ProtocolKind, payload: &Bytes) {
    match kind {
        ProtocolKind::Dido => encode_responses_wire_into(buf, &[]),
        ProtocolKind::Memcached => {
            let line_end = payload
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(payload.len());
            let line = trim_line(&payload[..line_end.min(payload.len())]);
            let noreply = line.ends_with(b" noreply");
            if !noreply {
                buf.extend_from_slice(b"SERVER_ERROR busy\r\n");
            }
        }
        ProtocolKind::Resp => buf.extend_from_slice(b"-ERR server busy\r\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::QueryOp;

    fn carve_all(kind: ProtocolKind, mut buf: &[u8]) -> Vec<(Vec<u8>, usize)> {
        let mut out = Vec::new();
        while let Carve::Request { total, skip } = carve_one(kind, buf).unwrap() {
            out.push((buf[skip..total].to_vec(), total));
            buf = &buf[total..];
            if buf.is_empty() {
                break;
            }
        }
        out
    }

    #[test]
    fn dido_carve_matches_prefix() {
        let mut wire = BytesMut::new();
        crate::protocol::encode_queries_wire_into(&mut wire, &[Query::set("k", "v")]);
        let wire = wire.freeze();
        assert_eq!(carve_one(ProtocolKind::Dido, &wire[..3]).unwrap(), Carve::Partial);
        let Carve::Request { total, skip } = carve_one(ProtocolKind::Dido, &wire).unwrap() else {
            panic!("complete frame must carve");
        };
        assert_eq!((total, skip), (wire.len(), 4));
    }

    #[test]
    fn dido_oversized_prefix_is_fatal() {
        let bad = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(carve_one(ProtocolKind::Dido, &bad).is_err());
    }

    #[test]
    fn memcached_carves_lines_and_set_data() {
        let wire = b"get alpha beta\r\nset k 7 30 5\r\nhello\r\ndelete k noreply\r\n";
        let reqs = carve_all(ProtocolKind::Memcached, wire);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].0, b"get alpha beta\r\n");
        assert_eq!(reqs[1].0, b"set k 7 30 5\r\nhello\r\n");
        assert_eq!(reqs[2].0, b"delete k noreply\r\n");
    }

    #[test]
    fn memcached_partials_wait() {
        assert_eq!(
            carve_one(ProtocolKind::Memcached, b"get al").unwrap(),
            Carve::Partial
        );
        // Set line complete but data block still in flight.
        assert_eq!(
            carve_one(ProtocolKind::Memcached, b"set k 0 0 5\r\nhel").unwrap(),
            Carve::Partial
        );
    }

    #[test]
    fn memcached_unrecoverable_lines_are_fatal() {
        // Unparsable bytes field: the data block length is unknowable.
        assert!(carve_one(ProtocolKind::Memcached, b"set k 0 0 xyz\r\n").is_err());
        assert!(carve_one(ProtocolKind::Memcached, b"set k 0 0\r\n").is_err());
        // Oversized data and an unterminated giant line.
        assert!(carve_one(ProtocolKind::Memcached, b"set k 0 0 99999999\r\n").is_err());
        let long = vec![b'a'; MAX_LINE_BYTES + 1];
        assert!(carve_one(ProtocolKind::Memcached, &long).is_err());
    }

    #[test]
    fn memcached_decode_get_set_delete() {
        let payload = Bytes::from_static(b"get alpha beta\r\n");
        let mut out = Vec::new();
        let meta = decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Query::get("alpha"));
        assert_eq!(out[1], Query::get("beta"));
        let RequestMeta::McGet { line, with_cas } = meta else {
            panic!("get meta");
        };
        assert!(!with_cas);
        assert_eq!(line, Bytes::from_static(b"get alpha beta"));

        let payload = Bytes::from_static(b"set k 7 30 5\r\nhello\r\n");
        out.clear();
        let meta = decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
        assert_eq!(meta, RequestMeta::McStore { noreply: false });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].op, QueryOp::Set);
        assert_eq!(&out[0].key[..], b"k");
        assert_eq!(&out[0].value[..], b"hello");
        assert_eq!((out[0].ttl, out[0].flags), (30, 7));

        let payload = Bytes::from_static(b"delete k noreply\r\n");
        out.clear();
        let meta = decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
        assert_eq!(meta, RequestMeta::McDelete { noreply: true });
        assert_eq!(out[0], Query::delete("k"));
    }

    #[test]
    fn memcached_decode_is_zero_copy() {
        let payload = Bytes::from_static(b"get somekey\r\n");
        let mut out = Vec::new();
        decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
        let key_ptr = out[0].key.as_ptr() as usize;
        let range = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        assert!(range.contains(&key_ptr), "keys must alias the payload");
    }

    #[test]
    fn memcached_malformed_decodes_to_error_replies() {
        for bad in [
            b"get alpha beta\n" as &[u8],     // bare LF, no CR
            b"frobnicate x\r\n",              // unknown command
            b"get\r\n",                       // no keys
            b"delete\r\n",                    // no key
            b"delete k wat\r\n",              // trailing junk
        ] {
            let payload = Bytes::copy_from_slice(bad);
            let mut out = Vec::new();
            let meta = decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
            assert!(meta.is_parse_error(), "{:?} must be an error", bad);
            assert!(out.is_empty(), "{:?} must decode zero queries", bad);
            let mut reply = BytesMut::new();
            encode_reply_into(&mut reply, &meta, &[]);
            assert!(!reply.is_empty(), "error metas answer in-band");
        }
        // Bad data-chunk terminator: carve accepts (lengths are
        // consistent), decode rejects.
        let payload = Bytes::from_static(b"set k 0 0 5\r\nhelloXY");
        let mut out = Vec::new();
        let meta = decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
        assert_eq!(meta, RequestMeta::McError(MC_BAD_DATA));
        assert!(out.is_empty());
    }

    #[test]
    fn memcached_encode_values_and_end() {
        let meta = RequestMeta::McGet {
            line: Bytes::from_static(b"get a b"),
            with_cas: false,
        };
        let rs = [Response::hit("hello"), Response::not_found()];
        let mut buf = BytesMut::new();
        encode_reply_into(&mut buf, &meta, &rs);
        assert_eq!(&buf[..], b"VALUE a 0 5\r\nhello\r\nEND\r\n" as &[u8]);

        let meta = RequestMeta::McGet {
            line: Bytes::from_static(b"gets a"),
            with_cas: true,
        };
        let mut buf = BytesMut::new();
        encode_reply_into(&mut buf, &meta, &rs[..1]);
        assert_eq!(&buf[..], b"VALUE a 0 5 0\r\nhello\r\nEND\r\n" as &[u8]);

        let mut buf = BytesMut::new();
        encode_reply_into(&mut buf, &RequestMeta::McStore { noreply: true }, &[Response::ok()]);
        assert!(buf.is_empty(), "noreply must encode zero bytes");
        encode_reply_into(&mut buf, &RequestMeta::McStore { noreply: false }, &[Response::ok()]);
        assert_eq!(&buf[..], b"STORED\r\n" as &[u8]);
    }

    #[test]
    fn resp_carves_arrays_and_inline() {
        let wire = b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\nPING\r\n*1\r\n$4\r\nPING\r\n";
        let reqs = carve_all(ProtocolKind::Resp, wire);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].0, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert_eq!(reqs[1].0, b"PING\r\n");
        assert_eq!(reqs[2].0, b"*1\r\n$4\r\nPING\r\n");
    }

    #[test]
    fn resp_partial_headers_wait() {
        for partial in [
            b"*" as &[u8],
            b"*2\r",
            b"*2\r\n$3\r\nGE",
            b"*2\r\n$3\r\nGET\r\n$1\r\nk",
        ] {
            assert_eq!(
                carve_one(ProtocolKind::Resp, partial).unwrap(),
                Carve::Partial,
                "{:?}",
                partial
            );
        }
    }

    #[test]
    fn resp_malformed_is_fatal_or_error_reply() {
        // Structurally unrecoverable → carve error (connection retires).
        assert!(carve_one(ProtocolKind::Resp, b"*x\r\n").is_err());
        assert!(carve_one(ProtocolKind::Resp, b"*2\r\n+OK\r\n").is_err());
        assert!(carve_one(ProtocolKind::Resp, b"*1\r\n$99999999\r\n").is_err());
        assert!(carve_one(ProtocolKind::Resp, b"*9999\r\n").is_err());
        // Recoverable → decodes to an in-band -ERR reply.
        let payload = Bytes::from_static(b"FROB x\r\n");
        let mut out = Vec::new();
        let meta = decode_request(ProtocolKind::Resp, &payload, 0, &mut out);
        assert_eq!(meta, RequestMeta::RespError("-ERR unknown command\r\n"));
        assert!(out.is_empty());
    }

    #[test]
    fn resp_decode_commands() {
        let mut out = Vec::new();
        let payload = Bytes::from_static(b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n");
        assert_eq!(
            decode_request(ProtocolKind::Resp, &payload, 0, &mut out),
            RequestMeta::RespSet
        );
        assert_eq!(out[0], Query::set("k", "vv"));

        out.clear();
        let payload = Bytes::from_static(
            b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n$2\r\nEX\r\n$2\r\n10\r\n",
        );
        assert_eq!(
            decode_request(ProtocolKind::Resp, &payload, 0, &mut out),
            RequestMeta::RespSet
        );
        assert_eq!(out[0].ttl, 10);

        out.clear();
        let payload = Bytes::from_static(b"*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n");
        assert_eq!(
            decode_request(ProtocolKind::Resp, &payload, 0, &mut out),
            RequestMeta::RespMGet
        );
        assert_eq!(out.len(), 2);

        out.clear();
        let payload = Bytes::from_static(b"del a b c\r\n"); // inline, case-insensitive
        assert_eq!(
            decode_request(ProtocolKind::Resp, &payload, 0, &mut out),
            RequestMeta::RespDel
        );
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|q| q.op == QueryOp::Delete));

        out.clear();
        let payload = Bytes::from_static(b"\r\n");
        assert_eq!(
            decode_request(ProtocolKind::Resp, &payload, 0, &mut out),
            RequestMeta::RespNoop
        );
        assert!(out.is_empty());
    }

    #[test]
    fn resp_encode_replies() {
        let mut buf = BytesMut::new();
        encode_reply_into(&mut buf, &RequestMeta::RespGet, &[Response::hit("vv")]);
        assert_eq!(&buf[..], b"$2\r\nvv\r\n" as &[u8]);

        let mut buf = BytesMut::new();
        encode_reply_into(&mut buf, &RequestMeta::RespGet, &[Response::not_found()]);
        assert_eq!(&buf[..], b"$-1\r\n" as &[u8]);

        let mut buf = BytesMut::new();
        encode_reply_into(
            &mut buf,
            &RequestMeta::RespMGet,
            &[Response::hit("a"), Response::not_found(), Response::hit("c")],
        );
        assert_eq!(&buf[..], b"*3\r\n$1\r\na\r\n$-1\r\n$1\r\nc\r\n" as &[u8]);

        let mut buf = BytesMut::new();
        encode_reply_into(
            &mut buf,
            &RequestMeta::RespDel,
            &[Response::ok(), Response::not_found()],
        );
        assert_eq!(&buf[..], b":1\r\n" as &[u8]);

        let mut buf = BytesMut::new();
        encode_reply_into(&mut buf, &RequestMeta::RespPing, &[]);
        assert_eq!(&buf[..], b"+PONG\r\n" as &[u8]);
    }

    #[test]
    fn overflow_replies_per_protocol() {
        let mut buf = BytesMut::new();
        encode_overflow_into(&mut buf, ProtocolKind::Dido, &Bytes::new());
        // Dido: a 4-byte prefix + empty response frame.
        assert_eq!(u32::from_le_bytes(buf[..4].try_into().unwrap()), 2);

        let mut buf = BytesMut::new();
        encode_overflow_into(
            &mut buf,
            ProtocolKind::Memcached,
            &Bytes::from_static(b"get k\r\n"),
        );
        assert_eq!(&buf[..], b"SERVER_ERROR busy\r\n" as &[u8]);

        let mut buf = BytesMut::new();
        encode_overflow_into(
            &mut buf,
            ProtocolKind::Memcached,
            &Bytes::from_static(b"set k 0 0 1 noreply\r\nx\r\n"),
        );
        assert!(buf.is_empty(), "noreply requests stay silent even when dropped");

        let mut buf = BytesMut::new();
        encode_overflow_into(&mut buf, ProtocolKind::Resp, &Bytes::from_static(b"PING\r\n"));
        assert_eq!(&buf[..], b"-ERR server busy\r\n" as &[u8]);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ProtocolKind::all() {
            assert_eq!(ProtocolKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_name("redis"), Some(ProtocolKind::Resp));
        assert_eq!(ProtocolKind::from_name("nope"), None);
        assert_eq!(ProtocolKind::default(), ProtocolKind::Dido);
    }

    #[test]
    fn estimates() {
        let mut wire = BytesMut::new();
        crate::protocol::encode_queries_wire_into(
            &mut wire,
            &[Query::get("a"), Query::get("b")],
        );
        let frame = wire.freeze().slice(4..);
        assert_eq!(request_query_estimate(ProtocolKind::Dido, &frame), 2);
        assert_eq!(
            request_query_estimate(ProtocolKind::Memcached, &Bytes::from_static(b"get a b\r\n")),
            1
        );
    }
}
