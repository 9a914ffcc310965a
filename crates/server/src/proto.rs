//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! # Framing
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! [ len: u32 LE ][ payload: len bytes ]
//! ```
//!
//! `len` counts the payload only.  Frames larger than [`MAX_FRAME`] are
//! rejected before allocation (a malformed peer cannot make the server
//! allocate gigabytes from four bytes of garbage).
//!
//! # Payloads
//!
//! A request payload is an opcode byte followed by the request's fields; a
//! response payload is a [`status`] byte, then for ok the opcode it answers
//! and the reply's fields, and for the other statuses what [`Response`]
//! says.  Each opcode and the fields of its [`Request`] and [`Reply`] are
//! declared once, in the frame table (`frames.rs`); each field type has one
//! codec: integers little-endian, a `bool` or an `Option`'s presence as a
//! byte that must be 0 or 1, a string or a `Vec` behind a `u32` count
//! (`u16` for an itemset, a `Vec<u32>`).  A count read from a peer never
//! reserves more memory than the payload has bytes left.
//! `tests/wire_golden.rs` pins the bytes of every frame.
//!
//! The protocol is deliberately version-stamped: byte 0 of every request
//! is the opcode, and unknown opcodes decode to a typed error rather than
//! a desync, so a newer client degrades cleanly against an older server.
//!
//! # Read frames
//!
//! Three frames read the index, on every hop (client → server and
//! coordinator → shard):
//!
//! * `COUNT_MANY` — exact supports of a batch at the latest snapshot.  A
//!   single count is a `COUNT_MANY` of one.
//! * `COUNT_MANY_AT` — the same batch at a pinned epoch, or, with no
//!   epoch, at the latest snapshot, which the server pins as it answers.
//!   With no epoch and no itemsets it is the pin itself, and its reply
//!   carries the width and hasher identity a coordinator checks at
//!   connect.
//! * `ROWS` — the live transactions of a pinned snapshot.
//!
//! Opcodes 1 (the old single `COUNT`) and 10 (the old `SNAPSHOT_PIN`) are
//! retired: they decode as unknown opcodes, not as aliases.

use bbs_core::Scheme;
use bbs_tdb::SupportThreshold;
use std::io::{self, Read, Write};

pub use crate::frames::{op, Reply, Request};

/// Upper bound on a frame payload (64 MiB) — generous for mine results,
/// small enough to bound a malicious length prefix.
pub const MAX_FRAME: usize = 64 << 20;

/// Actions of a [`Request::Maintain`] (`action` byte).
pub mod maintain_action {
    /// Measure the live false-positive rate; change nothing.
    pub const PROBE_FPR: u8 = 0;
    /// Compact: rewrite the deployment minus tombstoned rows.
    pub const COMPACT: u8 = 1;
    /// Fold: halve the slice width in place.
    pub const FOLD: u8 = 2;
    /// Run the server's maintenance policy once: measure FPR and
    /// fold/compact only if it crosses the configured threshold.
    pub const AUTO: u8 = 3;
}

/// Response status values (response byte 0), one per [`Response`]
/// variant, and the body each puts after it.
pub mod status {
    /// [`Response::Ok`](super::Response::Ok): the opcode answered, then the
    /// reply's fields.
    pub const OK: u8 = 0;
    /// [`Response::Overloaded`](super::Response::Overloaded); no body.
    pub const OVERLOADED: u8 = 1;
    /// [`Response::Err`](super::Response::Err): a string.
    pub const ERR: u8 = 2;
    /// [`Response::DiskFull`](super::Response::DiskFull); no body.
    pub const DISK_FULL: u8 = 3;
    /// [`Response::BadFrame`](super::Response::BadFrame): a string.
    pub const BAD_FRAME: u8 = 4;
    /// [`Response::NotPrimary`](super::Response::NotPrimary): the primary's
    /// address, a string, possibly empty.
    pub const NOT_PRIMARY: u8 = 5;
    /// [`Response::ShardUnavailable`](super::Response::ShardUnavailable):
    /// the shard index (`u32`), then a string.
    pub const SHARD_UNAVAILABLE: u8 = 6;
}

/// One replication-log entry on the wire: the batch's first row, its
/// transactions `(tid, items)`, its exactly-once receipts
/// `(req_id, offset, len)` with offsets relative to the batch, and the
/// row numbers it tombstones (delete entries carry rows and no
/// transactions; for them `first_row` is the primary's row count at
/// delete time, which equals an in-order follower's row count).
pub type LogEntry = (
    u64,
    Vec<(u64, Vec<u32>)>,
    Vec<(u64, u64, u64)>,
    Vec<u64>,
);

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request executed.
    Ok(Reply),
    /// Admission control rejected the request (bounded ingest queue full
    /// or the server is draining) — the typed retry-later signal.
    Overloaded,
    /// The request failed server-side.
    Err(String),
    /// The commit path has no disk space; retry with the same request ID
    /// once space returns (reads keep serving meanwhile).
    DiskFull,
    /// The request frame did not parse; the connection is closed after
    /// this response (a garbled stream cannot be re-synchronised).
    BadFrame(String),
    /// This server is a read-only follower: writes must go to the named
    /// primary (empty when the follower does not know one).
    NotPrimary(String),
    /// A coordinator's scatter could not reach shard `.0` (after its
    /// retry budget, including any follower failover): the partial
    /// results were discarded — a distributed answer is never a
    /// silently-wrong total — and the detail message explains why.
    ShardUnavailable(u32, String),
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A bounds-checked reader over one frame payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("truncated payload"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// `n` values the peer announced, reserving no more memory than the
    /// payload has bytes left.
    fn many<T: Field>(&mut self, n: usize) -> io::Result<Vec<T>> {
        let mut all = Vec::with_capacity(n.min(self.buf.len() / size_of::<T>()));
        for _ in 0..n {
            all.push(T::get(self)?);
        }
        Ok(all)
    }
}

/// How one field of a frame goes on the wire, implemented once per field
/// type.
pub(crate) trait Field: Sized {
    /// True only for `u32`, the item: a `Vec` of items is an itemset, the
    /// one sequence whose count is a `u16` rather than a `u32`.
    const ITEM: bool = false;

    /// Appends this value's bytes.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value, or a typed error for bytes no `put` writes.
    fn get(r: &mut Reader<'_>) -> io::Result<Self>;
}

macro_rules! le_fields {
    ($($int:ty: $item:literal),*) => {$(
        impl Field for $int {
            const ITEM: bool = $item;

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> io::Result<Self> {
                let bytes = r.take(size_of::<$int>())?;
                Ok(<$int>::from_le_bytes(bytes.try_into().expect("took its width")))
            }
        }
    )*};
}
le_fields!(u8: false, u16: false, u32: true, u64: false);

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            k => Err(bad(format!("bad flag byte {k}"))),
        }
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        let n = u32::get(r)?;
        String::from_utf8(r.take(n as usize)?.to_vec()).map_err(|_| bad("invalid UTF-8"))
    }
}

/// A presence flag, then the value if present.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A count, then each value.
impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        if T::ITEM {
            debug_assert!(self.len() <= usize::from(u16::MAX), "itemset too large");
            (self.len() as u16).put(out);
        } else {
            (self.len() as u32).put(out);
        }
        self.iter().for_each(|v| v.put(out));
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        let n = if T::ITEM {
            usize::from(u16::get(r)?)
        } else {
            u32::get(r)? as usize
        };
        r.many(n)
    }
}

macro_rules! tuple_fields {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Field),+> Field for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }

            fn get(r: &mut Reader<'_>) -> io::Result<Self> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )*};
}
tuple_fields!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

impl Field for Scheme {
    fn put(&self, out: &mut Vec<u8>) {
        self.id().put(out);
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        Scheme::from_id(u8::get(r)?).ok_or_else(|| bad("unknown scheme id"))
    }
}

/// A kind byte (0 count, 1 fraction), then the count or the fraction's
/// `f64` bits.
impl Field for SupportThreshold {
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            SupportThreshold::Count(c) => (0u8, c).put(out),
            SupportThreshold::Fraction(f) => (1u8, f.to_bits()).put(out),
        }
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        match u8::get(r)? {
            0 => Ok(SupportThreshold::Count(u64::get(r)?)),
            1 => {
                let f = f64::from_bits(u64::get(r)?);
                if !(0.0..=1.0).contains(&f) {
                    return Err(bad(format!("support fraction out of range: {f}")));
                }
                Ok(SupportThreshold::Fraction(f))
            }
            k => Err(bad(format!("unknown threshold kind {k}"))),
        }
    }
}

impl Field for Response {
    fn put(&self, out: &mut Vec<u8>) {
        let code = match self {
            Response::Ok(_) => status::OK,
            Response::Overloaded => status::OVERLOADED,
            Response::Err(_) => status::ERR,
            Response::DiskFull => status::DISK_FULL,
            Response::BadFrame(_) => status::BAD_FRAME,
            Response::NotPrimary(_) => status::NOT_PRIMARY,
            Response::ShardUnavailable(..) => status::SHARD_UNAVAILABLE,
        };
        code.put(out);
        match self {
            Response::Ok(reply) => reply.put(out),
            Response::Overloaded | Response::DiskFull => {}
            Response::Err(msg) | Response::BadFrame(msg) | Response::NotPrimary(msg) => {
                msg.put(out)
            }
            Response::ShardUnavailable(shard, msg) => {
                shard.put(out);
                msg.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> io::Result<Self> {
        Ok(match u8::get(r)? {
            status::OK => Response::Ok(Reply::get(r)?),
            status::OVERLOADED => Response::Overloaded,
            status::ERR => Response::Err(String::get(r)?),
            status::DISK_FULL => Response::DiskFull,
            status::BAD_FRAME => Response::BadFrame(String::get(r)?),
            status::NOT_PRIMARY => Response::NotPrimary(String::get(r)?),
            status::SHARD_UNAVAILABLE => Response::ShardUnavailable(u32::get(r)?, String::get(r)?),
            k => return Err(bad(format!("unknown status byte {k}"))),
        })
    }
}

/// One whole payload: `value` and nothing after it.
fn encode(value: &impl Field) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Reads what [`encode`] writes; trailing bytes are an error.
fn decode<T: Field>(payload: &[u8]) -> io::Result<T> {
    let mut r = Reader { buf: payload };
    let value = T::get(&mut r)?;
    if !r.buf.is_empty() {
        return Err(bad("trailing bytes in payload"));
    }
    Ok(value)
}

impl Request {
    /// Serialises this request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Parses a frame payload into a request.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        decode(payload)
    }
}

impl Response {
    /// Serialises this response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Parses a frame payload into a response.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        decode(payload)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(bad(format!("frame too large: {} bytes", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// Blocking variant for clients.  The server reads frames through its own
/// interruptible loop (see `net`) so it can poll a shutdown flag.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n if n < 4 => r.read_exact(&mut len[n..])?,
        _ => {}
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(bad(format!("frame too large: {n} bytes")));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).expect("decode"), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).expect("decode"), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Insert {
            req_id: 0,
            txns: vec![(7, vec![1, 2, 3]), (8, vec![]), (u64::MAX, vec![u32::MAX])],
        });
        roundtrip_request(Request::Insert {
            req_id: u64::MAX,
            txns: vec![(1, vec![9])],
        });
        for scheme in Scheme::ALL {
            roundtrip_request(Request::Mine {
                scheme,
                threshold: SupportThreshold::Count(42),
                threads: 4,
            });
        }
        roundtrip_request(Request::Mine {
            scheme: Scheme::Dfp,
            threshold: SupportThreshold::Fraction(0.003),
            threads: 0,
        });
        roundtrip_request(Request::Probe { row: 123_456 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Replicate {
            from_row: 0,
            from_dseq: 0,
            max_entries: 128,
        });
        roundtrip_request(Request::Replicate {
            from_row: u64::MAX,
            from_dseq: u64::MAX,
            max_entries: u32::MAX,
        });
        roundtrip_request(Request::Delete {
            req_id: 0,
            tids: vec![],
        });
        roundtrip_request(Request::Delete {
            req_id: u64::MAX,
            tids: vec![0, 7, u64::MAX],
        });
        roundtrip_request(Request::Maintain {
            action: maintain_action::PROBE_FPR,
            arg: 0,
        });
        roundtrip_request(Request::Maintain {
            action: maintain_action::COMPACT,
            arg: u64::MAX,
        });
        roundtrip_request(Request::Promote);
        roundtrip_request(Request::CountMany { itemsets: vec![] });
        roundtrip_request(Request::CountMany {
            itemsets: vec![vec![3, 1, 2], vec![], vec![u32::MAX]],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: Some(9),
            itemsets: vec![vec![1, 2], vec![]],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: Some(u64::MAX),
            itemsets: vec![vec![u32::MAX]],
        });
        // The latest-epoch form, distinct from epoch 0 (a real epoch), and
        // the pin: no epoch and no itemsets.
        roundtrip_request(Request::CountManyAt {
            epoch: None,
            itemsets: vec![vec![4]],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: Some(0),
            itemsets: vec![],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: None,
            itemsets: vec![],
        });
        roundtrip_request(Request::Rows {
            epoch: 3,
            from: 0,
            limit: 4096,
        });
        roundtrip_request(Request::Rows {
            epoch: u64::MAX,
            from: u64::MAX,
            limit: u32::MAX,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ok(Reply::Pong));
        roundtrip_response(Response::Ok(Reply::Insert {
            first_row: 5,
            appended: 2,
            epoch: 9,
            deduped: false,
        }));
        roundtrip_response(Response::Ok(Reply::Insert {
            first_row: 5,
            appended: 2,
            epoch: 11,
            deduped: true,
        }));
        roundtrip_response(Response::Ok(Reply::Mine {
            epoch: 2,
            rows: 50,
            patterns: vec![(vec![1], 30, false), (vec![1, 2], 11, true)],
        }));
        roundtrip_response(Response::Ok(Reply::Probe { txn: None }));
        roundtrip_response(Response::Ok(Reply::Probe {
            txn: Some((99, vec![4, 5])),
        }));
        roundtrip_response(Response::Ok(Reply::Stats {
            json: "{\"ok\":true}".into(),
        }));
        roundtrip_response(Response::Ok(Reply::ShuttingDown));
        roundtrip_response(Response::Ok(Reply::LogEntries {
            rows: 42,
            entries: vec![],
        }));
        roundtrip_response(Response::Ok(Reply::LogEntries {
            rows: 42,
            entries: vec![
                (0, vec![(1, vec![1, 2]), (2, vec![])], vec![(9, 0, 2)], vec![]),
                (2, vec![(3, vec![7])], vec![], vec![]),
                (3, vec![], vec![(11, 0, 2)], vec![0, 2]),
            ],
        }));
        roundtrip_response(Response::Ok(Reply::Delete {
            deleted: 0,
            epoch: 1,
            deduped: false,
        }));
        roundtrip_response(Response::Ok(Reply::Delete {
            deleted: u64::MAX,
            epoch: u64::MAX,
            deduped: true,
        }));
        roundtrip_response(Response::Ok(Reply::Maintain {
            action_taken: maintain_action::FOLD,
            width: 800,
            live_rows: 90,
            deleted_rows: 10,
            fpr_bits: 0.015f64.to_bits(),
        }));
        roundtrip_response(Response::Ok(Reply::Promoted { epoch: 5, rows: 99 }));
        roundtrip_response(Response::Ok(Reply::CountMany {
            supports: vec![],
            epoch: 1,
            rows: 2,
        }));
        roundtrip_response(Response::Ok(Reply::CountMany {
            supports: vec![7, 0, u64::MAX],
            epoch: 4,
            rows: 1000,
        }));
        roundtrip_response(Response::Ok(Reply::CountsAt {
            epoch: 7,
            rows: 320,
            width: 1600,
            hasher: "md5/4".into(),
            supports: vec![],
        }));
        roundtrip_response(Response::Ok(Reply::CountsAt {
            epoch: 7,
            rows: u64::MAX,
            width: u32::MAX,
            hasher: String::new(),
            supports: vec![0, 3, u64::MAX],
        }));
        roundtrip_response(Response::Ok(Reply::Rows {
            total: 11,
            next: 11,
            txns: vec![],
        }));
        roundtrip_response(Response::Ok(Reply::Rows {
            total: 11,
            next: 6,
            txns: vec![(1, vec![4, 5]), (9, vec![])],
        }));
        roundtrip_response(Response::Overloaded);
        roundtrip_response(Response::Err("boom".into()));
        roundtrip_response(Response::DiskFull);
        roundtrip_response(Response::BadFrame("len 12 is not a frame".into()));
        roundtrip_response(Response::NotPrimary("127.0.0.1:7777".into()));
        roundtrip_response(Response::NotPrimary(String::new()));
        roundtrip_response(Response::ShardUnavailable(2, "connect timed out".into()));
        roundtrip_response(Response::ShardUnavailable(0, String::new()));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        // The retired COUNT and SNAPSHOT_PIN opcodes, in their old shapes.
        assert!(Request::decode(&[1, 1, 0, 7, 0, 0, 0]).is_err());
        assert!(Request::decode(&[10]).is_err());
        // A COUNT_MANY itemset claiming 2 items but carrying 1.
        let mut bytes = vec![op::COUNT_MANY, 1, 0, 0, 0, 2, 0];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        assert!(Request::decode(&bytes).is_err());
        // Trailing garbage after a valid request.
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // Mine with an out-of-range fraction.
        let mut bytes = vec![op::MINE, 0, 1];
        bytes.extend_from_slice(&2.5f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        assert!(Request::decode(&bytes).is_err());
        assert!(Response::decode(&[9]).is_err());
        // DELETE reply with an out-of-range dedup flag byte.
        let mut bytes = vec![status::OK, op::DELETE];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.push(7);
        assert!(Response::decode(&bytes).is_err());
    }

    /// Every `bool` on the wire is a 0 or a 1: a MINE reply whose
    /// approximate flag is 2 is a typed error, as a dedup flag of 7 is.
    #[test]
    fn a_mine_reply_flag_byte_of_2_is_a_typed_error() {
        let mine = |approx: u8| {
            let mut bytes = vec![status::OK, op::MINE];
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&4u64.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&[1, 0, 7, 0, 0, 0]);
            bytes.extend_from_slice(&3u64.to_le_bytes());
            bytes.push(approx);
            Response::decode(&bytes)
        };
        assert!(mine(1).is_ok());
        let err = mine(2).expect_err("approx byte 2");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("eof"), None);

        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }
}
