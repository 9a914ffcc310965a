//! Golden wire bytes: one frame payload for a canonical instance of every
//! request, every ok reply and every other response status, written out
//! in hex with a space between fields, plus the stats document of fresh
//! metrics.
//!
//! Editing this file is a wire-format change.  A deployed client, server,
//! coordinator or follower sends exactly these bytes, so a change to the
//! protocol code must leave every assertion here passing untouched.

use bbs_core::Scheme;
use bbs_server::{maintain_action, Reply, Request, Response, ServerMetrics};
use bbs_tdb::SupportThreshold;

/// Variants of [`Request`]; [`request_variant`] fails to compile when one
/// is added, so the golden set below must grow with the protocol.
const REQUEST_VARIANTS: usize = 13;
/// Variants of [`Reply`], checked the same way by [`reply_variant`].
const REPLY_VARIANTS: usize = 13;
/// Variants of [`Response`], checked by [`response_variant`].
const RESPONSE_VARIANTS: usize = 7;

fn request_variant(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Insert { .. } => 1,
        Request::Mine { .. } => 2,
        Request::Probe { .. } => 3,
        Request::Stats => 4,
        Request::Shutdown => 5,
        Request::Replicate { .. } => 6,
        Request::Promote => 7,
        Request::CountMany { .. } => 8,
        Request::CountManyAt { .. } => 9,
        Request::Delete { .. } => 10,
        Request::Maintain { .. } => 11,
        Request::Rows { .. } => 12,
    }
}

fn reply_variant(reply: &Reply) -> usize {
    match reply {
        Reply::Pong => 0,
        Reply::Insert { .. } => 1,
        Reply::Mine { .. } => 2,
        Reply::Probe { .. } => 3,
        Reply::Stats { .. } => 4,
        Reply::ShuttingDown => 5,
        Reply::LogEntries { .. } => 6,
        Reply::Promoted { .. } => 7,
        Reply::CountMany { .. } => 8,
        Reply::CountsAt { .. } => 9,
        Reply::Delete { .. } => 10,
        Reply::Maintain { .. } => 11,
        Reply::Rows { .. } => 12,
    }
}

fn response_variant(resp: &Response) -> usize {
    match resp {
        Response::Ok(_) => 0,
        Response::Overloaded => 1,
        Response::Err(_) => 2,
        Response::DiskFull => 3,
        Response::BadFrame(_) => 4,
        Response::NotPrimary(_) => 5,
        Response::ShardUnavailable(..) => 6,
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, "00"),
        (
            Request::Insert {
                req_id: 0x0102_0304_0506_0708,
                txns: vec![(7, vec![1, 2]), (8, vec![])],
            },
            "02 0807060504030201 02000000 0700000000000000 0200 01000000 02000000 \
             0800000000000000 0000",
        ),
        (
            Request::Mine {
                scheme: Scheme::Sfp,
                threshold: SupportThreshold::Count(3),
                threads: 2,
            },
            "03 01 00 0300000000000000 0200",
        ),
        (
            Request::Mine {
                scheme: Scheme::Dfp,
                threshold: SupportThreshold::Fraction(0.25),
                threads: 0,
            },
            "03 03 01 000000000000d03f 0000",
        ),
        (Request::Probe { row: 513 }, "04 0102000000000000"),
        (Request::Stats, "05"),
        (Request::Shutdown, "06"),
        (
            Request::Replicate {
                from_row: 10,
                from_dseq: 2,
                max_entries: 64,
            },
            "07 0a00000000000000 0200000000000000 40000000",
        ),
        (Request::Promote, "08"),
        (
            Request::CountMany {
                itemsets: vec![vec![3, 1], vec![]],
            },
            "09 02000000 0200 03000000 01000000 0000",
        ),
        (
            Request::CountManyAt {
                epoch: Some(9),
                itemsets: vec![vec![258]],
            },
            "0b 01 0900000000000000 01000000 0100 02010000",
        ),
        (
            Request::CountManyAt {
                epoch: None,
                itemsets: vec![],
            },
            "0b 00 00000000",
        ),
        (
            Request::Delete {
                req_id: 5,
                tids: vec![7, 1 << 32],
            },
            "0d 0500000000000000 02000000 0700000000000000 0000000001000000",
        ),
        (
            Request::Maintain {
                action: maintain_action::FOLD,
                arg: 800,
            },
            "0e 02 2003000000000000",
        ),
        (
            Request::Rows {
                epoch: 4,
                from: 100,
                limit: 4096,
            },
            "0c 0400000000000000 6400000000000000 00100000",
        ),
    ]
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok(Reply::Pong), "00 00"),
        (
            Response::Ok(Reply::Insert {
                first_row: 5,
                appended: 2,
                epoch: 9,
                deduped: true,
            }),
            "00 02 0500000000000000 0200000000000000 0900000000000000 01",
        ),
        (
            Response::Ok(Reply::Mine {
                epoch: 2,
                rows: 50,
                patterns: vec![(vec![1], 30, false), (vec![1, 2], 11, true)],
            }),
            "00 03 0200000000000000 3200000000000000 02000000 0100 01000000 \
             1e00000000000000 00 0200 01000000 02000000 0b00000000000000 01",
        ),
        (Response::Ok(Reply::Probe { txn: None }), "00 04 00"),
        (
            Response::Ok(Reply::Probe {
                txn: Some((99, vec![4, 5])),
            }),
            "00 04 01 6300000000000000 0200 04000000 05000000",
        ),
        (
            Response::Ok(Reply::Stats {
                json: "{\"ok\":true}".into(),
            }),
            "00 05 0b000000 7b226f6b223a747275657d",
        ),
        (Response::Ok(Reply::ShuttingDown), "00 06"),
        (
            Response::Ok(Reply::LogEntries {
                rows: 42,
                entries: vec![
                    (0, vec![(1, vec![1, 2])], vec![(9, 0, 1)], vec![]),
                    (1, vec![], vec![(11, 0, 1)], vec![0]),
                ],
            }),
            "00 07 2a00000000000000 02000000 \
             0000000000000000 01000000 0100000000000000 0200 01000000 02000000 \
             01000000 0900000000000000 0000000000000000 0100000000000000 00000000 \
             0100000000000000 00000000 \
             01000000 0b00000000000000 0000000000000000 0100000000000000 \
             01000000 0000000000000000",
        ),
        (
            Response::Ok(Reply::Promoted { epoch: 5, rows: 99 }),
            "00 08 0500000000000000 6300000000000000",
        ),
        (
            Response::Ok(Reply::CountMany {
                supports: vec![7, 0],
                epoch: 4,
                rows: 1000,
            }),
            "00 09 02000000 0700000000000000 0000000000000000 0400000000000000 \
             e803000000000000",
        ),
        (
            Response::Ok(Reply::CountsAt {
                epoch: 7,
                rows: 320,
                width: 1600,
                hasher: "md5/4".into(),
                supports: vec![3],
            }),
            "00 0b 0700000000000000 4001000000000000 40060000 05000000 6d64352f34 \
             01000000 0300000000000000",
        ),
        (
            Response::Ok(Reply::Delete {
                deleted: 2,
                epoch: 6,
                deduped: false,
            }),
            "00 0d 0200000000000000 0600000000000000 00",
        ),
        (
            Response::Ok(Reply::Maintain {
                action_taken: maintain_action::COMPACT,
                width: 512,
                live_rows: 40,
                deleted_rows: 3,
                fpr_bits: 0.015f64.to_bits(),
            }),
            "00 0e 01 00020000 2800000000000000 0300000000000000 b81e85eb51b88e3f",
        ),
        (
            Response::Ok(Reply::Rows {
                total: 11,
                next: 6,
                txns: vec![(1, vec![4, 5]), (9, vec![])],
            }),
            "00 0c 0b00000000000000 0600000000000000 02000000 \
             0100000000000000 0200 04000000 05000000 0900000000000000 0000",
        ),
        (Response::Overloaded, "01"),
        (Response::Err("boom".into()), "02 04000000 626f6f6d"),
        (Response::DiskFull, "03"),
        (Response::BadFrame("torn".into()), "04 04000000 746f726e"),
        (
            Response::NotPrimary("127.0.0.1:7777".into()),
            "05 0e000000 3132372e302e302e313a37373737",
        ),
        (
            Response::ShardUnavailable(2, "timeout".into()),
            "06 02000000 07000000 74696d656f7574",
        ),
    ]
}

/// The stats document of [`ServerMetrics::new`] with no engine fields.
const FRESH_STATS: &str = concat!(
    r#"{"#,
    r#""ping":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""insert":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""mine":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""probe":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""stats":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""replicate":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""promote":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""count_many":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""delete":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""maintain":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""count_many_at":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""rows_pull":{"requests":0,"errors":0,"latency_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0}},"#,
    r#""count_many_batch":{"count":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
    r#""overloaded":0,"#,
    r#""dedup_hits":0,"#,
    r#""disk_full":0,"#,
    r#""frame_errors":0,"#,
    r#""connections":0,"#,
    r#""queue_depth":0,"#,
    r#""batch_size":{"count":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
    r#""commit_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
    r#""not_primary":0,"#,
    r#""promotions":0,"#,
    r#""replication_lag_rows":0,"#,
    r#""follower_applied_batches":0,"#,
    r#""follower_apply_us":{"count":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
    r#""follower_pull_rows":{"count":0,"mean":0,"p50":0,"p99":0,"max":0},"#,
    r#""follower_resyncs":0,"#,
    r#""pin_evictions":0,"#,
    r#""stale_pins":0,"#,
    r#""maintenance_runs":0,"#,
    r#""maintenance_compactions":0,"#,
    r#""maintenance_folds":0,"#,
    r#""last_measured_fpr":0.000000}"#,
);

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex literal {hex:?}");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_request_has_its_golden_bytes() {
    let mut seen = [false; REQUEST_VARIANTS];
    for (req, golden) in requests() {
        seen[request_variant(&req)] = true;
        let bytes = unhex(golden);
        assert_eq!(hex(&req.encode()), hex(&bytes), "{req:?}");
        assert_eq!(Request::decode(&bytes).expect("decode"), req);
    }
    assert!(
        seen.iter().all(|&s| s),
        "a request variant has no golden frame"
    );
}

#[test]
fn every_response_has_its_golden_bytes() {
    let mut replies = [false; REPLY_VARIANTS];
    let mut statuses = [false; RESPONSE_VARIANTS];
    for (resp, golden) in responses() {
        statuses[response_variant(&resp)] = true;
        if let Response::Ok(reply) = &resp {
            replies[reply_variant(reply)] = true;
        }
        let bytes = unhex(golden);
        assert_eq!(hex(&resp.encode()), hex(&bytes), "{resp:?}");
        assert_eq!(Response::decode(&bytes).expect("decode"), resp);
    }
    assert!(
        replies.iter().all(|&s| s),
        "a reply variant has no golden frame"
    );
    assert!(statuses.iter().all(|&s| s), "a status has no golden frame");
}

#[test]
fn the_stats_document_of_fresh_metrics_is_golden() {
    assert_eq!(ServerMetrics::new().to_json(&[]), FRESH_STATS);
}

/// Every proper prefix of every golden frame is a typed error: never a
/// panic, and never a shorter valid frame.
#[test]
fn every_truncation_of_a_golden_frame_is_an_error() {
    for (req, golden) in requests() {
        let bytes = unhex(golden);
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "{req:?} cut at {cut}"
            );
        }
    }
    for (resp, golden) in responses() {
        let bytes = unhex(golden);
        for cut in 0..bytes.len() {
            assert!(
                Response::decode(&bytes[..cut]).is_err(),
                "{resp:?} cut at {cut}"
            );
        }
    }
}

/// Seeded decode fuzz: bit-flipped, truncated and extended mutations of
/// every golden frame, and pure garbage, must decode to `Ok` or a typed
/// error — never a panic.  (The socket-level variant, torn frames against
/// a live server, lives in `tests/net_faults.rs`.)
#[test]
fn mutated_payloads_never_panic_the_decoders() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xBB5_FA22);
    let frames: Vec<Vec<u8>> = requests()
        .into_iter()
        .map(|(_, golden)| unhex(golden))
        .chain(responses().into_iter().map(|(_, golden)| unhex(golden)))
        .collect();
    for _ in 0..4000 {
        let mut bytes = frames[rng.random_range(0..frames.len())].clone();
        match rng.random_range(0..4u32) {
            0 if !bytes.is_empty() => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 1 << rng.random_range(0..8u32);
            }
            1 => bytes.truncate(rng.random_range(0..bytes.len() + 1)),
            2 => {
                for _ in 0..rng.random_range(1..16usize) {
                    bytes.push((rng.random::<u32>() & 0xFF) as u8);
                }
            }
            _ => {
                bytes = (0..rng.random_range(0..64usize))
                    .map(|_| (rng.random::<u32>() & 0xFF) as u8)
                    .collect();
            }
        }
        // Ok or Err both fine; panicking or looping forever is not.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}
