//! Telemetry JSON carries every `u64` exactly.
//!
//! Flow ids are `(rank << 48) | seq` and `pack_rank_bytes` puts a rank
//! in the same top bits, so from rank 32 up both pass 2^53, where an
//! `f64` stops counting in ones. A rounded flow id no longer pairs its
//! send with its receive, which silently cuts the doctor's critical
//! path. These round-trips go through the same text the `.jsonl` traces
//! and the gather payload carry.

use mimir_obs::{
    jsonl_string, pack_rank_bytes, unpack_rank_bytes, Event, EventKind, Json, RankReport,
};

const BIG: u64 = (1 << 53) + 1;

fn report_with(flow: u64, packed: u64) -> RankReport {
    let mut r = RankReport::new(33);
    r.comm.bytes_sent = BIG;
    r.group.probe_hist[7] = u64::MAX;
    r.events.push(Event {
        t_ns: BIG + 2,
        kind: EventKind::FlowSend,
        a: flow,
        b: packed,
    });
    r
}

#[test]
fn flow_ids_and_packed_ranks_past_2_pow_53_round_trip() {
    let flow = (33 << 48) | 12345;
    let packed = pack_rank_bytes(40, 8);
    let r = report_with(flow, packed);
    let text = r.to_json_string();
    assert!(text.contains(&format!("[{},18,{flow},{packed}]", BIG + 2)));
    let back = RankReport::from_json_string(&text).unwrap();
    assert_eq!(back.events[0].a, flow);
    assert_eq!(unpack_rank_bytes(back.events[0].b), (40, 8));
    assert_eq!(back.comm.bytes_sent, BIG);
    assert_eq!(back.group.probe_hist[7], u64::MAX);
    assert_eq!(back, r);
}

#[test]
fn every_rank_up_to_64_keeps_its_flow_ids() {
    for rank in 30..=64u64 {
        for seq in [1u64, 12345, (1 << 48) - 1] {
            let flow = (rank << 48) | seq;
            let packed = pack_rank_bytes(rank, seq);
            let back =
                RankReport::from_json_string(&report_with(flow, packed).to_json_string()).unwrap();
            assert_eq!(back.events[0].a, flow, "rank {rank} seq {seq}");
            assert_eq!(back.events[0].b, packed, "rank {rank} seq {seq}");
        }
    }
}

#[test]
fn jsonl_event_lines_carry_exact_flow_ids() {
    let flow = (33 << 48) | 12345;
    let text = jsonl_string(&[report_with(flow, pack_rank_bytes(40, 8))]);
    let lines = Json::parse_lines(&text).unwrap();
    let event = lines
        .iter()
        .find(|l| l.get("record").and_then(Json::as_str) == Some("event"))
        .unwrap();
    assert_eq!(event.get("a").and_then(Json::as_u64), Some(flow));
    assert_eq!(event.get("t_ns").and_then(Json::as_u64), Some(BIG + 2));
    let report = lines
        .iter()
        .find(|l| l.get("record").and_then(Json::as_str) == Some("report"))
        .unwrap();
    assert_eq!(RankReport::from_json(report).unwrap().comm.bytes_sent, BIG);
}

#[test]
fn small_integers_keep_their_text() {
    assert_eq!(
        Json::parse("9007199254740991").unwrap().to_string(),
        "9007199254740991"
    );
    assert_eq!(
        Json::parse("18446744073709551615").unwrap().as_u64(),
        Some(u64::MAX)
    );
    assert_eq!(Json::parse("12.5").unwrap().as_f64(), Some(12.5));
}
