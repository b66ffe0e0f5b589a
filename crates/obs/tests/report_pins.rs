//! Pins the `RankReport` wire format and fold rules byte for byte.
//!
//! The report's JSON is read back by the doctor, the live plane and
//! archived `.jsonl` traces, so its key names, key order, number text,
//! merge/window arithmetic and per-field parse strictness are a format,
//! not an implementation detail. The fixture sets every numeric leaf to
//! a distinct nonzero value below 2^53 (event kind codes excepted: they
//! must name a real kind), so a swapped, dropped or re-ruled field
//! changes the pinned text.

use mimir_obs::{
    AdaptCounters, CacheCounters, CacheNameRecord, CommCounters, Event, EventKind, GroupCounters,
    JobCounters, JobRecord, Json, LiveCounters, MemCounters, PhasePeaks, PhaseTimes, RankReport,
    ShuffleCounters, WaitCounters,
};

/// A report whose numeric leaves count up from `base + 1`, in field
/// order; float leaves carry a `.25` so they stay exactly printable.
fn fixture(base: u64) -> RankReport {
    let mut n = base;
    let mut u = || {
        n += 1;
        n
    };
    let rank = u();
    let ranks = u();
    let comm = CommCounters {
        sends: u(),
        recvs: u(),
        bytes_sent: u(),
        bytes_recvd: u(),
        collectives: u(),
        bytes_copied: u(),
        send_allocs: u(),
        wire_bytes_sent: u(),
        wire_bytes_recvd: u(),
        wire_frames_sent: u(),
        wire_frames_recvd: u(),
        wire_recv_allocs: u(),
        handshake_ns: u(),
    };
    let mem = MemCounters {
        pages_allocated: u(),
        pages_recycled: u(),
        bytes_in_use: u(),
        peak_bytes: u(),
        budget_bytes: u(),
        oom_events: u(),
    };
    let shuffle = ShuffleCounters {
        kvs_emitted: u(),
        kv_bytes_emitted: u(),
        kvs_received: u(),
        rounds: u(),
        spilled_bytes: u(),
        bytes_received: u(),
        max_round_recv_bytes: u(),
        max_dest_bytes: u(),
        imbalance_permille: u(),
        gini_permille: u(),
    };
    let waits = WaitCounters {
        total_wait_ns: u(),
        total_work_ns: u(),
        sync_wait_ns: u(),
        data_wait_ns: u(),
        barrier_wait_ns: u(),
    };
    let group = GroupCounters {
        inserts: u(),
        probes: u(),
        max_probe: u(),
        rehashes: u(),
        interned_bytes: u(),
        groups: u(),
        capacity: u(),
        probe_hist: [u(), u(), u(), u(), u(), u(), u(), u()],
    };
    let adapt = AdaptCounters {
        mode_switches: u(),
        grow_steps: u(),
        shrink_steps: u(),
        final_fill_permille: u(),
        final_overlap: u(),
        converged_round: u(),
        hot_trips: u(),
        hot_staged_kvs: u(),
        hot_staged_bytes: u(),
        hot_unique_kvs: u(),
        hot_forward_bytes: u(),
        salted_rounds: u(),
        merge_rounds: u(),
        jumbo_floor_hits: u(),
    };
    let times = PhaseTimes {
        map_s: u() as f64 + 0.25,
        aggregate_s: u() as f64 + 0.25,
        convert_s: u() as f64 + 0.25,
        reduce_s: u() as f64 + 0.25,
    };
    let peaks = PhasePeaks {
        map_bytes: u(),
        convert_bytes: u(),
        reduce_bytes: u(),
    };
    let job = JobCounters {
        unique_keys: u(),
        kvs_out: u(),
        node_peak_bytes: u(),
    };
    let cache = CacheCounters {
        hits: u(),
        misses: u(),
        elisions: u(),
        evictions: u(),
        reloads: u(),
        cached_bytes: u(),
    };
    let live = LiveCounters {
        snapshots: u(),
        published_bytes: u(),
        publish_ns: u(),
        max_publish_lag_ms: u(),
        flight_dumps: u(),
    };
    let cache_names = vec![CacheNameRecord {
        name: "pr".into(),
        bytes: u(),
        elisions: u(),
    }];
    let jobs = vec![JobRecord {
        id: u(),
        name: "wc".into(),
        priority: u(),
        outcome: u(),
        retries: u(),
        queued_s: u() as f64 + 0.25,
        running_s: u() as f64 + 0.25,
        footprint_bytes: u(),
        kvs_out: u(),
        spill_bytes: u(),
    }];
    let events = vec![Event {
        t_ns: u(),
        kind: EventKind::FlowSend,
        a: u(),
        b: u(),
    }];
    let events_dropped = u();
    RankReport {
        rank,
        ranks,
        comm,
        mem,
        shuffle,
        waits,
        group,
        adapt,
        times,
        peaks,
        job,
        cache,
        live,
        cache_names,
        jobs,
        events,
        events_dropped,
    }
}

const PINNED_JSON: &str = concat!(
    r#"{"rank":1001,"ranks":1002,"comm":{"sends":1003,"recvs":1004,"bytes_sent":1005,"#,
    r#""bytes_recvd":1006,"collectives":1007,"bytes_copied":1008,"send_allocs":1009,"#,
    r#""wire_bytes_sent":1010,"wire_bytes_recvd":1011,"wire_frames_sent":1012,"#,
    r#""wire_frames_recvd":1013,"wire_recv_allocs":1014,"handshake_ns":1015},"#,
    r#""mem":{"pages_allocated":1016,"pages_recycled":1017,"bytes_in_use":1018,"#,
    r#""peak_bytes":1019,"budget_bytes":1020,"oom_events":1021},"shuffle":{"kvs_emitted":1022,"#,
    r#""kv_bytes_emitted":1023,"kvs_received":1024,"rounds":1025,"spilled_bytes":1026,"#,
    r#""bytes_received":1027,"max_round_recv_bytes":1028,"max_dest_bytes":1029,"#,
    r#""imbalance_permille":1030,"gini_permille":1031},"waits":{"total_wait_ns":1032,"#,
    r#""total_work_ns":1033,"sync_wait_ns":1034,"data_wait_ns":1035,"barrier_wait_ns":1036},"#,
    r#""group":{"inserts":1037,"probes":1038,"max_probe":1039,"rehashes":1040,"#,
    r#""interned_bytes":1041,"groups":1042,"capacity":1043,"probe_hist":[1044,1045,1046,1047,"#,
    r#"1048,1049,1050,1051]},"adapt":{"mode_switches":1052,"grow_steps":1053,"#,
    r#""shrink_steps":1054,"final_fill_permille":1055,"final_overlap":1056,"#,
    r#""converged_round":1057,"hot_trips":1058,"hot_staged_kvs":1059,"hot_staged_bytes":1060,"#,
    r#""hot_unique_kvs":1061,"hot_forward_bytes":1062,"salted_rounds":1063,"merge_rounds":1064,"#,
    r#""jumbo_floor_hits":1065},"times":{"map_s":1066.25,"aggregate_s":1067.25,"#,
    r#""convert_s":1068.25,"reduce_s":1069.25},"peaks":{"map_bytes":1070,"convert_bytes":1071,"#,
    r#""reduce_bytes":1072},"job":{"unique_keys":1073,"kvs_out":1074,"node_peak_bytes":1075},"#,
    r#""cache":{"hits":1076,"misses":1077,"elisions":1078,"evictions":1079,"reloads":1080,"#,
    r#""cached_bytes":1081},"live":{"snapshots":1082,"published_bytes":1083,"publish_ns":1084,"#,
    r#""max_publish_lag_ms":1085,"flight_dumps":1086},"cache_names":[{"name":"pr","bytes":1087,"#,
    r#""elisions":1088}],"jobs":[{"id":1089,"name":"wc","priority":1090,"outcome":1091,"#,
    r#""retries":1092,"queued_s":1093.25,"running_s":1094.25,"footprint_bytes":1095,"#,
    r#""kvs_out":1096,"spill_bytes":1097}],"events":[[1098,18,1099,1100]],"#,
    r#""events_dropped":1101}"#,
);
const PINNED_MERGE: &str = concat!(
    r#"{"rank":1001,"ranks":6004,"comm":{"sends":6006,"recvs":6008,"bytes_sent":6010,"#,
    r#""bytes_recvd":6012,"collectives":6014,"bytes_copied":6016,"send_allocs":6018,"#,
    r#""wire_bytes_sent":6020,"wire_bytes_recvd":6022,"wire_frames_sent":6024,"#,
    r#""wire_frames_recvd":6026,"wire_recv_allocs":6028,"handshake_ns":6030},"#,
    r#""mem":{"pages_allocated":6032,"pages_recycled":6034,"bytes_in_use":5018,"#,
    r#""peak_bytes":5019,"budget_bytes":5020,"oom_events":6042},"shuffle":{"kvs_emitted":6044,"#,
    r#""kv_bytes_emitted":6046,"kvs_received":6048,"rounds":5025,"spilled_bytes":6052,"#,
    r#""bytes_received":6054,"max_round_recv_bytes":5028,"max_dest_bytes":5029,"#,
    r#""imbalance_permille":5030,"gini_permille":5031},"waits":{"total_wait_ns":6064,"#,
    r#""total_work_ns":6066,"sync_wait_ns":6068,"data_wait_ns":6070,"barrier_wait_ns":6072},"#,
    r#""group":{"inserts":6074,"probes":6076,"max_probe":5039,"rehashes":6080,"#,
    r#""interned_bytes":6082,"groups":6084,"capacity":5043,"probe_hist":[6088,6090,6092,6094,"#,
    r#"6096,6098,6100,6102]},"adapt":{"mode_switches":6104,"grow_steps":6106,"#,
    r#""shrink_steps":6108,"final_fill_permille":5055,"final_overlap":5056,"#,
    r#""converged_round":5057,"hot_trips":6116,"hot_staged_kvs":6118,"hot_staged_bytes":6120,"#,
    r#""hot_unique_kvs":6122,"hot_forward_bytes":6124,"salted_rounds":6126,"merge_rounds":6128,"#,
    r#""jumbo_floor_hits":6130},"times":{"map_s":5066.25,"aggregate_s":5067.25,"#,
    r#""convert_s":5068.25,"reduce_s":5069.25},"peaks":{"map_bytes":5070,"convert_bytes":5071,"#,
    r#""reduce_bytes":5072},"job":{"unique_keys":6146,"kvs_out":6148,"node_peak_bytes":5075},"#,
    r#""cache":{"hits":6152,"misses":6154,"elisions":6156,"evictions":6158,"reloads":6160,"#,
    r#""cached_bytes":6162},"live":{"snapshots":6164,"published_bytes":6166,"publish_ns":6168,"#,
    r#""max_publish_lag_ms":5085,"flight_dumps":6172},"cache_names":[{"name":"pr","bytes":6174,"#,
    r#""elisions":6176}],"jobs":[{"id":1089,"name":"wc","priority":1090,"outcome":1091,"#,
    r#""retries":1092,"queued_s":1093.25,"running_s":1094.25,"footprint_bytes":1095,"#,
    r#""kvs_out":1096,"spill_bytes":1097},{"id":5089,"name":"wc","priority":5090,"#,
    r#""outcome":5091,"retries":5092,"queued_s":5093.25,"running_s":5094.25,"#,
    r#""footprint_bytes":5095,"kvs_out":5096,"spill_bytes":5097}],"events":[],"#,
    r#""events_dropped":6202}"#,
);
const PINNED_DELTA: &str = concat!(
    r#"{"rank":5001,"ranks":5002,"comm":{"sends":4000,"recvs":4000,"bytes_sent":4000,"#,
    r#""bytes_recvd":4000,"collectives":4000,"bytes_copied":4000,"send_allocs":4000,"#,
    r#""wire_bytes_sent":4000,"wire_bytes_recvd":4000,"wire_frames_sent":4000,"#,
    r#""wire_frames_recvd":4000,"wire_recv_allocs":4000,"handshake_ns":4000},"#,
    r#""mem":{"pages_allocated":4000,"pages_recycled":4000,"bytes_in_use":5018,"#,
    r#""peak_bytes":5019,"budget_bytes":5020,"oom_events":4000},"shuffle":{"kvs_emitted":4000,"#,
    r#""kv_bytes_emitted":4000,"kvs_received":4000,"rounds":4000,"spilled_bytes":4000,"#,
    r#""bytes_received":4000,"max_round_recv_bytes":5028,"max_dest_bytes":5029,"#,
    r#""imbalance_permille":5030,"gini_permille":5031},"waits":{"total_wait_ns":4000,"#,
    r#""total_work_ns":4000,"sync_wait_ns":4000,"data_wait_ns":4000,"barrier_wait_ns":4000},"#,
    r#""group":{"inserts":4000,"probes":4000,"max_probe":5039,"rehashes":4000,"#,
    r#""interned_bytes":4000,"groups":4000,"capacity":5043,"probe_hist":[4000,4000,4000,4000,"#,
    r#"4000,4000,4000,4000]},"adapt":{"mode_switches":5052,"grow_steps":5053,"#,
    r#""shrink_steps":5054,"final_fill_permille":5055,"final_overlap":5056,"#,
    r#""converged_round":5057,"hot_trips":5058,"hot_staged_kvs":5059,"hot_staged_bytes":5060,"#,
    r#""hot_unique_kvs":5061,"hot_forward_bytes":5062,"salted_rounds":5063,"merge_rounds":5064,"#,
    r#""jumbo_floor_hits":5065},"times":{"map_s":4000,"aggregate_s":4000,"convert_s":4000,"#,
    r#""reduce_s":4000},"peaks":{"map_bytes":5070,"convert_bytes":5071,"reduce_bytes":5072},"#,
    r#""job":{"unique_keys":4000,"kvs_out":4000,"node_peak_bytes":5075},"cache":{"hits":4000,"#,
    r#""misses":4000,"elisions":4000,"evictions":4000,"reloads":4000,"cached_bytes":5081},"#,
    r#""live":{"snapshots":4000,"published_bytes":4000,"publish_ns":4000,"#,
    r#""max_publish_lag_ms":5085,"flight_dumps":4000},"cache_names":[{"name":"pr","bytes":5087,"#,
    r#""elisions":5088}],"jobs":[{"id":5089,"name":"wc","priority":5090,"outcome":5091,"#,
    r#""retries":5092,"queued_s":5093.25,"running_s":5094.25,"footprint_bytes":5095,"#,
    r#""kvs_out":5096,"spill_bytes":5097}],"events":[],"events_dropped":4000}"#,
);
const PINNED_DELTA_SATURATED: &str = concat!(
    r#"{"rank":1001,"ranks":1002,"comm":{"sends":0,"recvs":0,"bytes_sent":0,"bytes_recvd":0,"#,
    r#""collectives":0,"bytes_copied":0,"send_allocs":0,"wire_bytes_sent":0,"#,
    r#""wire_bytes_recvd":0,"wire_frames_sent":0,"wire_frames_recvd":0,"wire_recv_allocs":0,"#,
    r#""handshake_ns":0},"mem":{"pages_allocated":0,"pages_recycled":0,"bytes_in_use":1018,"#,
    r#""peak_bytes":1019,"budget_bytes":1020,"oom_events":0},"shuffle":{"kvs_emitted":0,"#,
    r#""kv_bytes_emitted":0,"kvs_received":0,"rounds":0,"spilled_bytes":0,"bytes_received":0,"#,
    r#""max_round_recv_bytes":1028,"max_dest_bytes":1029,"imbalance_permille":1030,"#,
    r#""gini_permille":1031},"waits":{"total_wait_ns":0,"total_work_ns":0,"sync_wait_ns":0,"#,
    r#""data_wait_ns":0,"barrier_wait_ns":0},"group":{"inserts":0,"probes":0,"max_probe":1039,"#,
    r#""rehashes":0,"interned_bytes":0,"groups":0,"capacity":1043,"probe_hist":[0,0,0,0,0,0,0,"#,
    r#"0]},"adapt":{"mode_switches":1052,"grow_steps":1053,"shrink_steps":1054,"#,
    r#""final_fill_permille":1055,"final_overlap":1056,"converged_round":1057,"hot_trips":1058,"#,
    r#""hot_staged_kvs":1059,"hot_staged_bytes":1060,"hot_unique_kvs":1061,"#,
    r#""hot_forward_bytes":1062,"salted_rounds":1063,"merge_rounds":1064,"#,
    r#""jumbo_floor_hits":1065},"times":{"map_s":0,"aggregate_s":0,"convert_s":0,"reduce_s":0},"#,
    r#""peaks":{"map_bytes":1070,"convert_bytes":1071,"reduce_bytes":1072},"#,
    r#""job":{"unique_keys":0,"kvs_out":0,"node_peak_bytes":1075},"cache":{"hits":0,"misses":0,"#,
    r#""elisions":0,"evictions":0,"reloads":0,"cached_bytes":1081},"live":{"snapshots":0,"#,
    r#""published_bytes":0,"publish_ns":0,"max_publish_lag_ms":1085,"flight_dumps":0},"#,
    r#""cache_names":[{"name":"pr","bytes":1087,"elisions":1088}],"jobs":[{"id":1089,"#,
    r#""name":"wc","priority":1090,"outcome":1091,"retries":1092,"queued_s":1093.25,"#,
    r#""running_s":1094.25,"footprint_bytes":1095,"kvs_out":1096,"spill_bytes":1097}],"#,
    r#""events":[],"events_dropped":0}"#,
);

/// The leaves whose removal `from_json` rejects: the first-release
/// counters. Every other numeric leaf is a later addition and parses as
/// 0 when absent; deleting an event column breaks the event's arity.
const REQUIRED: &[&str] = &[
    "rank",
    "ranks",
    "comm.sends",
    "comm.recvs",
    "comm.bytes_sent",
    "comm.bytes_recvd",
    "comm.collectives",
    "mem.pages_allocated",
    "mem.pages_recycled",
    "mem.bytes_in_use",
    "mem.peak_bytes",
    "shuffle.kvs_emitted",
    "shuffle.kv_bytes_emitted",
    "shuffle.kvs_received",
    "shuffle.rounds",
    "shuffle.spilled_bytes",
    "times.map_s",
    "times.aggregate_s",
    "times.convert_s",
    "times.reduce_s",
    "peaks.map_bytes",
    "peaks.convert_bytes",
    "peaks.reduce_bytes",
    "job.unique_keys",
    "job.kvs_out",
    "job.node_peak_bytes",
    "events[0][0]",
    "events[0][1]",
    "events[0][2]",
    "events[0][3]",
    "events_dropped",
];

#[test]
fn to_json_string_is_byte_exact() {
    let r = fixture(1000);
    assert_eq!(r.to_json_string(), PINNED_JSON);
    let back = RankReport::from_json_string(PINNED_JSON).unwrap();
    assert_eq!(back, r, "the pinned text parses back to the fixture");
}

#[test]
fn merge_and_delta_since_match_the_golden_results() {
    let earlier = fixture(1000);
    let later = fixture(5000);
    let mut merged = earlier.clone();
    merged.merge(&later);
    assert_eq!(merged.to_json_string(), PINNED_MERGE);
    assert_eq!(later.delta_since(&earlier).to_json_string(), PINNED_DELTA);
    // The other way round every flow counter would go negative: it
    // saturates at 0 and times clamp at 0.0.
    assert_eq!(
        earlier.delta_since(&later).to_json_string(),
        PINNED_DELTA_SATURATED
    );
}

/// One step of a path into a JSON value.
#[derive(Clone)]
enum Step {
    Key(String),
    Idx(usize),
}

fn render(path: &[Step]) -> String {
    let mut out = String::new();
    for s in path {
        match s {
            Step::Key(k) if out.is_empty() => out.push_str(k),
            Step::Key(k) => {
                out.push('.');
                out.push_str(k);
            }
            Step::Idx(i) => out.push_str(&format!("[{i}]")),
        }
    }
    out
}

fn numeric_leaves(v: &Json, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Json::Obj(fields) => {
            for (k, item) in fields {
                path.push(Step::Key(k.clone()));
                numeric_leaves(item, path, out);
                path.pop();
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Idx(i));
                numeric_leaves(item, path, out);
                path.pop();
            }
        }
        other if other.as_f64().is_some() => out.push(path.clone()),
        _ => {}
    }
}

/// Removes the leaf at `path` (an object key or an array element).
fn delete(v: &mut Json, path: &[Step]) {
    let (last, parents) = path.split_last().unwrap();
    let mut cur = v;
    for step in parents {
        cur = match (cur, step) {
            (Json::Obj(fields), Step::Key(k)) => {
                &mut fields.iter_mut().find(|(name, _)| name == k).unwrap().1
            }
            (Json::Arr(items), Step::Idx(i)) => &mut items[*i],
            _ => unreachable!("paths come from numeric_leaves"),
        };
    }
    match (cur, last) {
        (Json::Obj(fields), Step::Key(k)) => fields.retain(|(name, _)| name != k),
        (Json::Arr(items), Step::Idx(i)) => {
            items.remove(*i);
        }
        _ => unreachable!("paths come from numeric_leaves"),
    }
}

#[test]
fn from_json_requires_exactly_the_first_release_fields() {
    let full = Json::parse(&fixture(1000).to_json_string()).unwrap();
    let mut paths = Vec::new();
    numeric_leaves(&full, &mut Vec::new(), &mut paths);
    assert!(paths.len() > 100, "the fixture covers every numeric leaf");
    let mut required = Vec::new();
    for path in &paths {
        let mut cut = full.clone();
        delete(&mut cut, path);
        if RankReport::from_json(&cut).is_err() {
            required.push(render(path));
        }
    }
    assert_eq!(required, REQUIRED);
}
