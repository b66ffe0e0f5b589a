//! JSON-lines exporter: one self-describing record per line.
//!
//! The format is `grep`/`jq`-friendly raw material: a `report` line per
//! rank (counters only) followed by an `event` line per retained trace
//! event. Chrome-trace answers "show me the timeline"; this answers
//! "let me script over the numbers".

use crate::json::Json;
use crate::report::RankReport;

/// Renders `reports` as JSON-lines text.
///
/// When any rank's trace ring overwrote events, the stream opens with a
/// `header` record carrying the loss — consumers scripting over the
/// event lines must not mistake a truncated timeline for a short run.
pub fn jsonl_string(reports: &[RankReport]) -> String {
    let mut out = String::new();
    let dropped: u64 = reports.iter().map(|r| r.events_dropped).sum();
    if dropped > 0 {
        let header = Json::obj(vec![
            ("record", Json::Str("header".into())),
            ("ranks", Json::Num(reports.len() as f64)),
            ("events_dropped", Json::Num(dropped as f64)),
            (
                "warning",
                Json::Str(format!(
                    "{dropped} events were overwritten by the trace ring; event \
                     lines are truncated at the front. Raise MIMIR_TRACE_CAP."
                )),
            ),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
    }
    for r in reports {
        let mut counters_only = r.clone();
        let events = std::mem::take(&mut counters_only.events);
        let mut line = Json::obj(vec![("record", Json::Str("report".into()))]);
        if let (Json::Obj(dst), Json::Obj(src)) = (&mut line, counters_only.to_json()) {
            dst.extend(src);
        }
        out.push_str(&line.to_string());
        out.push('\n');
        for e in &events {
            let line = Json::obj(vec![
                ("record", Json::Str("event".into())),
                ("rank", Json::from_u64(r.rank)),
                ("t_ns", Json::from_u64(e.t_ns)),
                ("kind", Json::Str(e.kind.name().into())),
                ("label", Json::Str(e.label().into())),
                ("a", Json::from_u64(e.a)),
                ("b", Json::from_u64(e.b)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, Phase};

    #[test]
    fn emits_report_then_event_lines() {
        let mut r = RankReport::new(1);
        r.shuffle.kvs_emitted = 7;
        r.events.push(Event {
            t_ns: 99,
            kind: EventKind::PhaseBegin,
            a: Phase::Reduce as u64,
            b: 0,
        });
        let text = jsonl_string(&[r]);
        let docs = Json::parse_lines(&text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("record").unwrap().as_str(), Some("report"));
        assert_eq!(
            docs[0]
                .get("shuffle")
                .unwrap()
                .get("kvs_emitted")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            docs[0].get("events").unwrap().as_arr().unwrap().len(),
            0,
            "report line carries counters, not the event dump"
        );
        assert_eq!(docs[1].get("record").unwrap().as_str(), Some("event"));
        assert_eq!(docs[1].get("label").unwrap().as_str(), Some("reduce"));
        assert_eq!(docs[1].get("t_ns").unwrap().as_u64(), Some(99));
    }

    #[test]
    fn dropped_events_prepend_a_header_warning() {
        let mut a = RankReport::new(0);
        a.events_dropped = 3;
        let mut b = RankReport::new(1);
        b.events_dropped = 4;
        let text = jsonl_string(&[a, b]);
        let docs = Json::parse_lines(&text).unwrap();
        assert_eq!(docs[0].get("record").unwrap().as_str(), Some("header"));
        assert_eq!(docs[0].get("events_dropped").unwrap().as_u64(), Some(7));
        assert!(docs[0]
            .get("warning")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("MIMIR_TRACE_CAP"));
        // Lossless exports stay header-free: the report line leads.
        let clean = jsonl_string(&[RankReport::new(0)]);
        let docs = Json::parse_lines(&clean).unwrap();
        assert_eq!(docs[0].get("record").unwrap().as_str(), Some("report"));
    }
}
