//! End-to-end and per-layer benchmark of the paper's workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wc-wiki --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run makes the workload's input from `--seed`, then repeats the job
//! for `--seconds`, each repetition on a freshly launched world, and
//! checks every output against a serial reference outside the timed
//! region. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! interleaves untraced and traced repetitions and reports the per-layer
//! metrics. The last line of standard output is the result object; the
//! lines before it stamp the environment and give the spread of every
//! metric. See README.md for the workloads and the metric tables.

mod bfs;
mod ledger;
mod rep;
mod trace;
mod wc;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mimir_apps::wordcount::WcOptions;

use rep::Rep;

/// Environment variables that change what the program does while it is
/// measured (tracing, live telemetry, crash dumps, transport choice).
const GUARDED_ENV: [&str; 5] = [
    "MIMIR_TRACE",
    "MIMIR_TRACE_FLOW",
    "MIMIR_LIVE_DIR",
    "MIMIR_FLIGHT_DIR",
    "MIMIR_TRANSPORT",
];

/// Repetitions taken on each side however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A run stops starting repetitions this long after it began, whatever
/// `--seconds` asks, so it ends well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(140);
/// A repetition is disturbed when the hypervisor stole more than this
/// share of the machine's CPU time while it ran. Its timings leave the
/// medians as long as enough undisturbed repetitions remain.
const DISTURBED_STEAL_SHARE: f64 = 0.05;
/// `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_S: f64 = 100.0;
/// Scratch directory for the UDS rendezvous sockets, inside the working
/// directory.
const TMP_DIR: &str = ".bench_tmp";
/// Where traced runs write their spans.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WcWiki,
    WcWikiOpt,
    BfsUds,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "wc-wiki" => Some(Workload::WcWiki),
            "wc-wiki-opt" => Some(Workload::WcWikiOpt),
            "bfs-uds" => Some(Workload::BfsUds),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WcWiki => "wc-wiki",
            Workload::WcWikiOpt => "wc-wiki-opt",
            Workload::BfsUds => "bfs-uds",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <wc-wiki|wc-wiki-opt|bfs-uds> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?;
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), val);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// One workload, ready to run repetitions.
enum Bench {
    Wc(wc::Wc),
    Bfs(bfs::Bfs),
}

impl Bench {
    fn rep(&self, traced: bool, known_good: Option<&[u64]>) -> Rep {
        match self {
            Bench::Wc(w) => w.rep(traced, known_good),
            Bench::Bfs(b) => b.rep(traced, known_good),
        }
    }

    fn input_bytes(&self) -> u64 {
        match self {
            Bench::Wc(w) => w.input_bytes(),
            Bench::Bfs(b) => b.input_bytes(),
        }
    }
}

/// Workload sizes. WordCount sizes are total corpus bytes across ranks;
/// BFS is a Graph500 scale.
const WC_WIKI_BYTES: usize = 64 << 20;
const WC_WIKI_OPT_BYTES: usize = 128 << 20;
const BFS_SCALE: u32 = 17;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes what is measured");
        std::process::exit(2);
    }
    // The UDS transport puts its rendezvous sockets under the temp dir;
    // keep them inside the working directory.
    if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
        eprintln!("perfbench: cannot create {TMP_DIR}: {e}");
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", TMP_DIR);

    let began = Instant::now();
    let (bench, generate_s) = match args.workload {
        Workload::WcWiki => {
            let (w, t) = wc::Wc::new(WcOptions::default(), WC_WIKI_BYTES, args.seed);
            (Bench::Wc(w), t)
        }
        Workload::WcWikiOpt => {
            let (w, t) = wc::Wc::new(WcOptions::all(), WC_WIKI_OPT_BYTES, args.seed);
            (Bench::Wc(w), t)
        }
        Workload::BfsUds => {
            let (b, t) = bfs::Bfs::new(BFS_SCALE, args.seed);
            (Bench::Bfs(b), t)
        }
    };
    let input_bytes = bench.input_bytes();
    let input_mib = input_bytes as f64 / (1u64 << 20) as f64;

    // Warm-up repetition: checked and counted as attempted, not timed.
    let mut all: Vec<(bool, Rep)> = Vec::new();
    let mut known_good: Option<Vec<u64>> = None;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut run = |traced: bool, all: &mut Vec<(bool, Rep)>| {
        let (steal0, t0) = (steal_ticks(), Instant::now());
        let mut r = bench.rep(traced, known_good.as_deref());
        let stolen_s = steal0
            .zip(steal_ticks())
            .map(|(a, b)| b.saturating_sub(a) as f64 / TICKS_PER_S);
        let capacity_s = t0.elapsed().as_secs_f64() * nproc as f64;
        r.disturbed = stolen_s.is_some_and(|s| s > DISTURBED_STEAL_SHARE * capacity_s);
        if r.error.is_none() && known_good.is_none() {
            known_good = Some(r.digests.clone());
        }
        all.push((traced, r));
    };
    run(false, &mut all);
    let steal0 = steal_ticks();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0usize;
    loop {
        let sides: &[bool] = match (args.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in sides {
            run(traced, &mut all);
        }
        i += 1;
        let done = |traced: bool| all.iter().skip(1).filter(|(t, _)| *t == traced).count();
        let enough = done(false) >= MIN_REPS && (!args.trace || done(true) >= MIN_REPS);
        if (Instant::now() >= deadline && enough) || began.elapsed() >= HARD_STOP {
            break;
        }
    }
    let steal = steal0.zip(steal_ticks()).map(|(a, b)| b.saturating_sub(a));
    // Each world removes its own rendezvous directory; this only drops
    // the parent when it is empty, so a concurrent run keeps its sockets.
    let _ = std::fs::remove_dir(TMP_DIR);

    let report = Report::new(&args, &all, input_mib);
    let stamp = stamp(&args, input_bytes, &report, steal);
    println!("{stamp}");
    for line in &report.notes {
        println!("{line}");
    }
    let metrics = if args.trace {
        let io = rep::io_model();
        io.charge_read(input_bytes as usize);
        let spans_file = write_spans(&args, &all);
        println!("{{\"spans\":{}}}", json_str(&spans_file));
        report.per_layer(generate_s, io.modeled_time().as_secs_f64())
    } else {
        report.end_to_end()
    };
    println!("{}", report.detail());
    println!("{}", result_line(&report, &metrics));
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    attempted: usize,
    /// Measured repetitions the hypervisor disturbed.
    disturbed: usize,
    failed: usize,
    /// Successful untraced and traced repetitions after the warm-up.
    plain: Vec<usize>,
    traced: Vec<usize>,
    tput: Vec<f64>,
    tput_traced: Vec<f64>,
    setup: Vec<f64>,
    /// Counter values every repetition agreed on; a counter that differs
    /// is listed in `notes` and carries its largest value.
    counts: Vec<f64>,
    counts_traced: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    notes: Vec<String>,
}

impl Report {
    fn new(args: &Args, all: &[(bool, Rep)], input_mib: f64) -> Report {
        let mut notes = Vec::new();
        let failed = all.iter().filter(|(_, r)| r.error.is_some()).count();
        for (n, (traced, r)) in all.iter().enumerate() {
            if let Some(e) = &r.error {
                let side = if *traced { "traced" } else { "untraced" };
                notes.push(format!(
                    "{{\"failed_rep\":{n},\"side\":\"{side}\",\"error\":{}}}",
                    json_str(e)
                ));
            }
        }
        // Timings come from the undisturbed repetitions when there are
        // enough of them, otherwise from all successful ones.
        let ok = |traced: bool| -> Vec<usize> {
            let good: Vec<usize> = (1..all.len())
                .filter(|&n| all[n].0 == traced && all[n].1.error.is_none())
                .collect();
            let calm: Vec<usize> = good
                .iter()
                .copied()
                .filter(|&n| !all[n].1.disturbed)
                .collect();
            if calm.len() >= MIN_REPS {
                calm
            } else {
                good
            }
        };
        let plain = ok(false);
        let traced = ok(true);
        let tput = |idx: &[usize]| -> Vec<f64> {
            idx.iter().map(|&n| input_mib / all[n].1.wall_s).collect()
        };

        // Exact repeats: every count of one seed must read the same on
        // every untraced repetition (warm-up included), and the traced
        // repetitions must agree with each other and with the untraced
        // ones on the counters both read.
        let checked_plain: Vec<&Rep> = all
            .iter()
            .filter(|(t, r)| !*t && r.error.is_none())
            .map(|(_, r)| r)
            .collect();
        let checked_traced: Vec<&Rep> = traced.iter().map(|&n| &all[n].1).collect();
        let counts = agree(&checked_plain, "untraced", &mut notes);
        let counts_traced = agree(&checked_traced, "traced", &mut notes);
        let mut failed_extra = 0;
        if args.trace && !counts.is_empty() && !counts_traced.is_empty() {
            for name in FIDELITY {
                let i = ledger::idx(name);
                if counts[i] != counts_traced[i] {
                    notes.push(format!(
                        "{{\"traced_differs\":\"{name}\",\"untraced\":{},\"traced\":{}}}",
                        counts[i], counts_traced[i]
                    ));
                }
            }
        }
        // The traced run must reproduce the untraced run's output.
        let mut traced_ok = Vec::new();
        if let Some(&first) = plain.first() {
            let want = &all[first].1.digests;
            for &n in &traced {
                if &all[n].1.digests == want {
                    traced_ok.push(n);
                } else {
                    failed_extra += 1;
                    notes.push(format!(
                        "{{\"failed_rep\":{n},\"side\":\"traced\",\"error\":\"output differs from the untraced run\"}}"
                    ));
                }
            }
        }
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &n in &traced_ok {
            for (&k, &v) in &all[n].1.layers {
                layers.entry(k).or_default().push(v);
            }
        }
        Report {
            attempted: all.len(),
            disturbed: all.iter().skip(1).filter(|(_, r)| r.disturbed).count(),
            failed: failed + failed_extra,
            tput: tput(&plain),
            tput_traced: tput(&traced_ok),
            setup: plain.iter().map(|&n| all[n].1.setup_s).collect(),
            plain,
            traced: traced_ok,
            counts,
            counts_traced,
            layers,
            notes,
        }
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let peak = self
            .counts
            .get(ledger::idx("peak_node_bytes"))
            .copied()
            .unwrap_or(0.0);
        vec![
            ("throughput_mib_s", median(&self.tput), "MiB/s"),
            ("peak_node_bytes", peak, "B"),
            ("setup_s", median(&self.setup), "s"),
        ]
    }

    fn per_layer(&self, generate_s: f64, modeled_read_s: f64) -> Vec<Metric> {
        let c = |name: &str| {
            self.counts_traced
                .get(ledger::idx(name))
                .copied()
                .unwrap_or(0.0)
        };
        let l = |name: &str| median(self.layers.get(name).map_or(&[][..], |v| &v[..]));
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let overhead = 1.0 - median(&self.tput_traced) / median(&self.tput);
        let counter = |name: &'static str, unit: &'static str| (name, c(name), unit);
        vec![
            ("datagen.generate_s", generate_s, "s"),
            ("mpi.launch_s", l("mpi.launch_s"), "s"),
            counter("mpi.handshake_s", "s"),
            counter("mpi.wire_frames_sent", "count"),
            counter("mpi.wire_bytes_sent", "B"),
            counter("mpi.wire_recv_allocs", "count"),
            counter("mpi.wait_s", "s"),
            counter("mpi.work_s", "s"),
            counter("mpi.collectives", "count"),
            counter("mpi.send_allocs", "count"),
            counter("mpi.bytes_copied", "B"),
            ("mpi.collective_s", l("mpi.collective_s"), "s"),
            ("core.context_new_s", l("core.context_new_s"), "s"),
            ("apps.pick_root_s", l("apps.pick_root_s"), "s"),
            ("apps.map_user_s", l("apps.map_user_s"), "s"),
            ("apps.drain_s", l("apps.drain_s"), "s"),
            ("core.map_shuffle_s", l("core.map_shuffle_s"), "s"),
            counter("core.shuffle.rounds", "count"),
            counter("core.shuffle.sync_wait_s", "s"),
            counter("core.shuffle.data_wait_s", "s"),
            counter("core.shuffle.kv_bytes_emitted", "B"),
            counter("core.shuffle.bytes_received", "B"),
            counter("core.shuffle.max_round_recv_bytes", "B"),
            counter("core.shuffle.imbalance_permille", "permille"),
            counter("core.barrier_wait_s", "s"),
            counter("core.map_peak_bytes", "B"),
            ("core.convert_s", l("core.convert_s"), "s"),
            counter("core.convert_peak_bytes", "B"),
            (
                "core.group.avg_probe",
                ratio(c("core.group.probes"), c("core.group.inserts")),
                "probes",
            ),
            counter("core.group.rehashes", "count"),
            counter("core.unique_keys", "count"),
            ("core.reduce_s", l("core.reduce_s"), "s"),
            counter("core.reduce_peak_bytes", "B"),
            ("core.combiner.fold_s", l("core.combiner.fold_s"), "s"),
            counter("core.combiner.kvs_in", "count"),
            counter("core.combiner.kvs_out", "count"),
            (
                "core.combiner.ratio",
                ratio(c("core.combiner.kvs_out"), c("core.combiner.kvs_in")),
                "ratio",
            ),
            (
                "core.combiner.avg_probe",
                ratio(c("core.combiner.probes"), c("core.combiner.inserts")),
                "probes",
            ),
            counter("mem.page_allocs", "count"),
            counter("mem.page_frees", "count"),
            counter("mem.oom_events", "count"),
            ("io.modeled_read_s", modeled_read_s, "s"),
            ("unattributed_s", l("unattributed_s"), "s"),
            ("trace.job_s", l("trace.job_s"), "s"),
            ("trace.overhead", finite(overhead), "ratio"),
        ]
    }

    /// Spread of every timed sample behind the metrics.
    fn detail(&self) -> String {
        let mut s = String::from("{\"samples\":{");
        let mut series: Vec<(&str, &[f64])> =
            vec![("throughput_mib_s", &self.tput), ("setup_s", &self.setup)];
        if !self.tput_traced.is_empty() {
            series.push(("traced_throughput_mib_s", &self.tput_traced));
        }
        for (k, v) in &self.layers {
            series.push((k, v));
        }
        for (n, (name, v)) in series.iter().enumerate() {
            let (q1, q2, q3) = quartiles(v);
            let _ = write!(
                s,
                "{}\"{name}\":{{\"n\":{},\"q1\":{q1},\"median\":{q2},\"q3\":{q3},\"values\":{:?}}}",
                if n > 0 { "," } else { "" },
                v.len(),
                v
            );
        }
        let _ = write!(
            s,
            "}},\"reps\":{{\"untraced\":{},\"traced\":{}}}}}",
            self.plain.len(),
            self.traced.len()
        );
        s
    }
}

/// Counters the traced run must read exactly as the untraced run does:
/// the mirror makes the same calls, so it moves the same data.
const FIDELITY: [&str; 10] = [
    "peak_node_bytes",
    "core.shuffle.rounds",
    "core.shuffle.kv_bytes_emitted",
    "core.shuffle.bytes_received",
    "core.unique_keys",
    "core.map_peak_bytes",
    "core.convert_peak_bytes",
    "core.reduce_peak_bytes",
    "mem.page_allocs",
    "mpi.wire_frames_sent",
];

/// The counter values a set of repetitions agreed on. An exact counter
/// that differs between repetitions is reported in `notes` and carries
/// its largest value; other counters take the median.
fn agree(reps: &[&Rep], side: &str, notes: &mut Vec<String>) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    (0..first.counts.len())
        .map(|i| {
            let vals: Vec<f64> = reps.iter().map(|r| r.counts[i]).collect();
            let c = &ledger::COUNTERS[i];
            if !c.exact {
                return median(&vals);
            }
            if vals.iter().any(|&v| v != vals[0]) {
                notes.push(format!(
                    "{{\"not_repeated\":\"{}\",\"side\":\"{side}\",\"values\":{:?}}}",
                    c.name, vals
                ));
            }
            vals.iter().copied().fold(f64::MIN, f64::max)
        })
        .collect()
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the exclusive method); a single
/// sample is its own quartiles, none gives zeros.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let q = |j: usize| {
                let m = (n + 1) as f64;
                let pos = j as f64 * m / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                let delta = pos - lo as f64;
                s[lo - 1] + (s[lo] - s[lo - 1]) * delta
            };
            let mid = if n % 2 == 1 {
                s[n / 2]
            } else {
                (s[n / 2 - 1] + s[n / 2]) / 2.0
            };
            (q(1), mid, q(3))
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (n, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if n > 0 { "," } else { "" },
            finite(*value)
        );
    }
    s.push_str("}}");
    s
}

/// The commit the checkout was made from, when it still has its `.git`.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// CPU time the hypervisor took from this machine's vCPUs, in clock
/// ticks (field 8 of the `cpu` line of `/proc/stat`), when readable.
/// Stolen time stretches every wall-clock metric, so the stamp records
/// how much of it fell inside the measured repetitions.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn stamp(args: &Args, input_bytes: u64, report: &Report, steal: Option<u64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (transport, world, threads) = match args.workload {
        Workload::BfsUds => (
            "uds",
            "forked rank processes",
            "per rank process: 1 rank thread, plus 1 reader and 1 writer thread per peer",
        ),
        _ => (
            "inproc",
            "rank threads in one process",
            "1 thread per rank, plus the idle launching thread",
        ),
    };
    format!(
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"ranks\":{},\"world\":\"{world}\",\"threads\":\"{threads}\",\
         \"transport\":\"{transport}\",\"pool\":\"one rank per pool, {} MiB budget, {} KiB pages\",\
         \"git_rev\":{},\"input_bytes\":{input_bytes},\"attempted\":{},\
         \"cpu_steal_ticks\":{},\"disturbed_reps\":{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rep::RANKS,
        rep::BUDGET >> 20,
        rep::PAGE >> 10,
        json_str(&git_rev()),
        report.attempted,
        steal.map_or("null".to_string(), |t| t.to_string()),
        report.disturbed,
    )
}

/// Writes every traced repetition's spans, one JSON line per span, and
/// returns the file's path.
fn write_spans(args: &Args, all: &[(bool, Rep)]) -> String {
    let path = format!(
        "{OUT_DIR}/{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    );
    let mut out = String::new();
    for (n, (_, r)) in all.iter().enumerate().filter(|(_, (t, _))| *t) {
        let run_id = format!("{}-{}-{n}", args.workload.name(), args.seed);
        for (rank, spans) in r.spans.iter().enumerate() {
            trace::write_jsonl(&mut out, &run_id, rank, spans);
        }
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    path
}
