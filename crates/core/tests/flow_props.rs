//! Flow-event integrity under a real multi-rank shuffle: every
//! `FlowRecv` pairs with exactly one `FlowSend` (same id, send before
//! receive on the shared clock), message metadata round-trips through
//! the packed event arguments, and ring overflow degrades to *detectable
//! drops* — a receive whose send half was overwritten matches nothing,
//! never the wrong send.

use std::time::Instant;

use mimir_core::{Emitter, KvContainer, KvMeta, Partitioner, ShuffleMode, Shuffler};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::{unpack_rank_bytes, Event, EventKind, Recorder, FLOW_SEQ_BITS};

/// Runs a heavy-ish shuffle of `n_kvs` 16-byte KVs per rank through a
/// `comm_buf`-byte send buffer, with per-rank recorders of `ring_cap`
/// events, and returns `(rank, events, dropped)` per rank — the
/// gathered view a doctor ingestion would see.
fn traced_shuffle(
    ranks: usize,
    n_kvs: u64,
    comm_buf: usize,
    ring_cap: usize,
) -> Vec<(usize, Vec<Event>, u64)> {
    let epoch = Instant::now();
    run_world(ranks, move |comm| {
        let mut rec = Recorder::with_epoch(comm.rank(), ring_cap, epoch);
        rec.set_flow_enabled(true);
        mimir_obs::install(rec);
        let pool = MemPool::unlimited("t", 64 * 1024);
        let meta = KvMeta::fixed(8, 8);
        let sink = KvContainer::new(&pool, meta);
        let mut sh = Shuffler::with_options(
            comm,
            &pool,
            meta,
            comm_buf,
            sink,
            Partitioner::hash(),
            ShuffleMode::ZeroCopy,
        )
        .unwrap();
        let me = sh.rank() as u64;
        for i in 0..n_kvs {
            sh.emit(&(me * 100_000 + i).to_le_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        sh.finish().unwrap();
        let rec = mimir_obs::take().expect("recorder installed");
        (comm.rank(), rec.events(), rec.dropped())
    })
}

struct FlowHalf {
    rank: usize,
    t_ns: u64,
    peer: u64,
    bytes: u64,
}

type SendIndex = std::collections::HashMap<u64, Vec<FlowHalf>>;

fn split_flows(world: &[(usize, Vec<Event>, u64)]) -> (SendIndex, Vec<(u64, FlowHalf)>) {
    let mut sends: SendIndex = std::collections::HashMap::new();
    let mut recvs = Vec::new();
    for (rank, events, _) in world {
        for e in events {
            let (peer, bytes) = unpack_rank_bytes(e.b);
            let half = FlowHalf {
                rank: *rank,
                t_ns: e.t_ns,
                peer,
                bytes,
            };
            match e.kind {
                EventKind::FlowSend => sends.entry(e.a).or_default().push(half),
                EventKind::FlowRecv => recvs.push((e.a, half)),
                _ => {}
            }
        }
    }
    (sends, recvs)
}

#[test]
fn every_recv_pairs_with_exactly_one_send() {
    // 33 and 64 ranks put sender ranks past bit 5 of the flow id's and
    // the packed `(rank, bytes)` argument's rank field.
    for (ranks, n_kvs, comm_buf) in [(4, 1500, 2048), (33, 200, 64 * 33), (64, 120, 64 * 64)] {
        check_flow_pairing(&traced_shuffle(ranks, n_kvs, comm_buf, 64 * 1024));
    }
}

fn check_flow_pairing(world: &[(usize, Vec<Event>, u64)]) {
    assert!(
        world.iter().all(|(_, _, dropped)| *dropped == 0),
        "ring sized to keep the full run"
    );
    let (sends, recvs) = split_flows(world);
    assert!(!recvs.is_empty(), "the shuffle produced cross-rank flows");
    // Flow ids are globally unique: no id was allocated twice.
    for (id, halves) in &sends {
        assert_eq!(halves.len(), 1, "flow id {id:#x} allocated twice");
    }
    for (id, r) in &recvs {
        let s_list = sends
            .get(id)
            .unwrap_or_else(|| panic!("recv of flow {id:#x} without its send"));
        let s = &s_list[0];
        assert!(
            s.t_ns <= r.t_ns,
            "flow {id:#x}: send at {} after recv at {} on the shared clock",
            s.t_ns,
            r.t_ns
        );
        assert_eq!(s.peer as usize, r.rank, "send names its receiver");
        assert_eq!(r.peer as usize, s.rank, "recv names its sender");
        assert_eq!(
            (*id >> FLOW_SEQ_BITS) as usize,
            s.rank,
            "id high bits carry the sender's rank"
        );
        assert_eq!(s.bytes, r.bytes, "payload size agrees on both ends");
    }
    // Each message is matched at most once: distinct receive events
    // never share a flow id.
    let mut seen = std::collections::HashSet::new();
    for (id, _) in &recvs {
        assert!(seen.insert(*id), "flow {id:#x} was received twice");
    }
}

#[test]
fn ring_overflow_drops_are_detectable_not_mispaired() {
    // A 64-event ring is far too small for the run: most halves get
    // overwritten. Integrity must degrade to *missing* halves (flagged
    // by the dropped counter), never to a wrong pairing.
    let world = traced_shuffle(4, 1500, 2048, 64);
    assert!(
        world.iter().any(|(_, _, dropped)| *dropped > 0),
        "the tiny ring must have overwritten events"
    );
    let (sends, recvs) = split_flows(&world);
    for halves in sends.values() {
        assert_eq!(halves.len(), 1, "drops must not duplicate an id");
    }
    for (id, r) in &recvs {
        // A surviving recv either finds its unique send, or the send was
        // dropped — identifiable because ids encode the sender, whose
        // dropped counter is nonzero.
        match sends.get(id) {
            Some(s_list) => {
                let s = &s_list[0];
                assert!(s.t_ns <= r.t_ns, "flow {id:#x} paired backwards");
                assert_eq!(s.peer as usize, r.rank);
            }
            None => {
                let sender = (*id >> FLOW_SEQ_BITS) as usize;
                let (_, _, sender_dropped) = world[sender];
                assert!(
                    sender_dropped > 0,
                    "flow {id:#x}: send half missing but rank {sender} \
                     reports no drops"
                );
            }
        }
    }
}
