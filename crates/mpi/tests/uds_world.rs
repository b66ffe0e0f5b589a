//! The UDS backend run through the same SPMD programs the in-process
//! backend is tested with: point-to-point, collectives, dup/split
//! isolation, abort/panic propagation, flow-trace integrity across
//! process boundaries, wire-counter honesty, and the chaos case of a
//! rank killed mid-handshake.

use std::time::{Duration, Instant};

use mimir_mpi::{
    run_world_on, run_world_result_on, run_world_uds_with, FaultPoint, ReduceOp, TransportKind,
    UdsFault, UdsWorldOptions, WorldError,
};

const UDS: TransportKind = TransportKind::Uds;

#[test]
fn allreduce_and_ring_over_sockets() {
    let out: Vec<(u64, Vec<u8>)> = run_world_on(UDS, 4, |c| {
        let sum = c.allreduce_u64(ReduceOp::Sum, c.rank() as u64);
        let next = (c.rank() + 1) % c.size();
        let prev = (c.rank() + c.size() - 1) % c.size();
        c.send(next, 7, &[c.rank() as u8; 3]);
        let got = c.recv(prev, 7);
        (sum, got)
    });
    for (rank, (sum, got)) in out.iter().enumerate() {
        assert_eq!(*sum, 6);
        assert_eq!(got, &[((rank + 3) % 4) as u8; 3]);
    }
}

#[test]
fn tag_matching_and_self_send_over_sockets() {
    let out: Vec<Vec<Vec<u8>>> = run_world_on(UDS, 2, |c| {
        if c.rank() == 0 {
            c.send(1, 1, b"first");
            c.send(1, 2, b"second");
            // Self-sends stay on the loopback and must still match tags.
            c.send(0, 9, b"self");
            vec![c.recv(0, 9)]
        } else {
            // Receive in the opposite order of sending.
            let b = c.recv(0, 2);
            let a = c.recv(0, 1);
            vec![a, b]
        }
    });
    assert_eq!(out[0], vec![b"self".to_vec()]);
    assert_eq!(out[1], vec![b"first".to_vec(), b"second".to_vec()]);
}

#[test]
fn alltoallv_transposes_over_sockets() {
    let out: Vec<Vec<Vec<u8>>> = run_world_on(UDS, 4, |c| {
        let me = c.rank() as u8;
        let parts: Vec<Vec<u8>> = (0..c.size()).map(|d| [me, d as u8].repeat(d + 1)).collect();
        c.alltoallv(parts)
    });
    for (dst, received) in out.iter().enumerate() {
        for (src, buf) in received.iter().enumerate() {
            assert_eq!(buf, &[src as u8, dst as u8].repeat(dst + 1));
        }
    }
}

type DupSplitResult = (Vec<u8>, Vec<u8>, usize, Vec<u64>);

#[test]
fn dup_isolates_and_split_partitions_over_sockets() {
    let out: Vec<DupSplitResult> = run_world_on(UDS, 4, |c| {
        let mut d = c.dup();
        let next = (c.rank() + 1) % c.size();
        let prev = (c.rank() + c.size() - 1) % c.size();
        // Same tag on parent and duplicate; send parent-first, receive
        // dup-first. Any cross-match between namespaces swaps payloads.
        c.send(next, 7, &[b'P', c.rank() as u8]);
        d.send(next, 7, &[b'D', c.rank() as u8]);
        let from_dup = d.recv(prev, 7);
        let from_parent = c.recv(prev, 7);
        // Then split even/odd and allgather parent ranks in each group.
        let mut sub = c
            .split(Some((c.rank() % 2) as u64), c.rank() as u64)
            .unwrap();
        let group = sub.allgather_u64(c.rank() as u64);
        (from_parent, from_dup, sub.rank(), group)
    });
    for (rank, (p, d, sub_rank, group)) in out.iter().enumerate() {
        let prev = (rank + 3) % 4;
        assert_eq!(p, &[b'P', prev as u8]);
        assert_eq!(d, &[b'D', prev as u8]);
        assert_eq!(*sub_rank, rank / 2);
        let expect: Vec<u64> = if rank % 2 == 0 {
            vec![0, 2]
        } else {
            vec![1, 3]
        };
        assert_eq!(group, &expect);
    }
}

#[test]
fn result_world_propagates_abort() {
    let res: Result<Vec<u64>, _> = run_world_result_on(UDS, 4, |c| {
        if c.rank() == 1 {
            Err("bad input".to_string())
        } else {
            let _ = c.recv(1, 1);
            Ok(0u64)
        }
    });
    assert_eq!(res, Err(WorldError::Aborted("bad input".to_string())));
}

#[test]
fn rank_panic_surfaces_as_root_cause() {
    let res: Result<Vec<u64>, WorldError<String>> = run_world_result_on(UDS, 4, |c| {
        if c.rank() == 2 {
            panic!("deliberate failure on rank 2");
        }
        // Peers wedge on the dead rank; the disconnect cascade must fold
        // away behind the genuine panic.
        let _ = c.recv(2, 1);
        Ok(0u64)
    });
    match res {
        Err(WorldError::RankPanicked { rank, message }) => {
            assert_eq!(rank, 2);
            assert!(message.contains("deliberate failure"), "got: {message}");
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
}

#[test]
fn wire_counters_are_honest() {
    let out: Vec<mimir_mpi::CommStats> = run_world_on(UDS, 3, |c| {
        c.send((c.rank() + 1) % 3, 5, &[7u8; 1000]);
        let _ = c.recv((c.rank() + 2) % 3, 5);
        c.send(c.rank(), 6, b"self");
        let _ = c.recv(c.rank(), 6);
        c.barrier();
        c.stats()
    });
    let mut total = mimir_mpi::CommStats::default();
    out.iter().for_each(|s| total.merge(s));
    // Every cross-process frame is counted on both ends with identical
    // framing overhead; loopback traffic stays off the wire counters.
    assert_eq!(total.wire_frames_sent, total.wire_frames_recvd);
    assert_eq!(total.wire_bytes_sent, total.wire_bytes_recvd);
    for s in &out {
        // The 1000-byte payload plus barrier hops, all framed.
        assert!(s.wire_frames_sent >= 2, "frames: {}", s.wire_frames_sent);
        assert!(s.wire_bytes_sent > 1000, "bytes: {}", s.wire_bytes_sent);
        // Wire bytes exceed payload bytes by exactly the per-frame header,
        // minus the loopback traffic that never hits the wire.
        assert!(s.handshake_ns > 0, "handshake must be timed");
    }
    // Loopback self-sends counted as messages but not frames.
    assert!(total.msgs_sent > total.wire_frames_sent);
}

#[test]
fn flow_trace_pairs_across_process_boundaries() {
    use mimir_obs::{EventKind, Recorder, FLOW_SEQ_BITS};
    let epoch = Instant::now();
    // kind: 0 = FlowSend, 1 = FlowRecv; (kind, flow id, b-arg, t_ns).
    let out: Vec<Vec<(u8, u64, u64, u64)>> = run_world_on(UDS, 3, move |c| {
        mimir_obs::install(Recorder::with_epoch(c.rank(), 4096, epoch));
        c.send((c.rank() + 1) % 3, 3, &[7u8; 32]);
        let _ = c.recv((c.rank() + 2) % 3, 3);
        c.barrier();
        let r = mimir_obs::take().unwrap();
        r.events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FlowSend => Some((0u8, e.a, e.b, e.t_ns)),
                EventKind::FlowRecv => Some((1u8, e.a, e.b, e.t_ns)),
                _ => None,
            })
            .collect()
    });
    let sends: Vec<_> = out.iter().flatten().filter(|e| e.0 == 0).collect();
    let recvs: Vec<_> = out.iter().flatten().filter(|e| e.0 == 1).collect();
    assert!(!sends.is_empty() && !recvs.is_empty());
    for r in &recvs {
        // Every FlowRecv pairs exactly one FlowSend with the same flow id,
        // even though the id crossed a process boundary in a frame header.
        let matching: Vec<_> = sends.iter().filter(|s| s.1 == r.1).collect();
        assert_eq!(matching.len(), 1, "exactly one send per received flow");
        // Forked children share the parent's monotonic clock, so the
        // happens-before edge holds across processes too.
        assert!(matching[0].3 <= r.3, "send happens before receive");
        assert_eq!(r.1 >> FLOW_SEQ_BITS, r.2 >> 48, "source rank consistent");
    }
}

#[test]
fn killed_child_mid_handshake_fails_bounded_not_hangs() {
    for at in [FaultPoint::BeforeListen, FaultPoint::AfterListen] {
        let opts = UdsWorldOptions {
            connect_window: Duration::from_millis(400),
            world_timeout: Duration::from_secs(60),
            fault: Some(UdsFault { rank: 2, at }),
        };
        let t0 = Instant::now();
        let res: Result<Vec<u64>, _> = run_world_uds_with(4, &opts, |c| {
            c.barrier();
            c.rank() as u64
        });
        let elapsed = t0.elapsed();
        match res {
            Err(WorldError::RankPanicked { rank, message }) => {
                // Root cause: the fault-injected rank died without a word;
                // survivors' handshake disconnects fold away behind it.
                assert_eq!(rank, 2, "{at:?}: {message}");
                assert!(
                    message.contains("exited with code"),
                    "{at:?}: unexpected message: {message}"
                );
            }
            other => panic!("{at:?}: expected RankPanicked, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(30),
            "{at:?}: handshake failure must be bounded, took {elapsed:?}"
        );
    }
}

#[test]
fn single_rank_uds_world() {
    let out: Vec<u64> = run_world_on(UDS, 1, |c| {
        c.barrier();
        c.send(0, 1, b"only");
        let got = c.recv(0, 1);
        got.len() as u64 + c.allreduce_u64(ReduceOp::Sum, 5)
    });
    assert_eq!(out, vec![9]);
}
