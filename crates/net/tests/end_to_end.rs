//! End-to-end tests: a real server on a loopback socket, driven by the
//! load generator and by hand-rolled hostile clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use balloc_net::wire::{encode, ErrorCode, Frame, FrameDecoder};
use balloc_net::{
    run_loadgen, LoadGenConfig, NetConfig, NetServer, ServerMode, ServerReport, ShutdownHandle,
};
use balloc_serve::{
    run_replay, BackendKind, NoiseMode, Request, ServeConfig, SnapshotPath, Staleness,
};

/// Spawns a server, returning its address, shutdown handle, and the
/// join handle that yields the final report.
fn spawn_server(
    cfg: NetConfig,
) -> (
    std::net::SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<ServerReport>,
) {
    let server = NetServer::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn inline_cfg(n: usize, shards: usize, b: u64, seed: u64) -> NetConfig {
    NetConfig {
        n,
        shards,
        staleness: Staleness::Batch { b },
        seed,
        mode: ServerMode::Inline,
    }
}

#[test]
fn inline_conservation_across_the_socket() {
    let (addr, shutdown, join) = spawn_server(inline_cfg(64, 4, 64, 42));
    let report = run_loadgen(&LoadGenConfig {
        addr,
        connections: 3,
        pipeline: 16,
        requests: 3_000,
        request: Request::two_choice(),
        seed: 7,
        collect_bins: false,
    })
    .expect("loadgen");
    assert_eq!(report.completed, 3_000);
    assert_eq!(report.errors, 0);
    assert_eq!(report.sent, 3_000);
    shutdown.shutdown();
    let server = join.join().expect("server thread");
    // Exact conservation: every ball the clients were promised exists in
    // the authoritative store, no more, no less.
    assert_eq!(server.served, 3_000);
    assert_eq!(server.state.balls(), 3_000);
    assert_eq!(server.accepted, 3);
    assert!(server.refreshes >= 3, "each connection primes its snapshot");
}

#[test]
fn stacked_mode_serves_and_sheds_on_the_wire() {
    let (addr, shutdown, join) = spawn_server(NetConfig {
        n: 32,
        shards: 2,
        staleness: Staleness::Batch { b: 32 },
        seed: 5,
        mode: ServerMode::Stacked {
            buffer_capacity: 1024,
            inflight: None,
        },
    });
    let report = run_loadgen(&LoadGenConfig {
        addr,
        connections: 2,
        pipeline: 8,
        requests: 1_000,
        request: Request::two_choice(),
        seed: 11,
        collect_bins: false,
    })
    .expect("loadgen");
    shutdown.shutdown();
    let server = join.join().expect("server thread");
    // Shed requests get error replies, served ones get bins; nothing is
    // silently lost on either side of the socket.
    assert_eq!(report.completed + report.errors, 1_000);
    assert_eq!(report.completed, server.served);
    assert_eq!(report.errors, server.rejected);
    assert_eq!(server.state.balls(), server.served);
}

#[test]
fn replay_digest_matches_in_process_replay_across_the_socket() {
    let n = 128;
    let shards = 4;
    let seed = 2022;
    let staleness = Staleness::Batch { b: 32 };
    let clients = 3;
    let requests = 2_049; // deliberately not divisible by clients

    let (addr, shutdown, join) = spawn_server(NetConfig {
        n,
        shards,
        staleness,
        seed,
        mode: ServerMode::Replay { clients },
    });
    let report = run_loadgen(&LoadGenConfig {
        addr,
        connections: clients,
        pipeline: 32,
        requests,
        request: Request::two_choice(),
        seed: 99, // arrival seed: must NOT matter for the digest
        collect_bins: true,
    })
    .expect("loadgen");
    shutdown.shutdown();
    let server = join.join().expect("server thread");

    let expected = run_replay(&ServeConfig {
        n,
        shards,
        workers: clients,
        requests,
        request: Request::two_choice(),
        staleness,
        buffer_capacity: 1024,
        inflight: None,
        backend: BackendKind::Sharded,
        snapshot: SnapshotPath::Buffered,
        seed,
    });

    assert_eq!(report.completed, requests);
    assert_eq!(
        report.digest.expect("clean run reconstructs the digest"),
        expected.digest,
        "client-side digest must equal the in-process replay digest"
    );
    assert_eq!(server.digest, expected.digest, "server-side digest too");
    assert_eq!(server.state.gap(), expected.outcome.gap);
    assert_eq!(server.state.max_load(), expected.outcome.max_load);
}

#[test]
fn replay_digest_is_arrival_order_invariant() {
    // Two different arrival seeds (different packet interleavings, same
    // per-client request sequences) must produce the same digest: the
    // server's round-robin turnstile erases network scheduling.
    let cfg = NetConfig {
        n: 64,
        shards: 2,
        staleness: Staleness::Delay { tau: 16 },
        seed: 31,
        mode: ServerMode::Replay { clients: 2 },
    };
    let mut digests = Vec::new();
    for arrival_seed in [1u64, 2] {
        let (addr, shutdown, join) = spawn_server(cfg);
        let report = run_loadgen(&LoadGenConfig {
            addr,
            connections: 2,
            pipeline: 4,
            requests: 500,
            request: Request::two_choice(),
            seed: arrival_seed,
            collect_bins: true,
        })
        .expect("loadgen");
        shutdown.shutdown();
        join.join().expect("server thread");
        digests.push(report.digest.expect("clean run"));
    }
    assert_eq!(digests[0], digests[1]);
}

/// Sends raw bytes, then reads replies (with a timeout) until the
/// connection closes or `want` frames arrived.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8], want: usize) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(bytes).expect("write");
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    while frames.len() < want {
        let k = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => k,
            Err(e) => panic!("read failed with {frames:?} so far: {e}"),
        };
        decoder.extend(&buf[..k]);
        while let Some(frame) = decoder.next_frame().expect("server replies are well-formed") {
            frames.push(frame);
        }
    }
    frames
}

#[test]
fn malformed_frames_get_error_replies_not_panics() {
    let (addr, shutdown, join) = spawn_server(inline_cfg(16, 2, 16, 1));

    // Corpus 1: unknown opcode after a valid HELLO — server must reply
    // UnknownOpcode and keep serving the same connection.
    let mut bytes = Vec::new();
    encode(&Frame::hello(0), &mut bytes);
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes.extend_from_slice(&[0x55, 0xaa, 0xbb]);
    encode(&Frame::alloc(1, &Request::two_choice()), &mut bytes);
    let frames = raw_exchange(addr, &bytes, 2);
    assert_eq!(
        frames[0],
        Frame::RespErr {
            req_id: 0,
            code: ErrorCode::UnknownOpcode
        }
    );
    assert!(
        matches!(frames[1], Frame::RespBin { req_id: 1, .. }),
        "connection must survive an unknown opcode: {frames:?}"
    );

    // Corpus 2: oversized length prefix — protocol error, then close.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    let frames = raw_exchange(addr, &bytes, 1);
    assert_eq!(
        frames,
        vec![Frame::RespErr {
            req_id: 0,
            code: ErrorCode::Malformed
        }]
    );

    // Corpus 3: ALLOC before HELLO — BadHello, then close.
    let mut bytes = Vec::new();
    encode(&Frame::alloc(9, &Request::two_choice()), &mut bytes);
    let frames = raw_exchange(addr, &bytes, 1);
    assert_eq!(
        frames,
        vec![Frame::RespErr {
            req_id: 9,
            code: ErrorCode::BadHello
        }]
    );

    // Corpus 4: truncated length prefix then EOF — nothing to answer,
    // nothing to crash.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&[0x14, 0x00]).expect("write");
    drop(stream);

    // Corpus 5: ALLOCs the codec accepts but no decision can serve —
    // `d = 0` and a negative, NaN or infinite sigma. Each gets Malformed,
    // and the connection keeps serving.
    let mut bytes = Vec::new();
    encode(&Frame::hello(0), &mut bytes);
    let hostile = [
        (NoiseMode::Snapshot, 0u16),
        (NoiseMode::Noisy { sigma: -1.0 }, 2),
        (NoiseMode::Noisy { sigma: f64::NAN }, 2),
        (NoiseMode::Noisy { sigma: f64::INFINITY }, 2),
    ];
    for (req_id, &(noise, d)) in (20u64..).zip(&hostile) {
        encode(&Frame::Alloc { req_id, d, noise }, &mut bytes);
    }
    encode(&Frame::alloc(30, &Request::two_choice()), &mut bytes);
    let frames = raw_exchange(addr, &bytes, hostile.len() + 1);
    assert_eq!(frames.len(), hostile.len() + 1, "server dropped the connection: {frames:?}");
    let expect: Vec<Frame> = (20u64..)
        .take(hostile.len())
        .map(|req_id| Frame::RespErr {
            req_id,
            code: ErrorCode::Malformed,
        })
        .collect();
    assert_eq!(frames[..hostile.len()], expect[..], "{frames:?}");
    assert!(
        matches!(frames[hostile.len()], Frame::RespBin { req_id: 30, .. }),
        "connection must survive unservable ALLOCs: {frames:?}"
    );

    // The server is still alive and serving correctly after all of it.
    let report = run_loadgen(&LoadGenConfig {
        addr,
        connections: 1,
        pipeline: 4,
        requests: 100,
        request: Request::two_choice(),
        seed: 3,
        collect_bins: false,
    })
    .expect("loadgen after hostile clients");
    assert_eq!(report.completed, 100);

    shutdown.shutdown();
    let server = join.join().expect("server thread");
    assert!(server.protocol_errors >= 7, "got {}", server.protocol_errors);
    assert_eq!(server.state.balls(), server.served);
}

#[test]
fn graceful_shutdown_answers_every_accepted_request() {
    let (addr, shutdown, join) = spawn_server(inline_cfg(32, 2, 8, 77));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let k = 40u64;
    let mut bytes = Vec::new();
    encode(&Frame::hello(0), &mut bytes);
    for req_id in 1..=k {
        encode(&Frame::alloc(req_id, &Request::two_choice()), &mut bytes);
    }
    stream.write_all(&bytes).expect("write");

    // Read exactly one reply, then trigger shutdown mid-stream.
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut frames: Vec<Frame> = Vec::new();
    while frames.is_empty() {
        let n = stream.read(&mut buf).expect("first reply");
        decoder.extend(&buf[..n]);
        while let Some(f) = decoder.next_frame().expect("well-formed") {
            frames.push(f);
        }
    }
    shutdown.shutdown();

    // Every remaining accepted request must still be answered, then EOF.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                decoder.extend(&buf[..n]);
                while let Some(f) = decoder.next_frame().expect("well-formed") {
                    frames.push(f);
                }
            }
            Err(e) => panic!("read after shutdown: {e}"),
        }
    }
    assert_eq!(
        frames.len() as u64,
        k,
        "every accepted request is answered before close: {frames:?}"
    );
    for (i, frame) in frames.iter().enumerate() {
        assert!(
            matches!(frame, Frame::RespBin { req_id, .. } if *req_id == i as u64 + 1),
            "reply {i} out of order or an error: {frame:?}"
        );
    }
    let server = join.join().expect("server thread");
    assert_eq!(server.served, k);
    assert_eq!(server.state.balls(), k);
}

#[test]
fn shutdown_frame_stops_the_server_too() {
    let (addr, _shutdown, join) = spawn_server(inline_cfg(8, 1, 4, 13));
    let mut bytes = Vec::new();
    encode(&Frame::hello(0), &mut bytes);
    encode(&Frame::alloc(1, &Request::two_choice()), &mut bytes);
    encode(&Frame::Shutdown, &mut bytes);
    let frames = raw_exchange(addr, &bytes, 1);
    assert!(matches!(frames[0], Frame::RespBin { req_id: 1, .. }));
    let server = join.join().expect("server stops on the wire frame");
    assert_eq!(server.served, 1);
}

#[test]
fn stale_epoch_hello_is_refused_and_the_served_epoch_is_stamped() {
    let (addr, shutdown, join) = spawn_server(inline_cfg(16, 2, 16, 9));

    // A client asserting a membership the server is not serving is
    // refused before any decision state is built, then disconnected.
    let mut bytes = Vec::new();
    encode(
        &Frame::Hello {
            client_id: 0,
            epoch: 999,
        },
        &mut bytes,
    );
    encode(&Frame::alloc(1, &Request::two_choice()), &mut bytes);
    let frames = raw_exchange(addr, &bytes, 1);
    assert_eq!(
        frames,
        vec![Frame::RespErr {
            req_id: 0,
            code: ErrorCode::StaleEpoch
        }]
    );

    // The uniform directory of S shards sits at epoch S (one membership
    // change per founding insert). Asserting it explicitly is accepted,
    // and every RESP_BIN carries it back.
    let mut bytes = Vec::new();
    encode(
        &Frame::Hello {
            client_id: 0,
            epoch: 2,
        },
        &mut bytes,
    );
    encode(&Frame::alloc(1, &Request::two_choice()), &mut bytes);
    let frames = raw_exchange(addr, &bytes, 1);
    assert!(
        matches!(
            frames[0],
            Frame::RespBin {
                req_id: 1,
                epoch: 2,
                ..
            }
        ),
        "a matching epoch must be served and echoed: {frames:?}"
    );

    shutdown.shutdown();
    let server = join.join().expect("server thread");
    assert_eq!(server.served, 1);
    assert!(server.protocol_errors >= 1, "the stale HELLO must be counted");
}

#[test]
fn pipelined_inline_equals_unpipelined_decisions() {
    // The same client id must produce the same decision stream whether
    // its requests arrive one at a time or in deep pipelined bursts:
    // block dispatch is bit-identical to per-request dispatch.
    let run = |pipeline: usize| {
        let (addr, shutdown, join) = spawn_server(inline_cfg(64, 4, 16, 2023));
        let report = run_loadgen(&LoadGenConfig {
            addr,
            connections: 1,
            pipeline,
            requests: 600,
            request: Request::two_choice(),
            seed: 1,
            collect_bins: true,
        })
        .expect("loadgen");
        shutdown.shutdown();
        join.join().expect("server thread");
        report.digest.expect("clean run")
    };
    assert_eq!(run(1), run(64));
}
