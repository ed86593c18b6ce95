//! Isolated layer costs: each `balloc-serve` / `balloc-net` layer driven
//! alone, in this thread, with a fixed seeded request stream, using the
//! TCP workloads' shape (n = 10⁴, d = 2, b = 64, 2 shards).
//!
//! A middleware layer's cost is marginal: the same leaf service with the
//! layer added through its `Layer`, minus the bare leaf, in interleaved
//! trials.

// balloc-lint: allow-file(L002): the benchmark times isolated layer calls
// in wall-clock time; the layers under test keep their own clocks.

use std::hint::black_box;
use std::time::Instant;

use balloc_core::rng::point_seed;
use balloc_core::Rng;
use balloc_net::wire::{encode, Frame, FrameDecoder};
use balloc_serve::{
    BreakerConfig, BreakerStats, CircuitBreakerLayer, DirectCluster, HedgeConfig, HedgeLayer,
    HedgeStats, InFlightLimitLayer, Layer, LoadShedLayer, LoadSink, Permits, RateLimitConfig,
    RateLimitLayer, RateStats, Request, Response, RetryBudget, RetryConfig, RetryLayer, RetryStats,
    ServeClock, Service, ShardCluster, ShedCounter, SnapshotAllocator, SnapshotPath,
    SnapshotService, Staleness, TimeoutLayer, TimeoutStats,
};
use balloc_sim::VClock;

use crate::report::{gate, median, metric, ns_per_op, Metric};
use crate::tcp::{B, N, SHARDS};
use crate::trace::{SpanId, Tracer};

const TRIALS: usize = 9;

fn staleness() -> Staleness {
    Staleness::Batch { b: B }
}

fn leaf(seed: u64) -> SnapshotService<DirectCluster> {
    SnapshotService::new(
        SnapshotAllocator::new(N, staleness(), seed),
        DirectCluster::new(N, SHARDS),
        ServeClock::new(),
    )
}

type BoxSvc = Box<dyn Service<Request, Response = Response>>;

/// One middleware stack over its own leaf, with the virtual clock its
/// layers read (advanced one tick per request, as the engines do).
struct Stack {
    name: &'static str,
    svc: BoxSvc,
    clock: VClock,
}

fn stacks(seed: u64) -> Vec<Stack> {
    let mut out = Vec::new();
    let mut add = |name: &'static str, make: &dyn Fn(&VClock) -> BoxSvc| {
        let clock = VClock::new();
        out.push(Stack {
            name,
            svc: make(&clock),
            clock,
        });
    };
    add("bare", &|_| Box::new(leaf(seed)));
    add("load_shed", &|_| {
        Box::new(LoadShedLayer::new(ShedCounter::new()).layer(leaf(seed)))
    });
    add("inflight_limit", &|_| {
        Box::new(InFlightLimitLayer::new(Permits::new(1024)).layer(leaf(seed)))
    });
    add("retry", &|_| {
        let cfg = RetryConfig::default();
        Box::new(RetryLayer::new(cfg, RetryBudget::new(&cfg), RetryStats::new()).layer(leaf(seed)))
    });
    add("hedge", &|c| {
        Box::new(
            HedgeLayer::new(c.clone(), HedgeConfig::default(), HedgeStats::new()).layer(leaf(seed)),
        )
    });
    add("timeout", &|c| {
        Box::new(TimeoutLayer::new(c.clone(), 24, TimeoutStats::new()).layer(leaf(seed)))
    });
    add("rate_limit", &|c| {
        let cfg = RateLimitConfig {
            permits: 1,
            period: 1,
            burst: 16,
        };
        Box::new(RateLimitLayer::new(c.clone(), cfg, RateStats::new()).layer(leaf(seed)))
    });
    add("breaker", &|c| {
        Box::new(
            CircuitBreakerLayer::new(c.clone(), BreakerConfig::default(), BreakerStats::new())
                .layer(leaf(seed)),
        )
    });
    out
}

/// `serve.layer_ns_per_req.*`: marginal ns per request of each layer.
fn middleware(seed: u64) -> Result<Vec<Metric>, String> {
    const PER_TRIAL: u64 = 40_000;
    let mut stacks = stacks(seed);
    let mut samples = vec![Vec::new(); stacks.len()];
    let req = Request::two_choice();
    for _ in 0..TRIALS {
        for (stack, out) in stacks.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            for _ in 0..PER_TRIAL {
                let resp = stack.svc.call(req);
                gate(resp.is_ok(), || {
                    format!("{} refused an isolated request: {resp:?}", stack.name)
                })?;
                black_box(resp.ok());
                stack
                    .clock
                    .advance(1)
                    .map_err(|_| "no deadline spans two requests".to_string())?;
            }
            out.push(t.elapsed().as_nanos() as f64 / PER_TRIAL as f64);
        }
    }
    let bare = median(&samples[0]);
    Ok(stacks
        .iter()
        .zip(&samples)
        .skip(1)
        .map(|(s, v)| {
            metric(
                format!("serve.layer_ns_per_req.{}", s.name),
                median(v) - bare,
                "ns",
            )
        })
        .collect())
}

fn bins(seed: u64, count: usize) -> Vec<usize> {
    let mut rng = Rng::from_seed(seed);
    (0..count).map(|_| rng.below_usize(N)).collect()
}

/// `serve.hop_*`: one apply / one snapshot refresh through the direct
/// shard hop and through the buffered (`ShardCluster`) hop.
fn hops(seed: u64) -> Result<Vec<Metric>, String> {
    const CHUNK: usize = 2_048;
    let chunk = bins(seed, CHUNK);
    let mut direct = DirectCluster::new(N, SHARDS);
    let direct_apply = ns_per_op(TRIALS, || {
        for &bin in &chunk {
            black_box(direct.apply(bin)).expect("direct sinks never refuse");
        }
        CHUNK as u64
    });

    let cluster = ShardCluster::spawn(N, SHARDS, 2 * CHUNK, SnapshotPath::Buffered, None);
    let mut handle = cluster.handle();
    let mut snapshot = vec![0u64; N];
    let mut refused = 0u64;
    let mut refresh = || {
        for _ in 0..32 {
            if handle.refresh(&mut snapshot).is_err() {
                refused += 1;
            }
        }
        32
    };
    let refresh_ns = ns_per_op(TRIALS, &mut refresh);
    // A chunk of casts, then one refresh, which waits until the workers
    // have applied them all; the refresh's own cost is taken out.
    let mut applied = 0u64;
    let chunk_ns = ns_per_op(TRIALS, || {
        for &bin in &chunk {
            match handle.apply(bin) {
                Ok(()) => applied += 1,
                Err(_) => refused += 1,
            }
        }
        if handle.refresh(&mut snapshot).is_err() {
            refused += 1;
        }
        1
    });
    drop(handle);
    let state = cluster.join();
    gate(refused == 0 && state.balls() == applied, || {
        format!(
            "buffered hop refused {refused} calls, holds {} of {applied} balls",
            state.balls()
        )
    })?;
    Ok(vec![
        metric("serve.hop_ns_per_apply.direct", direct_apply, "ns"),
        metric(
            "serve.hop_ns_per_apply.buffered",
            (chunk_ns - refresh_ns) / CHUNK as f64,
            "ns",
        ),
        metric("serve.hop_ns_per_refresh.buffered", refresh_ns, "ns"),
    ])
}

/// `serve.decide_run_ns_per_req`, `serve.call_block_ns_per_req`,
/// `serve.refresh_ns`.
fn decision(seed: u64) -> Result<Vec<Metric>, String> {
    let req = Request::two_choice();
    let mut alloc = SnapshotAllocator::new(N, staleness(), seed);
    let mut rng = Rng::from_seed(point_seed(seed, 1));
    for load in alloc.snapshot_mut() {
        *load = 100 + rng.below(8);
    }
    alloc.note_refresh(0);
    let mut out = Vec::with_capacity(B as usize);
    let decide = ns_per_op(TRIALS, || {
        for _ in 0..1_000 {
            out.clear();
            alloc.decide_run(&req, B as usize, &mut out);
            black_box(&out);
        }
        1_000 * B
    });

    let mut svc = leaf(seed);
    let mut failed = 0u64;
    let block = ns_per_op(TRIALS, || {
        for _ in 0..200 {
            svc.call_block(&req, 256, &mut |r| {
                if black_box(r).is_err() {
                    failed += 1;
                }
            });
        }
        200 * 256
    });
    gate(failed == 0, || {
        format!("call_block refused {failed} requests")
    })?;

    let mut cluster = DirectCluster::new(N, SHARDS);
    for bin in bins(seed, 100_000) {
        cluster.apply(bin).expect("direct sinks never refuse");
    }
    let mut snapshot = vec![0u64; N];
    let refresh = ns_per_op(TRIALS, || {
        for _ in 0..100 {
            cluster
                .refresh(&mut snapshot)
                .expect("direct sinks never refuse");
            black_box(&snapshot);
        }
        100
    });
    Ok(vec![
        metric("serve.decide_run_ns_per_req", decide, "ns"),
        metric("serve.call_block_ns_per_req", block, "ns"),
        metric("serve.refresh_ns", refresh, "ns"),
    ])
}

/// `wire.encode_ns_per_frame` (RESP_BIN) and `wire.decode_ns_per_frame`
/// (ALLOC, fed through a `FrameDecoder` as the reactor does).
fn wire() -> Result<Vec<Metric>, String> {
    const FRAMES: u64 = 1_024;
    let mut buf = Vec::with_capacity(64 * FRAMES as usize);
    let encode_ns = ns_per_op(TRIALS, || {
        for round in 0..50u64 {
            buf.clear();
            for i in 0..FRAMES {
                encode(
                    &Frame::RespBin {
                        req_id: round * FRAMES + i,
                        bin: i % N as u64,
                        epoch: 1,
                    },
                    &mut buf,
                );
            }
            black_box(&buf);
        }
        50 * FRAMES
    });
    let mut allocs = Vec::new();
    for i in 0..FRAMES {
        encode(&Frame::alloc(i + 1, &Request::two_choice()), &mut allocs);
    }
    let mut decoded = 0u64;
    let decode_ns = ns_per_op(TRIALS, || {
        let mut decoder = FrameDecoder::new();
        for _ in 0..50 {
            decoder.extend(&allocs);
            while let Ok(Some(frame)) = decoder.next_frame() {
                black_box(frame);
                decoded += 1;
            }
        }
        50 * FRAMES
    });
    gate(decoded == TRIALS as u64 * 50 * FRAMES, || {
        format!("decoded {decoded} ALLOC frames")
    })?;
    Ok(vec![
        metric("wire.encode_ns_per_frame", encode_ns, "ns"),
        metric("wire.decode_ns_per_frame", decode_ns, "ns"),
    ])
}

/// Every isolated layer cost, each measurement inside its own span.
pub fn measure(seed: u64, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let parts = [
        "layers.decision",
        "layers.middleware",
        "layers.hops",
        "layers.wire",
    ];
    for (i, name) in parts.into_iter().enumerate() {
        let span = tracer.begin(name, SpanId::NONE, i as u64);
        out.extend(match i {
            0 => decision(seed)?,
            1 => middleware(seed)?,
            2 => hops(seed)?,
            _ => wire()?,
        });
        tracer.end(span);
    }
    Ok(out)
}
