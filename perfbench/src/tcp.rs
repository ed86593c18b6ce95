//! `tcp-pipelined` and `tcp-rpc`: a `NetServer` on loopback, driven by the
//! benchmark's own single-threaded client over two connections.
//!
//! * `tcp-pipelined` — closed loop, 2 connections × 256 requests in
//!   flight, `ServerMode::Inline` (runs of requests decided by
//!   `SnapshotService::call_block` over a `DirectCluster`). Latency runs
//!   from send to reply.
//! * `tcp-rpc` — open loop: seeded Poisson arrivals at a fixed offered
//!   rate, each sent when due whatever the replies, spread over the two
//!   connections at random. `ServerMode::Stacked`: LoadShed →
//!   InFlightLimit → SnapshotService over a 2-shard `ShardCluster`.
//!   Latency runs from the request's due time, so generator lateness and
//!   queueing both count.
//!
//! Both use d = 2, b = 64 (`Staleness::Batch`), n = 10⁴, 2 shards.

// balloc-lint: allow-file(L002): a real load generator sends on a
// wall-clock schedule and times real replies.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use balloc_core::rng::Fnv1a;
use balloc_core::Rng;
use balloc_net::wire::Frame;
use balloc_net::{FramedConn, NetConfig, NetServer, ServerMode, ServerReport, ShutdownHandle};
use balloc_serve::{
    run_replay, worker_share, BackendKind, Request, ServeConfig, SnapshotPath, Staleness,
};
use epoll::{Epoll, Events, Interest, Token};

use crate::affinity;
use crate::hist::Histogram;
use crate::procfs::{current_tid, task_ids, RoleSampler};
use crate::report::{gate, metric, per_kilo, ratio, Plan, Window, WorkloadRun};
use crate::trace::{SpanId, Tracer};

pub const N: usize = 10_000;
pub const B: u64 = 64;
pub const SHARDS: usize = 2;
const CONNS: usize = 2;
const DEPTH: usize = 256;
/// Size of the set-up replay-parity cell, and its pipeline depth.
const REPLAY_REQUESTS: u64 = 20_000;
const REPLAY_DEPTH: usize = 32;
const WARMUP: Duration = Duration::from_millis(300);
/// Length of a window slice (see `Window`).
const SLICE: Duration = Duration::from_millis(10);
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Pipelined,
    /// Open loop at `rate` requests per second.
    Rpc {
        rate: f64,
    },
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Pipelined => "tcp-pipelined",
            Kind::Rpc { .. } => "tcp-rpc",
        }
    }
}

fn request() -> Request {
    Request::two_choice()
}

fn staleness() -> Staleness {
    Staleness::Batch { b: B }
}

fn net_config(mode: ServerMode, seed: u64) -> NetConfig {
    NetConfig {
        n: N,
        shards: SHARDS,
        staleness: staleness(),
        seed,
        mode,
    }
}

fn io_err(what: &str) -> impl FnOnce(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A `NetServer` on its own named reactor thread.
struct Server {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<io::Result<ServerReport>>,
    reactor_tid: u32,
}

impl Server {
    /// Starts the server; its reactor (and the shard workers the reactor
    /// spawns) run on `cpu` when one is given.
    fn start(cfg: NetConfig, cpu: Option<usize>) -> Result<Self, String> {
        let server = NetServer::bind("127.0.0.1:0", cfg).map_err(io_err("bind"))?;
        let addr = server.local_addr().map_err(io_err("local_addr"))?;
        let shutdown = server.shutdown_handle();
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("perfbench-reactor".into())
            .spawn(move || {
                if let Some(cpu) = cpu {
                    let _ = affinity::pin(&[cpu]);
                }
                let _ = tx.send(current_tid());
                server.run()
            })
            .map_err(io_err("spawn reactor"))?;
        let reactor_tid = rx
            .recv()
            .map_err(|_| "reactor thread died at start".to_string())?;
        Ok(Self {
            addr,
            shutdown,
            thread,
            reactor_tid,
        })
    }

    fn stop(self) -> Result<ServerReport, String> {
        self.shutdown.shutdown();
        match self.thread.join() {
            Ok(report) => report.map_err(io_err("server")),
            Err(_) => Err("reactor thread panicked".into()),
        }
    }
}

/// One client connection: requests in flight in send order (the server
/// answers each connection in order).
struct Conn {
    framed: FramedConn,
    in_flight: VecDeque<(u64, Instant)>,
    next_id: u64,
    quota: u64,
    replies: u64,
    errors: u64,
    bins: Vec<u64>,
}

/// The benchmark's load generator: one thread, up to two connections.
struct Client {
    epoll: Epoll,
    events: Events,
    /// Connections the last wait reported, reused across waits.
    ready: Vec<usize>,
    conns: Vec<Conn>,
    collect_bins: bool,
}

impl Client {
    fn connect(addr: SocketAddr, quotas: &[u64], collect_bins: bool) -> Result<Self, String> {
        let epoll = Epoll::new().map_err(io_err("epoll"))?;
        let mut conns = Vec::new();
        for (w, &quota) in quotas.iter().enumerate() {
            let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
            let mut framed = FramedConn::new(stream).map_err(io_err("framed conn"))?;
            epoll
                .register(framed.stream(), Token(w as u64), Interest::BOTH)
                .map_err(io_err("register"))?;
            framed.queue(&Frame::hello(w as u32));
            conns.push(Conn {
                framed,
                in_flight: VecDeque::new(),
                next_id: 1,
                quota,
                replies: 0,
                errors: 0,
                bins: Vec::new(),
            });
        }
        Ok(Self {
            epoll,
            events: Events::with_capacity(16),
            ready: Vec::new(),
            conns,
            collect_bins,
        })
    }

    /// Queues one request on connection `w`, timed from `at`.
    fn send(&mut self, w: usize, at: Instant) {
        let conn = &mut self.conns[w];
        conn.framed.queue(&Frame::alloc(conn.next_id, &request()));
        conn.in_flight.push_back((conn.next_id, at));
        conn.next_id += 1;
        conn.quota -= 1;
    }

    fn flush(&mut self, w: usize) -> Result<(), String> {
        self.conns[w]
            .framed
            .flush()
            .map(|_| ())
            .map_err(io_err("write"))
    }

    /// Reads what connection `w` has and settles its replies; returns how
    /// many requests completed (served or refused).
    fn read(&mut self, w: usize, hist: &mut Histogram) -> Result<u64, String> {
        let collect = self.collect_bins;
        let conn = &mut self.conns[w];
        let eof = conn.framed.read_drain().map_err(io_err("read"))?;
        let now = Instant::now();
        let mut settled = 0;
        loop {
            let frame = conn
                .framed
                .decoder()
                .next_frame()
                .map_err(|e| format!("bad reply frame: {e}"))?;
            let Some(frame) = frame else { break };
            let (req_id, bin) = match frame {
                Frame::RespBin { req_id, bin, .. } => (req_id, Some(bin)),
                Frame::RespErr { req_id, .. } => (req_id, None),
                other => return Err(format!("unexpected frame from server: {other:?}")),
            };
            let (id, at) = conn
                .in_flight
                .pop_front()
                .ok_or_else(|| format!("reply {req_id} to nothing in flight"))?;
            gate(id == req_id, || {
                format!("reply {req_id} out of order, expected {id}")
            })?;
            settled += 1;
            match bin {
                Some(bin) => {
                    conn.replies += 1;
                    hist.record(now.saturating_duration_since(at).as_nanos() as u64);
                    if collect {
                        conn.bins.push(bin);
                    }
                }
                None => conn.errors += 1,
            }
        }
        if eof && !conn.in_flight.is_empty() {
            return Err(format!(
                "server closed connection {w} with requests in flight"
            ));
        }
        Ok(settled)
    }

    /// Waits up to `timeout_ms` and returns the connections with events.
    fn wait(&mut self, timeout_ms: i32) -> Result<Vec<usize>, String> {
        self.epoll
            .wait(&mut self.events, Some(timeout_ms))
            .map_err(io_err("epoll wait"))?;
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        ready.extend(self.events.iter().map(|e| e.token.0 as usize));
        Ok(ready)
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight.len()).sum()
    }

    /// Closed loop until `until`: every settled request is replaced by a
    /// new one while the connection has quota.
    fn closed_loop(
        &mut self,
        until: Instant,
        hist: &mut Histogram,
        tracer: &mut Tracer,
    ) -> Result<u64, String> {
        let mut settled = 0;
        loop {
            let now = Instant::now();
            if now >= until {
                return Ok(settled);
            }
            let ready = self.wait((until - now).as_millis().clamp(1, 50) as i32)?;
            for &w in &ready {
                let start = Instant::now();
                let first = self.conns[w].next_id;
                let done = self.read(w, hist)?;
                settled += done;
                let at = Instant::now();
                for _ in 0..done.min(self.conns[w].quota) {
                    self.send(w, at);
                }
                self.flush(w)?;
                tracer.record("client.turn", start, Instant::now(), SpanId::NONE, first);
            }
            self.ready = ready;
        }
    }

    /// Stops sending and waits for every request in flight to settle.
    fn drain(&mut self, hist: &mut Histogram) -> Result<(), String> {
        for c in &mut self.conns {
            c.quota = 0;
        }
        let deadline = Instant::now() + DRAIN_LIMIT;
        for w in 0..self.conns.len() {
            self.flush(w)?;
        }
        while self.in_flight() > 0 {
            if Instant::now() > deadline {
                return Err(format!("{} requests never settled", self.in_flight()));
            }
            for w in self.wait(50)? {
                self.read(w, hist)?;
                self.flush(w)?;
            }
        }
        Ok(())
    }
}

/// Seeded Poisson arrivals, each assigned to a random connection.
struct Schedule {
    rng: Rng,
    mean_gap_ns: f64,
    due: Instant,
    conn: usize,
}

impl Schedule {
    fn new(seed: u64, rate: f64, start: Instant) -> Self {
        let mut s = Self {
            rng: Rng::from_seed(seed),
            mean_gap_ns: 1e9 / rate,
            due: start,
            conn: 0,
        };
        s.advance();
        s
    }

    fn advance(&mut self) {
        let u = self.rng.next_f64();
        let gap = -(1.0 - u).ln() * self.mean_gap_ns;
        self.due += Duration::from_nanos(gap as u64);
        self.conn = self.rng.below(CONNS as u64) as usize;
    }
}

impl Client {
    /// Open loop until `until`: requests go out when due, replies are
    /// read as they come.
    fn open_loop(
        &mut self,
        sched: &mut Schedule,
        until: Instant,
        hist: &mut Histogram,
        lag: &mut Histogram,
        tracer: &mut Tracer,
    ) -> Result<u64, String> {
        let mut settled = 0;
        let mut dirty = [false; CONNS];
        loop {
            let now = Instant::now();
            if now >= until {
                return Ok(settled);
            }
            let mut sent = false;
            while sched.due <= now {
                let w = sched.conn;
                let id = self.conns[w].next_id;
                self.send(w, sched.due);
                lag.record(now.saturating_duration_since(sched.due).as_nanos() as u64);
                tracer.record("client.send", sched.due, now, SpanId::NONE, id);
                dirty[w] = true;
                sched.advance();
                sent = true;
            }
            for (w, d) in dirty.iter_mut().enumerate() {
                if std::mem::take(d) {
                    self.flush(w)?;
                }
            }
            let ready = self.wait(0)?;
            for &w in &ready {
                let start = Instant::now();
                settled += self.read(w, hist)?;
                self.flush(w)?;
                tracer.record("client.recv", start, Instant::now(), SpanId::NONE, w as u64);
            }
            if !sent && ready.is_empty() {
                std::thread::yield_now();
            }
            self.ready = ready;
        }
    }
}

/// The set-up parity cell: a `ServerMode::Replay` server, the client's
/// digest of the bins it was sent, the server's digest, and the
/// in-process `run_replay` digest must all agree.
fn replay_parity(seed: u64, cpu: Option<usize>) -> Result<u64, String> {
    let server = Server::start(net_config(ServerMode::Replay { clients: CONNS }, seed), cpu)?;
    let quotas: Vec<u64> = (0..CONNS)
        .map(|w| worker_share(REPLAY_REQUESTS, CONNS, w))
        .collect();
    let mut client = Client::connect(server.addr, &quotas, true)?;
    let now = Instant::now();
    for (w, &quota) in quotas.iter().enumerate() {
        for _ in 0..REPLAY_DEPTH.min(quota as usize) {
            client.send(w, now);
        }
        client.flush(w)?;
    }
    let mut hist = Histogram::default();
    let mut off = Tracer::new(false);
    let deadline = Instant::now() + DRAIN_LIMIT;
    while client
        .conns
        .iter()
        .any(|c| c.quota > 0 || !c.in_flight.is_empty())
    {
        if Instant::now() > deadline {
            return Err("replay parity cell stalled".into());
        }
        client.closed_loop(
            Instant::now() + Duration::from_millis(20),
            &mut hist,
            &mut off,
        )?;
    }
    let mut fnv = Fnv1a::new();
    for t in 0..REPLAY_REQUESTS {
        let (w, i) = ((t % CONNS as u64) as usize, (t / CONNS as u64) as usize);
        fnv.write_u64(client.conns[w].bins[i]);
    }
    let client_digest = fnv.finish();
    drop(client);
    let report = server.stop()?;
    let in_process = run_replay(&ServeConfig {
        n: N,
        shards: SHARDS,
        workers: CONNS,
        requests: REPLAY_REQUESTS,
        request: request(),
        staleness: staleness(),
        buffer_capacity: 4096,
        inflight: None,
        backend: BackendKind::Sharded,
        snapshot: SnapshotPath::Buffered,
        seed,
    });
    gate(
        client_digest == in_process.digest && report.digest == in_process.digest,
        || {
            format!(
                "replay digests differ: client {client_digest:016x}, server {:016x}, \
                 run_replay {:016x}",
                report.digest, in_process.digest
            )
        },
    )?;
    Ok(client_digest)
}

/// A running server with a connected client.
struct Harness {
    kind: Kind,
    server: Server,
    client: Client,
    sched: Option<Schedule>,
    /// Threads alive before the server started.
    threads_before: Vec<u32>,
    shard_tids: Vec<u32>,
}

impl Harness {
    fn setup(kind: Kind, seed: u64, cpu: Option<usize>) -> Result<(Self, u64), String> {
        let parity = replay_parity(seed, cpu)?;
        let before = task_ids();
        let mode = match kind {
            Kind::Pipelined => ServerMode::Inline,
            Kind::Rpc { .. } => ServerMode::Stacked {
                buffer_capacity: 1024,
                inflight: Some(1024),
            },
        };
        let server = Server::start(net_config(mode, seed), cpu)?;
        let client = Client::connect(server.addr, &[u64::MAX; CONNS], false)?;
        let h = Self {
            kind,
            server,
            client,
            sched: None,
            threads_before: before,
            shard_tids: Vec::new(),
        };
        Ok((h, parity))
    }

    /// Runs the workload's traffic for a moment before any timed window,
    /// and finds the shard workers the server has spawned by then.
    fn warm_up(&mut self, seed: u64) -> Result<(), String> {
        // Latencies outside a timed window are not kept.
        let (mut off, mut untimed) = (Tracer::new(false), Histogram::default());
        let until = Instant::now() + WARMUP;
        match self.kind {
            Kind::Pipelined => {
                let now = Instant::now();
                for w in 0..CONNS {
                    for _ in 0..DEPTH {
                        self.client.send(w, now);
                    }
                    self.client.flush(w)?;
                }
                self.client.closed_loop(until, &mut untimed, &mut off)?;
            }
            Kind::Rpc { rate } => {
                let mut sched = Schedule::new(seed, rate, Instant::now());
                let mut lag = Histogram::default();
                self.client
                    .open_loop(&mut sched, until, &mut untimed, &mut lag, &mut off)?;
                self.sched = Some(sched);
            }
        }
        let main = current_tid();
        self.shard_tids = task_ids()
            .into_iter()
            .filter(|t| {
                !self.threads_before.contains(t) && *t != self.server.reactor_tid && *t != main
            })
            .collect();
        Ok(())
    }

    fn window(
        &mut self,
        dur: Duration,
        traced: bool,
        tracer: &mut Tracer,
    ) -> Result<Window, String> {
        let mut off = Tracer::new(false);
        let tr = if traced { tracer } else { &mut off };
        let main = current_tid();
        let sampler = RoleSampler::new(vec![
            ("generator", vec![main]),
            ("reactor", vec![self.server.reactor_tid]),
            ("shard", self.shard_tids.clone()),
        ]);
        let mut window = Window {
            traced,
            ..Window::default()
        };
        let mut lag = Histogram::default();
        let slices = (dur.as_millis() / SLICE.as_millis()).max(1) as u32;
        let slice = dur / slices;
        let t0 = Instant::now();
        for k in 1..=slices {
            let start = Instant::now();
            let until = t0 + slice * k;
            let span = tr.begin("window.slice", SpanId::NONE, u64::from(k));
            let mut hist = Histogram::default();
            let settled = match self.kind {
                Kind::Pipelined => self.client.closed_loop(until, &mut hist, tr)?,
                Kind::Rpc { .. } => {
                    let sched = self.sched.as_mut().expect("open loop has a schedule");
                    self.client
                        .open_loop(sched, until, &mut hist, &mut lag, tr)?
                }
            };
            tr.end(span);
            window.push_slice(settled, start.elapsed().as_secs_f64(), &hist);
            window.completed += hist.count();
            window.attempted += settled;
        }
        window.elapsed_s = t0.elapsed().as_secs_f64();
        window.failed = window.attempted - window.completed;
        let (roles, cpu) = sampler.finish();
        window.process_cpu_s = cpu.cpu_s();
        window.steal_share = sampler.steal_share();
        let role = |name: &str| {
            roles
                .iter()
                .find(|(n, _)| *n == name)
                .map(|r| r.1)
                .unwrap_or_default()
        };
        let (generator, reactor, shard) = (role("generator"), role("reactor"), role("shard"));
        let el = window.elapsed_s;
        let served = window.completed as f64;
        match self.kind {
            Kind::Pipelined => {
                window.layer.extend([
                    metric("reactor.cpu_user_share", reactor.cpu.user_s / el, "share"),
                    metric("reactor.cpu_sys_share", reactor.cpu.sys_s / el, "share"),
                    metric(
                        "reactor.reqs_per_wakeup",
                        ratio(served, reactor.cpu.voluntary as f64),
                        "count",
                    ),
                    metric(
                        "reactor.cpu_ns_per_req",
                        ratio(reactor.cpu.cpu_s() * 1e9, served),
                        "ns",
                    ),
                    metric("loadgen.cpu_share", generator.cpu.cpu_s() / el, "share"),
                ]);
            }
            Kind::Rpc { .. } => {
                window.layer.extend([
                    metric("shard.cpu_share", shard.cpu.cpu_s() / el, "share"),
                    metric(
                        "shard.wakeups_per_req",
                        ratio(shard.cpu.voluntary as f64, served),
                        "count",
                    ),
                    metric("loadgen.lag_p99_us", lag.quantile_us(0.99), "us"),
                ]);
            }
        }
        window.roles = roles;
        window.lag = Some(lag);
        Ok(window)
    }

    /// Drains, stops the server and checks the client's books against
    /// the server's.
    fn finish(mut self) -> Result<ServerReport, String> {
        self.client.drain(&mut Histogram::default())?;
        let (replies, errors, sent): (u64, u64, u64) =
            self.client.conns.iter().fold((0, 0, 0), |(r, e, s), c| {
                (r + c.replies, e + c.errors, s + c.next_id - 1)
            });
        drop(self.client);
        let report = self.server.stop()?;
        gate(
            replies == report.served && errors == report.rejected,
            || {
                format!(
                    "{}: client saw {replies} served / {errors} refused, server {} / {}",
                    self.kind.name(),
                    report.served,
                    report.rejected
                )
            },
        )?;
        gate(
            sent == replies + errors && report.protocol_errors == 0,
            || {
                format!(
                    "{sent} sent, {} settled, {} protocol errors",
                    replies + errors,
                    report.protocol_errors
                )
            },
        )?;
        gate(report.state.balls() == report.served, || {
            format!(
                "server state holds {} balls for {} served",
                report.state.balls(),
                report.served
            )
        })?;
        Ok(report)
    }
}

pub fn run(kind: Kind, seed: u64, plan: &Plan, tracer: &mut Tracer) -> Result<WorkloadRun, String> {
    let mut out = WorkloadRun::default();
    // The generator (this thread) and the server each own one core.
    let placement = affinity::split();
    let pinned = placement.and_then(|(generator, _)| affinity::Pinned::to(generator).ok());
    let server_cpu = pinned.as_ref().and(placement.map(|(_, server)| server));
    let mut live: Option<Harness> = None;
    let mut parity = 0;
    for _ in 0..plan.setups {
        let t = Instant::now();
        let (h, digest) = Harness::setup(kind, seed, server_cpu)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        parity = digest;
        if let Some(old) = live.replace(h) {
            old.finish()?;
        }
    }
    let mut h = live.ok_or("a TCP run needs at least one set-up")?;
    h.warm_up(seed)?;
    for &(dur, traced) in &plan.windows {
        let w = h.window(dur, traced, tracer)?;
        out.windows.push(w);
    }
    let report = h.finish()?;
    if kind == Kind::Pipelined {
        let refreshes = per_kilo(report.refreshes, report.served);
        for w in &mut out.windows {
            w.layer
                .push(metric("serve.refreshes_per_kreq", refreshes, "count"));
        }
    }
    out.info.push(match kind {
        Kind::Pipelined => format!(
            "tcp-pipelined: closed loop, {CONNS} conns x {DEPTH} in flight, Inline, \
             n = {N}, d = 2, b = {B}, {SHARDS} shards; ops = replies"
        ),
        Kind::Rpc { rate } => format!(
            "tcp-rpc: open loop, Poisson at {rate} req/s over {CONNS} conns, Stacked \
             (LoadShed > InFlightLimit > SnapshotService > {SHARDS}-shard ShardCluster), \
             n = {N}, d = 2, b = {B}; ops = replies; latency from due time"
        ),
    });
    drop(pinned);
    out.info.push(match (placement, server_cpu) {
        (Some((generator, server)), Some(_)) => {
            format!("placement: generator on cpu {generator}, reactor and shard workers on cpu {server}")
        }
        _ => "placement: unpinned (fewer than two cpus, or affinity refused)".to_string(),
    });
    out.info.push(format!(
        "{}: replay parity ok (client = server = run_replay = {parity:016x}); \
         server served {} refused {} refreshes {}",
        kind.name(),
        report.served,
        report.rejected,
        report.refreshes
    ));
    Ok(out)
}
