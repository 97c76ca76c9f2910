//! The loopback page-server workload, `srv_occ_open`.
//!
//! The program under test is the default reactor server
//! ([`ccdb_server::serve`], one engine shard, no trace file) running in
//! a child process, so its CPU time and peak memory are its own. This
//! process drives it: one thread per connection (two connections, the
//! host's core count), each running the repository's workload generator
//! through [`ClientCore`] and the codec directly. Every shipped and
//! installed page image is verified.
//!
//! With `--trace 1` the run has two halves: an untraced one and a traced
//! one, in which the load generator keeps spans in memory (written out at the
//! end) and the server records its wire trace. The trace is replayed
//! through a fresh engine (zero diffs required), and its client-to-server
//! stream is fed through [`ShardedEngine::step`] (decide) and
//! [`ShardedEngine::render`] (render) in-process to time those layers.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_des::Pcg32;
use ccdb_lock::ClientId;
use ccdb_model::{table5_database, PageId, SystemParams, TxnParams, TxnSpec, Workload};
use ccdb_obs::Json;
use ccdb_proto::{
    Action, Algorithm, ClientCore, CommitAction, OpId, ReplyKind, ServerCore, Tuning, C2S, S2C,
};
use ccdb_server::codec::{encode_frame_with_payload, Frame, FrameReader};
use ccdb_server::trace::c2s_from_json;
use ccdb_server::{replay, serve, ServeOptions, ShardedEngine};
use ccdb_storage::{page_image, verify_page_image, ClientCache};

use crate::report::Metrics;
use crate::stats::{
    cpu_times, median, peak_rss_mb, process_cpu_s, quartiles_ms, CpuTimes, Samples,
};
use crate::Outcome;

/// Client connections (and load-generator threads): the core count of the
/// 2-core host the benchmark was sized on.
const CLIENTS: u32 = 2;
/// Server start-ups per run whose median is `setup_s`.
const SETUP_REPS: usize = 101;
/// Untimed warm-up before the measured window: client caches fill and
/// the server's page store materializes.
const WARMUP_S: f64 = 1.5;
/// The protocol: OCC (certification, intra).
const ALG: Algorithm = Algorithm::Certification { inter: false };
/// Probability that a transaction updates a page it reads.
const PROB_WRITE: f64 = 0.5;
/// Open loop: total arrival rate over both connections.
const OPEN_RATE: f64 = 100.0;
/// Slack after the measured window before the watchdog declares a hang.
const WATCHDOG_SLACK_S: f64 = 30.0;
/// The measured window is cut into slices of this length; throughput
/// and server CPU per commit are the medians over the slices, so a
/// burst of interference from other tenants of the host moves one
/// slice, not the figure.
const SLICE_S: f64 = 1.0;
/// Fewest whole slices a measured window must hold.
const MIN_SLICES: usize = 3;

// ---------------------------------------------------------------------
// The server process.

/// `ccdb-perfbench serve [--trace T]`: the reactor server for
/// [`CLIENTS`] clients with `--once`, on an ephemeral loopback port. Its
/// first line of standard output names the address it listens on.
pub fn serve_main(argv: &[String]) -> Result<(), String> {
    let mut opts = ServeOptions::new(ALG);
    opts.clients = CLIENTS;
    opts.once = true;
    match argv {
        [] => {}
        [flag, path] if flag == "--trace" => opts.trace = Some(PathBuf::from(path)),
        _ => return Err(format!("serve: unexpected arguments {argv:?}")),
    }
    serve(&opts).map(|_| ()).map_err(|e| format!("serve: {e}"))
}

struct Server {
    child: Child,
    port: u16,
    /// The server's standard output, line by line, from `reader`.
    lines: mpsc::Receiver<String>,
    reader: Option<thread::JoinHandle<()>>,
    err: PathBuf,
}

impl Server {
    /// Start the server and wait, without polling, for the line that
    /// names its address.
    fn spawn(dir: &Path, trace: Option<&Path>, watchdog: Instant) -> Result<Server, String> {
        // Every start-up in the run gets its own file names.
        static SPAWNS: AtomicUsize = AtomicUsize::new(0);
        let idx = SPAWNS.fetch_add(1, Ordering::Relaxed);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let err = dir.join(format!("server-{idx}.err"));
        let err_file = File::create(&err).map_err(|e| format!("create {}: {e}", err.display()))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err_file);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            port: 0,
            lines,
            reader: Some(reader),
            err,
        };
        // "ccdb-server: <alg> on 127.0.0.1:<port>"
        match server
            .lines
            .recv_timeout(watchdog.saturating_duration_since(Instant::now()))
        {
            Ok(line) => {
                server.port = line
                    .rsplit_once(':')
                    .and_then(|(_, p)| p.trim().parse().ok())
                    .ok_or_else(|| format!("no port in server output {line:?}"))?;
                Ok(server)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err("server never reported its address".to_string())
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = server.child.wait().map_err(|e| e.to_string())?;
                Err(format!("server exited before listening: {status}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kill the server if it still runs, reap it, and wait for the
    /// reader of its output, which ends with the output.
    fn stop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }

    /// Wait for the `--once` exit (all clients gone) and return the
    /// server-side commit count it printed.
    fn finish(mut self, watchdog: Instant) -> Result<u64, String> {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() > watchdog => {
                    return Err("server did not exit after its clients left".to_string());
                }
                Ok(None) => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        self.stop();
        let err = std::fs::read_to_string(&self.err).unwrap_or_default();
        if err.contains("mismatch") {
            return Err(format!("server reported: {}", err.trim()));
        }
        // "ccdb-server: done — M messages, C commits, A aborts"
        let out: Vec<String> = self.lines.try_iter().collect();
        out.iter()
            .find_map(|l| {
                let rest = l.split_once("messages, ")?.1;
                rest.split_once(" commits")?.0.parse().ok()
            })
            .ok_or_else(|| format!("no commit count in server output {out:?}"))
    }
}

/// A server left behind on an error path (a failed connect, an early
/// return) is killed and reaped rather than left running.
impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Spans.

/// One recorded span: layer name, times relative to the run's epoch,
/// the enclosing span, and the transaction it belongs to.
struct Span {
    name: &'static str,
    txn: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Off, it reads no clock.
struct Tracer {
    on: bool,
    epoch: Instant,
    txn: u64,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            txn: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            txn: self.txn,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
        });
    }

    fn enter(&mut self, name: &'static str) {
        if self.on {
            self.push(name, self.ns(Instant::now()), 0);
            self.stack.push(self.spans.len() as u32 - 1);
        }
    }

    /// Close the innermost open span.
    fn exit(&mut self) {
        if self.on {
            let end_ns = self.ns(Instant::now());
            let idx = self.stack.pop().expect("span stack underflow");
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Record a closed leaf span measured by the caller.
    fn leaf(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        if self.on {
            self.push(name, self.ns(t0), self.ns(t1));
        }
    }

    /// Self time (duration minus the child spans') of every span named
    /// `name`, in nanoseconds.
    fn self_ns(&self, name: &str) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    fn write_jsonl(&self, conn: u32, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"conn\": {conn}, \"id\": {i}, \"parent\": {parent}, \"txn\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.txn, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// One client connection.

fn io_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

struct Conn {
    sock: TcpStream,
    reader: FrameReader,
    buf: Vec<u8>,
    page_size: u32,
    timeout: Option<Duration>,
    watchdog: Instant,
    bytes: u64,
}

impl Conn {
    fn open(port: u16, id: u32, watchdog: Instant) -> io::Result<Conn> {
        let sock = TcpStream::connect(("127.0.0.1", port))?;
        sock.set_nodelay(true)?;
        let mut c = Conn {
            sock,
            reader: FrameReader::new(),
            buf: vec![0; 1 << 16],
            page_size: 0,
            timeout: None,
            watchdog,
            bytes: 0,
        };
        c.write(
            &encode_frame_with_payload(&Frame::Hello { client: id }, 0, &[])
                .map_err(|e| io_err(format!("encode Hello: {e:?}")))?,
        )?;
        match c.recv(None, &mut Tracer::new(false, Instant::now()))? {
            Some((
                Frame::HelloAck {
                    alg: label,
                    page_size,
                },
                _,
            )) => {
                if label != ALG.label() {
                    return Err(io_err(format!(
                        "server runs {label}, expected {}",
                        ALG.label()
                    )));
                }
                c.page_size = page_size;
                c.bytes = 0;
                Ok(c)
            }
            other => Err(io_err(format!("expected HelloAck, got {other:?}"))),
        }
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes += bytes.len() as u64;
        self.sock.write_all(bytes)
    }

    /// The next frame, or `None` once `until` passes without one. Fails
    /// on EOF, a codec error, or the watchdog deadline.
    fn recv(
        &mut self,
        until: Option<Instant>,
        tr: &mut Tracer,
    ) -> io::Result<Option<(Frame, Vec<u8>)>> {
        loop {
            let t0 = tr.on.then(Instant::now);
            let next = self
                .reader
                .next_frame(self.page_size)
                .map_err(|e| io_err(format!("decode: {e:?}")))?;
            if let Some(f) = next {
                if let Some(t0) = t0 {
                    tr.leaf("codec.decode", t0, Instant::now());
                }
                return Ok(Some(f));
            }
            let now = Instant::now();
            if now > self.watchdog {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "watchdog deadline"));
            }
            let wait = match until {
                Some(u) if u <= now => return Ok(None),
                Some(u) => (u - now).min(Duration::from_millis(100)),
                None => Duration::from_millis(100),
            };
            let wait = wait.max(Duration::from_micros(1));
            if self.timeout != Some(wait) {
                self.sock.set_read_timeout(Some(wait))?;
                self.timeout = Some(wait);
            }
            match self.sock.read(&mut self.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.bytes += n as u64;
                    self.reader.push(&self.buf[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Per-connection counts over the measured window (and, for commits,
/// over the whole run so they can be checked against the server's).
#[derive(Default)]
struct ConnStats {
    attempted: u64,
    committed: u64,
    attempts: u64,
    aborts: u64,
    verified: u64,
    backoff_s: f64,
    bytes: u64,
    txn: Samples,
    late: Samples,
    read: Samples,
    commit: Samples,
    last_reply: Option<Instant>,
    client_commits_total: u64,
    local_commits_total: u64,
}

struct Client {
    id: u32,
    core: ClientCore,
    cache: ClientCache,
    conn: Conn,
    backoff_rng: Pcg32,
    tr: Tracer,
    traced: bool,
    measuring: bool,
    st: ConnStats,
}

impl Client {
    /// Enter or leave the measured window; spans are recorded inside it
    /// only. Called between transactions, never inside a span.
    fn set_measuring(&mut self, on: bool) {
        self.measuring = on;
        self.tr.on = self.traced && on;
    }

    fn step<T>(&mut self, f: impl FnOnce(&mut ClientCore, &mut ClientCache) -> T) -> T {
        self.tr.enter("proto.step");
        let out = f(&mut self.core, &mut self.cache);
        self.tr.exit();
        out
    }

    fn send(&mut self, msg: C2S) -> io::Result<()> {
        let ps = self.conn.page_size;
        let mut payload = Vec::new();
        if let C2S::Commit { txn, dirty, .. } = &msg {
            // Commits carry their dirty pages' real images.
            let version = ServerCore::commit_version(*txn);
            payload.reserve(dirty.len() * ps as usize);
            for p in dirty {
                self.tr.enter("image.build");
                payload.extend_from_slice(&page_image(*p, version, ps as usize));
                self.tr.exit();
            }
        }
        self.tr.enter("codec.encode");
        let frame = encode_frame_with_payload(&Frame::C2S(msg), ps, &payload)
            .map_err(|e| io_err(format!("encode: {e:?}")));
        self.tr.exit();
        self.conn.write(&frame?)
    }

    fn send_all(&mut self, msgs: Vec<C2S>) -> io::Result<()> {
        msgs.into_iter().try_for_each(|m| self.send(m))
    }

    fn verify(&mut self, what: &str, page: PageId, version: u64, bytes: &[u8]) -> io::Result<()> {
        self.tr.enter("image.verify");
        let ok = verify_page_image(page, version, bytes);
        self.tr.exit();
        if !ok {
            return Err(io_err(format!(
                "{what} image of page ({},{}) v{version} does not verify",
                page.class.0, page.atom
            )));
        }
        if self.measuring {
            self.st.verified += 1;
        }
        Ok(())
    }

    /// Service one asynchronous server message (callbacks, pushed
    /// updates, stale replies) and send what the core answers.
    fn handle_async(&mut self, msg: S2C, payload: &[u8]) -> io::Result<()> {
        self.tr.enter("async");
        if let S2C::Update { pages, version } = &msg {
            let ps = self.conn.page_size as usize;
            for (i, page) in pages.iter().enumerate() {
                let img = payload.get(i * ps..(i + 1) * ps).unwrap_or(&[]);
                self.verify("Update", *page, *version, img)?;
            }
        }
        let out = self.step(|core, cache| core.handle_async(cache, msg));
        let r = self.send_all(out.sends);
        self.tr.exit();
        r
    }

    fn recv_s2c(&mut self, until: Option<Instant>) -> io::Result<Option<(S2C, Vec<u8>)>> {
        match self.conn.recv(until, &mut self.tr)? {
            None => Ok(None),
            Some((Frame::S2C(m), payload)) => Ok(Some((m, payload))),
            Some((other, _)) => Err(io_err(format!("unexpected frame {other:?}"))),
        }
    }

    /// Send a synchronous request and wait for its reply, servicing
    /// asynchronous messages that arrive first. Records the round trip.
    fn round_trip(
        &mut self,
        span: &'static str,
        msg: C2S,
        op: OpId,
    ) -> io::Result<(ReplyKind, Vec<u8>)> {
        let t0 = Instant::now();
        self.tr.enter(span);
        self.send(msg)?;
        let reply = loop {
            let (m, payload) = self
                .recv_s2c(None)?
                .expect("a receive without a deadline returns a frame or fails");
            match m {
                S2C::Reply { op: o, kind } if o == op => break (kind, payload),
                other => self.handle_async(other, &payload)?,
            }
        };
        self.tr.exit();
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        if self.measuring {
            match span {
                "rtt.read" => self.st.read.push(rtt_us),
                "rtt.commit" => self.st.commit.push(rtt_us),
                _ => {}
            }
        }
        Ok(reply)
    }

    fn access(&mut self, page: PageId, write: bool) -> io::Result<Result<(), ()>> {
        let action = self.step(|core, cache| {
            if write {
                core.write_step(cache, page)
            } else {
                core.read_step(cache, page)
            }
        });
        match action {
            Action::Local { .. } => Ok(Ok(())),
            Action::Async(msg) => self.send(msg).map(Ok),
            Action::Sync(sop) => {
                let span = if write { "rtt.write" } else { "rtt.read" };
                let (kind, payload) = self.round_trip(span, sop.msg, sop.op)?;
                if let ReplyKind::PageData { version } = &kind {
                    self.verify("PageData", page, *version, &payload)?;
                }
                let applied = self.step(|core, cache| {
                    if write {
                        core.apply_write_reply(cache, page, kind)
                    } else {
                        core.apply_read_reply(cache, sop.kind, page, kind)
                    }
                });
                match applied {
                    Ok(sends) => self.send_all(sends).map(Ok),
                    Err(_) => Ok(Err(())),
                }
            }
        }
    }

    fn commit(&mut self) -> io::Result<Result<(), ()>> {
        match self.step(|core, cache| core.commit_step(cache)) {
            CommitAction::Local => {
                self.st.local_commits_total += 1;
                Ok(Ok(()))
            }
            CommitAction::Send { op, dirty, msg } => {
                let (kind, _) = self.round_trip("rtt.commit", msg, op)?;
                let applied = self.step(|core, cache| core.apply_commit_reply(cache, &dirty, kind));
                Ok(applied.map(|_| ()).map_err(|_| ()))
            }
        }
    }

    /// One attempt of the paper's transaction shape: per object, read
    /// its pages, then update the written subset; then commit.
    fn attempt(&mut self, spec: &TxnSpec) -> io::Result<Result<(), ()>> {
        for op in &spec.ops {
            for &page in &op.pages {
                if self.access(page, false)?.is_err() {
                    return Ok(Err(()));
                }
            }
            for (&page, _) in op.pages.iter().zip(&op.writes).filter(|(_, w)| **w) {
                if self.access(page, true)?.is_err() {
                    return Ok(Err(()));
                }
            }
        }
        self.commit()
    }

    /// Run a transaction to commit, restarting after aborts with a
    /// 1–8 ms real-time back-off.
    fn run_txn(&mut self, spec: &TxnSpec) -> io::Result<()> {
        self.tr.txn = (u64::from(self.id) << 40) | (self.st.client_commits_total + 1);
        self.tr.enter("txn");
        loop {
            self.tr.enter("attempt");
            self.step(|core, _| core.begin_attempt());
            let outcome = self.attempt(spec)?;
            self.tr.exit();
            if self.measuring {
                self.st.attempts += 1;
            }
            match outcome {
                Ok(()) => {
                    let sends = self.step(|core, cache| core.finish_commit(cache));
                    self.send_all(sends)?;
                    self.st.client_commits_total += 1;
                    self.tr.exit();
                    return Ok(());
                }
                Err(()) => {
                    let sends = self.step(|core, cache| core.abort_cleanup(cache));
                    self.send_all(sends)?;
                    let ms = 1 + u64::from(self.backoff_rng.next_u32() % 8);
                    self.tr.enter("backoff");
                    let t = Instant::now();
                    thread::sleep(Duration::from_millis(ms));
                    if self.measuring {
                        self.st.aborts += 1;
                        self.st.backoff_s += t.elapsed().as_secs_f64();
                    }
                    self.tr.exit();
                }
            }
        }
    }

    /// Answer asynchronous messages until `until`.
    fn service_until(&mut self, until: Instant) -> io::Result<()> {
        while let Some((m, payload)) = self.recv_s2c(Some(until))? {
            self.handle_async(m, &payload)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// One measured phase: server start-ups, warm-up, measured window.

struct Window {
    warm_end: Instant,
    end: Instant,
    watchdog: Instant,
}

struct Phase {
    setup_s: Vec<f64>,
    st: ConnStats,
    window_s: f64,
    server_cpu: CpuTimes,
    loadgen_cpu: CpuTimes,
    server_rss_mb: f64,
    server_commits: u64,
    /// Per slice of the measured window: commits per second and server
    /// CPU milliseconds per commit.
    slice_rate: Vec<f64>,
    slice_cpu_ms: Vec<f64>,
    tracers: Vec<Tracer>,
    failures: Vec<String>,
}

fn drive(
    seed: u64,
    mut c: Client,
    win: &Window,
    measured: &mpsc::Sender<()>,
    done: &AtomicU32,
    commits: &AtomicU64,
) -> (ConnStats, Tracer, Option<String>) {
    let mut workload = Workload::new(
        table5_database(),
        TxnParams {
            prob_write: PROB_WRITE,
            ..TxnParams::short_batch()
        },
        Pcg32::new(seed, 10_000 + c.id as u64),
    );
    let run = (|| -> io::Result<()> {
        // Poisson arrivals, this connection's share of the rate, from
        // the start of the warm-up to the end of the window.
        let mut arrivals = Pcg32::new(seed, 30_000 + c.id as u64);
        let per_conn = OPEN_RATE / CLIENTS as f64;
        let mut due = win.warm_end - Duration::from_secs_f64(WARMUP_S);
        loop {
            let gap = -(1.0 - arrivals.next_f64()).ln() / per_conn;
            due += Duration::from_secs_f64(gap);
            if due >= win.end {
                break;
            }
            c.set_measuring(due >= win.warm_end);
            c.st.attempted += c.measuring as u64;
            c.service_until(due)?;
            let late = Instant::now().saturating_duration_since(due);
            let spec = workload.next_txn();
            c.run_txn(&spec)?;
            let reply = Instant::now();
            if c.measuring {
                commits.fetch_add(1, Ordering::Relaxed);
                c.st.committed += 1;
                c.st.txn.push_duration_ms(reply - due);
                c.st.late.push_duration_ms(late);
                c.st.last_reply = Some(reply);
            }
            workload.note_commit(&spec);
        }
        Ok(())
    })();
    c.set_measuring(false);
    // The clock stops here, at the last commit reply: the done barrier
    // and teardown below are not measured.
    let _ = measured.send(());
    done.fetch_add(1, Ordering::SeqCst);
    let mut error = run.err().map(|e| format!("client {}: {e}", c.id));
    if error.is_none() {
        // Stay responsive until every client is done: a retained lock
        // must answer callbacks for as long as anyone may ask.
        let tail = (|| -> io::Result<()> {
            while done.load(Ordering::SeqCst) < CLIENTS {
                c.service_until(Instant::now() + Duration::from_millis(1))?;
            }
            c.conn.write(
                &encode_frame_with_payload(&Frame::Bye, c.conn.page_size, &[])
                    .map_err(|e| io_err(format!("encode Bye: {e:?}")))?,
            )
        })();
        error = tail.err().map(|e| format!("client {} teardown: {e}", c.id));
    }
    let mut st = c.st;
    st.bytes = c.conn.bytes;
    (st, c.tr, error)
}

fn connect_all(port: u16, watchdog: Instant) -> io::Result<Vec<Conn>> {
    (0..CLIENTS)
        .map(|id| Conn::open(port, id, watchdog))
        .collect()
}

fn run_phase(
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    dir: &Path,
    trace: Option<&Path>,
) -> Phase {
    let mut phase = Phase {
        setup_s: Vec::new(),
        st: ConnStats::default(),
        window_s: 0.0,
        server_cpu: CpuTimes::default(),
        loadgen_cpu: CpuTimes::default(),
        server_rss_mb: 0.0,
        server_commits: 0,
        slice_rate: Vec::new(),
        slice_cpu_ms: Vec::new(),
        tracers: Vec::new(),
        failures: Vec::new(),
    };
    let watchdog = Instant::now() + Duration::from_secs_f64(WARMUP_S + seconds + WATCHDOG_SLACK_S);
    // Set-up: start the server and open every connection. All but the
    // last start-up are torn down again; their median is `setup_s`.
    let mut live = None;
    for i in 0..setup_reps {
        let t = Instant::now();
        let traced = if i + 1 == setup_reps { trace } else { None };
        let started = Server::spawn(dir, traced, watchdog).and_then(|s| {
            connect_all(s.port, watchdog)
                .map(|conns| (s, conns))
                .map_err(|e| format!("connect: {e}"))
        });
        match started {
            Ok((server, mut conns)) => {
                phase.setup_s.push(t.elapsed().as_secs_f64());
                if i + 1 == setup_reps {
                    live = Some((server, conns));
                } else {
                    for c in &mut conns {
                        let bye = encode_frame_with_payload(&Frame::Bye, c.page_size, &[]);
                        let _ = c.write(&bye.unwrap_or_default());
                    }
                    drop(conns);
                    if let Err(e) = server.finish(watchdog) {
                        phase.failures.push(format!("set-up server: {e}"));
                    }
                }
            }
            Err(e) => {
                phase.failures.push(e);
                return phase;
            }
        }
    }
    let (server, conns) = live.expect("at least one set-up");
    let pid = server.pid();

    let t0 = Instant::now();
    let win = Window {
        warm_end: t0 + Duration::from_secs_f64(WARMUP_S),
        end: t0 + Duration::from_secs_f64(WARMUP_S + seconds),
        watchdog,
    };
    let done = AtomicU32::new(0);
    let commits = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel();
    let sys = SystemParams::table5();
    let results = thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(id, conn)| {
                let client = Client {
                    id: id as u32,
                    core: ClientCore::new(ClientId(id as u32), ALG, Tuning::default()),
                    cache: ClientCache::new(sys.cache_size),
                    conn,
                    backoff_rng: Pcg32::new(seed, 20_000 + id as u64),
                    tr: Tracer::new(false, t0),
                    traced: trace.is_some(),
                    measuring: false,
                    st: ConnStats::default(),
                };
                let tx = tx.clone();
                let (win, done, commits) = (&win, &done, &commits);
                s.spawn(move || drive(seed, client, win, &tx, done, commits))
            })
            .collect();
        // Counters at the start and at the end of the measured window,
        // and at every slice boundary inside it.
        thread::sleep(win.warm_end.saturating_duration_since(Instant::now()));
        let start = (cpu_times(Some(pid)), cpu_times(None));
        let slice = Duration::from_secs_f64(SLICE_S);
        let mut prev = (
            Instant::now(),
            commits.load(Ordering::Relaxed),
            process_cpu_s(pid),
        );
        let mut boundary = prev.0 + slice;
        let mut signalled = 0;
        while signalled < CLIENTS {
            let now = Instant::now();
            if now > win.watchdog {
                break;
            }
            match rx.recv_timeout(boundary.min(win.watchdog).saturating_duration_since(now)) {
                Ok(()) => signalled += 1,
                Err(mpsc::RecvTimeoutError::Timeout) if boundary <= win.end => {
                    let cur = (
                        Instant::now(),
                        commits.load(Ordering::Relaxed),
                        process_cpu_s(pid),
                    );
                    let n = (cur.1 - prev.1) as f64;
                    if let (Ok(c1), Ok(c0)) = (&cur.2, &prev.2) {
                        phase.slice_rate.push(n / (cur.0 - prev.0).as_secs_f64());
                        phase.slice_cpu_ms.push((c1 - c0) * 1e3 / n.max(1.0));
                    }
                    prev = cur;
                    boundary += slice;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => boundary = win.watchdog,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        if phase.slice_rate.len() < MIN_SLICES {
            phase.failures.push(format!(
                "measured window held {} whole {SLICE_S} s slices, fewer than {MIN_SLICES}",
                phase.slice_rate.len()
            ));
        }
        let end = (
            cpu_times(Some(pid)),
            cpu_times(None),
            peak_rss_mb(Some(pid)),
        );
        match (start, end) {
            ((Ok(s0), Ok(l0)), (Ok(s1), Ok(l1), Ok(rss))) => {
                phase.server_cpu = s1.since(&s0);
                phase.loadgen_cpu = l1.since(&l0);
                phase.server_rss_mb = rss;
            }
            _ => phase.failures.push(
                "could not read the server's or the load generator's /proc counters".to_string(),
            ),
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect::<Vec<_>>()
    });
    for (st, tr, error) in results {
        let p = &mut phase.st;
        p.attempted += st.attempted;
        p.committed += st.committed;
        p.attempts += st.attempts;
        p.aborts += st.aborts;
        p.verified += st.verified;
        p.backoff_s += st.backoff_s;
        p.bytes += st.bytes;
        p.txn.extend(&st.txn);
        p.late.extend(&st.late);
        p.read.extend(&st.read);
        p.commit.extend(&st.commit);
        p.last_reply = p.last_reply.max(st.last_reply);
        p.client_commits_total += st.client_commits_total;
        p.local_commits_total += st.local_commits_total;
        phase.failures.extend(error);
        phase.tracers.push(tr);
    }
    if phase.st.committed < phase.st.attempted {
        phase.failures.push(format!(
            "{} of {} measured transactions did not commit",
            phase.st.attempted - phase.st.committed,
            phase.st.attempted
        ));
    }
    phase.window_s = phase.st.last_reply.map_or(0.0, |t| {
        t.saturating_duration_since(win.warm_end).as_secs_f64()
    });
    match server.finish(win.watchdog + Duration::from_secs(5)) {
        Ok(n) => {
            phase.server_commits = n;
            let sent = phase.st.client_commits_total - phase.st.local_commits_total;
            if n != sent {
                phase.failures.push(format!(
                    "server counted {n} commits; clients sent {sent} ({} committed, {} of them locally)",
                    phase.st.client_commits_total, phase.st.local_commits_total
                ));
            }
        }
        Err(e) => phase.failures.push(e),
    }
    phase
}

// ---------------------------------------------------------------------
// Engine timing over a recorded trace.

struct EngineTiming {
    messages: u64,
    decide_ns: u64,
    render_ns: u64,
    sends: u64,
}

/// Feed the trace's client-to-server stream through a fresh
/// single-shard engine. Parsing and commit-image building stay outside
/// the timed calls.
fn time_engine(path: &Path) -> Result<EngineTiming, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read trace: {e}"))?;
    let mut stream: Vec<(ClientId, Option<C2S>)> = Vec::new();
    for line in text.lines().skip(1) {
        let j = Json::parse(line)?;
        if j.get("footer").is_some() {
            break;
        }
        let from = j
            .get("from")
            .and_then(|v| v.as_u64())
            .ok_or("trace line without from")?;
        let c2s = j.get("c2s").ok_or("trace line without c2s")?;
        let msg = if c2s.get("t").and_then(|v| v.as_str()) == Some("bye") {
            None
        } else {
            Some(c2s_from_json(c2s)?)
        };
        stream.push((ClientId(from as u32), msg));
    }
    let opts = ServeOptions::new(ALG);
    let ps = SystemParams::table5().page_size;
    let engine = ShardedEngine::new(
        ALG,
        Tuning::default(),
        CLIENTS,
        opts.mpl,
        opts.lock_shards,
        1,
        ps,
        false,
        table5_database(),
    );
    let mut t = EngineTiming {
        messages: 0,
        decide_ns: 0,
        render_ns: 0,
        sends: 0,
    };
    for (from, msg) in stream {
        let mut payload = Vec::new();
        if let Some(C2S::Commit { txn, dirty, .. }) = &msg {
            for p in dirty {
                payload.extend_from_slice(&page_image(
                    *p,
                    ServerCore::commit_version(*txn),
                    ps as usize,
                ));
            }
        }
        let t0 = Instant::now();
        let step = engine.step(from, msg, payload);
        let t1 = Instant::now();
        let rendered = engine.render(&step);
        let t2 = Instant::now();
        if !rendered.payload_ok {
            return Err(format!(
                "replayed commit at seq {} failed image verification",
                step.seq
            ));
        }
        t.messages += 1;
        t.sends += step.eff.sends.len() as u64;
        t.decide_ns += (t1 - t0).as_nanos() as u64;
        t.render_ns += (t2 - t1).as_nanos() as u64;
        std::hint::black_box(rendered);
    }
    Ok(t)
}

// ---------------------------------------------------------------------
// Workload entry point.

/// A unique scratch directory inside the checkout.
fn scratch_dir() -> Result<PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// End-to-end figures of one phase.
fn end_to_end(m: &mut Metrics, p: &mut Phase, failures: &mut Vec<String>) {
    let slices = p.slice_rate.len();
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("slice commits/s: {}", fmt(&p.slice_rate));
    println!("slice server cpu ms/commit: {}", fmt(&p.slice_cpu_ms));
    m.set_counted("commits_per_s", median(&p.slice_rate), "1/s", slices);
    m.set_counted("cpu_ms_per_commit", median(&p.slice_cpu_ms), "ms", slices);
    m.set("peak_rss_mb", p.server_rss_mb, "MiB");
    let n = p.st.txn.len();
    for (name, q) in [
        ("txn_p50_ms", 0.5),
        ("txn_p90_ms", 0.9),
        ("txn.p99_ms", 0.99),
    ] {
        match p.st.txn.quantile(q, name) {
            Ok(v) => m.set_counted(name, v, "ms", n),
            Err(e) => failures.push(e),
        }
    }
}

/// Bitmask of CPUs, as large as the kernel's `cpu_set_t` (1024 CPUs).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread — and so every thread and child process it
/// starts afterwards, the server included — to the lowest CPU it may
/// run on. On a shared virtual machine a wake-up that crosses to the
/// other virtual CPU waits for the hypervisor to run it: unpinned, the
/// open-loop median transaction doubled from one minute to the next
/// (6 to 14 ms) while pinned runs held within 1%. Returns the CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuMask = [0; 16];
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes
    // for the duration of the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a live buffer of exactly `size` bytes for the
    // duration of the call; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// Run `srv_occ_open` for `seconds` of measured time.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    match pin_to_one_cpu() {
        Ok(cpu) => println!("server and load generator pinned to cpu {cpu}"),
        Err(e) => return Outcome::error(e),
    }
    let dir = match scratch_dir() {
        Ok(d) => d,
        Err(e) => return Outcome::error(e),
    };
    let outcome = run_in(seed, seconds, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves the parent only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    outcome
}

fn run_in(seed: u64, seconds: f64, traced: bool, dir: &Path) -> Outcome {
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let plain_s = if traced { seconds / 2.0 } else { seconds };
    let mut a = run_phase(
        seed,
        plain_s,
        if traced { 1 } else { SETUP_REPS },
        dir,
        None,
    );
    failures.append(&mut a.failures);
    println!(
        "{} server start-ups, ms: quartiles {}",
        a.setup_s.len(),
        quartiles_ms(&a.setup_s)
    );
    m.set_counted("setup_s", median(&a.setup_s), "s", a.setup_s.len());
    end_to_end(&mut m, &mut a, &mut failures);

    let attempted = a.st.attempted;
    let failed = a.st.attempted - a.st.committed.min(a.st.attempted);
    println!(
        "measured window {:.3} s: {} of {} transactions committed; client commits {} ({} local), server commits {}",
        a.window_s, a.st.committed, a.st.attempted, a.st.client_commits_total, a.st.local_commits_total, a.server_commits
    );
    if !traced {
        return Outcome {
            metrics: m,
            attempted,
            failed,
            failures,
        };
    }

    // Per-layer figures of the untraced half.
    let commits = a.st.committed.max(1) as f64;
    let st = &mut a.st;
    for (name, samples) in [("rtt.read", &mut st.read), ("rtt.commit", &mut st.commit)] {
        let n = samples.len();
        m.set(&format!("{name}_samples"), n as f64, "count");
        for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
            match samples.quantile(q, name) {
                Ok(v) => m.set_counted(&format!("{name}_{suffix}_us"), v, "us", n),
                Err(e) => failures.push(e),
            }
        }
    }
    m.set("txn.samples", st.txn.len() as f64, "count");
    match st.late.quantile(0.99, "loadgen.late") {
        Ok(v) => m.set_counted("loadgen.late_ms_p99", v, "ms", st.late.len()),
        Err(e) => failures.push(e),
    }
    m.set(
        "proto.abort_share",
        st.aborts as f64 / st.attempts.max(1) as f64,
        "ratio",
    );
    m.set(
        "proto.local_commit_share",
        st.local_commits_total as f64 / st.client_commits_total.max(1) as f64,
        "ratio",
    );
    m.set(
        "client.backoff_ms_per_txn",
        st.backoff_s * 1e3 / commits,
        "ms",
    );
    m.set(
        "loadgen.cpu_ms_per_txn",
        a.loadgen_cpu.total() * 1e3 / commits,
        "ms",
    );
    m.set(
        "server.sys_share",
        a.server_cpu.sys_s / a.server_cpu.total().max(1e-9),
        "ratio",
    );
    m.set(
        "codec.bytes_per_txn",
        st.bytes as f64 / st.client_commits_total.max(1) as f64,
        "B",
    );
    m.set(
        "storage.pages_verified_per_txn",
        st.verified as f64 / commits,
        "count",
    );

    // The traced half.
    let trace_path = dir.join("wire-trace.jsonl");
    let mut b = run_phase(seed, seconds / 2.0, 1, dir, Some(&trace_path));
    failures.append(&mut b.failures);
    let mut mb = Metrics::default();
    end_to_end(&mut mb, &mut b, &mut failures);
    for name in ["commits_per_s", "txn_p50_ms", "cpu_ms_per_commit"] {
        let unit = if name == "commits_per_s" { "1/s" } else { "ms" };
        if let (Some(tb), Some(ta)) = (mb.get(name), m.get(name)) {
            m.set(&format!("trace.overhead.{name}"), tb - ta, unit);
        }
    }
    // Spans cover the measured window only.
    let self_ns =
        |name: &str| -> Vec<u64> { b.tracers.iter().flat_map(|t| t.self_ns(name)).collect() };
    let step_ns: u64 = self_ns("proto.step").iter().sum();
    m.set(
        "proto.client_step_ns_per_txn",
        step_ns as f64 / b.st.committed.max(1) as f64,
        "ns",
    );
    for (metric, span) in [
        ("codec.encode_ns_per_frame", "codec.encode"),
        ("codec.decode_ns_per_frame", "codec.decode"),
        ("storage.image_build_ns_per_page", "image.build"),
        ("storage.image_verify_ns_per_page", "image.verify"),
    ] {
        let ns = self_ns(span);
        m.set(
            metric,
            ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64,
            "ns",
        );
    }

    match std::fs::create_dir_all(".bench_out").and_then(|()| {
        let path = format!(".bench_out/spans-srv_occ_open-seed{seed}.jsonl");
        let mut out = io::BufWriter::new(File::create(&path)?);
        for (i, t) in b.tracers.iter().enumerate() {
            t.write_jsonl(i as u32, &mut out)?;
        }
        out.flush().map(|()| path)
    }) {
        Ok(path) => println!("spans written to {path}"),
        Err(e) => failures.push(format!("write spans: {e}")),
    }

    match File::open(&trace_path)
        .map_err(|e| e.to_string())
        .and_then(|f| replay(BufReader::new(f)))
    {
        Ok(r) => {
            println!(
                "wire trace: {} messages replayed, {} diffs",
                r.messages,
                r.diffs.len()
            );
            m.set("trace.replay_diffs", r.diffs.len() as f64, "count");
            if !r.ok() {
                failures.push(format!(
                    "wire trace replay: {} diffs, first {:?}",
                    r.diffs.len(),
                    r.diffs.first()
                ));
            }
        }
        Err(e) => failures.push(format!("wire trace replay: {e}")),
    }
    match time_engine(&trace_path) {
        Ok(t) => {
            let msgs = t.messages.max(1) as f64;
            let decide = t.decide_ns as f64 / msgs;
            let render = t.render_ns as f64 / msgs;
            m.set("engine.decide_ns_per_msg", decide, "ns");
            m.set("engine.render_ns_per_msg", render, "ns");
            m.set("engine.sends_per_msg", t.sends as f64 / msgs, "count");
            m.set(
                "engine.msgs_per_txn",
                t.messages as f64 / b.st.client_commits_total.max(1) as f64,
                "count",
            );
            // The untraced read round trip minus what the layers
            // measured here spend on it: decide and render on the
            // server, one encode and one decode on the client.
            let codec = m.get("codec.encode_ns_per_frame").unwrap_or(0.0)
                + m.get("codec.decode_ns_per_frame").unwrap_or(0.0);
            if let Some(rtt) = m.get("rtt.read_p50_us") {
                m.set(
                    "reactor.residual_us_p50",
                    rtt - (decide + render + codec) / 1e3,
                    "us",
                );
            }
        }
        Err(e) => failures.push(format!("engine timing: {e}")),
    }
    Outcome {
        metrics: m,
        attempted: attempted + b.st.attempted,
        failed: failed + b.st.attempted - b.st.committed.min(b.st.attempted),
        failures,
    }
}
