//! A TCP load driver over the sans-io [`ClientCore`].
//!
//! One thread + connection per simulated workstation, each running the
//! repository's own workload generator ([`Workload`]) against a live
//! `ccdb serve` process. The protocol logic is *exactly* the DES
//! client's — same [`ClientCore`], same [`ClientCache`] — only the
//! transport (a socket instead of the simulated network) and the pacing
//! (no think times, a small real-time restart back-off) differ.
//!
//! After finishing its transactions a client stays connected, answering
//! callbacks and consuming notifications, until *every* client is done —
//! a retained read lock must remain callable-back for as long as anyone
//! might request the page — and only then says `Bye`.
//!
//! Page payloads are real: every `PageData` reply and `Update` install
//! is verified byte-for-byte against the deterministic
//! [`page_image`] for its (page, version), and commits ship the actual
//! images of their dirty pages. [`LoadSummary::pages_verified`] counts
//! the checks; any mismatch fails the run.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use ccdb_des::Pcg32;
use ccdb_lock::ClientId;
use ccdb_model::{table5_database, PageId, SystemParams, TxnParams, TxnSpec, Workload};
use ccdb_proto::{
    AbortKind, Action, Algorithm, ClientCore, CommitAction, OpId, ReplyKind, ServerCore, Tuning,
    C2S, S2C,
};
use ccdb_storage::{page_image, verify_page_image, ClientCache};

use crate::codec::{
    encode_frame_with_payload, read_frame, read_frame_with_payload, write_frame, Frame,
};

/// Configuration for [`load`].
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent client workstations.
    pub clients: u32,
    /// Committed transactions per client.
    pub txns: u32,
    /// Workload seed (stream-split per client, like the simulator).
    pub seed: u64,
}

/// What a load run produced.
#[derive(Clone, Debug, Default)]
pub struct LoadSummary {
    /// Algorithm label the server reported in its `HelloAck`.
    pub alg: String,
    /// Transactions committed (= clients × txns on success).
    pub commits: u64,
    /// Of those, read-only callback-locking transactions that committed
    /// at the client without a server round trip (`CommitAction::Local`).
    pub local_commits: u64,
    /// Aborted attempts across all clients.
    pub aborts: u64,
    /// Page images verified byte-for-byte against their expected
    /// content (`PageData` replies and `Update` installs).
    pub pages_verified: u64,
}

struct Conn {
    writer: BufWriter<TcpStream>,
    rx: mpsc::Receiver<(S2C, Vec<u8>)>,
    page_size: u32,
}

impl Conn {
    fn send(&mut self, msg: C2S) -> io::Result<()> {
        // Commits carry their dirty pages' real images at the commit
        // version; every other client message is payload-free.
        let frame = if let C2S::Commit { txn, dirty, .. } = &msg {
            let version = ServerCore::commit_version(*txn);
            let mut payload = Vec::with_capacity(dirty.len() * self.page_size as usize);
            for p in dirty {
                payload.extend_from_slice(&page_image(*p, version, self.page_size as usize));
            }
            encode_frame_with_payload(&Frame::C2S(msg), self.page_size, &payload)
                .expect("commit payload sized to payload_bytes")
        } else {
            encode_frame_with_payload(&Frame::C2S(msg), self.page_size, &[])
                .expect("non-commit client messages are payload-free")
        };
        self.writer.write_all(&frame)?;
        self.writer.flush()
    }

    fn send_all(&mut self, msgs: Vec<C2S>) -> io::Result<()> {
        for m in msgs {
            self.send(m)?;
        }
        Ok(())
    }
}

fn payload_error(what: &str, page: PageId, version: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{what} payload for page ({},{}) v{version} does not match its image",
            page.class.0, page.atom
        ),
    )
}

struct LoadClient {
    core: ClientCore,
    cache: ClientCache,
    conn: Conn,
    rng: Pcg32,
    aborts: u64,
    local_commits: u64,
    verified: u64,
}

impl LoadClient {
    /// Service an asynchronous server message and send whatever the core
    /// wants sent back (callback replies, retained-lock releases).
    /// `Update` broadcasts carry their pages' images; verify each one.
    fn handle_async(&mut self, msg: S2C, payload: &[u8]) -> io::Result<()> {
        if let S2C::Update { pages, version } = &msg {
            let ps = self.conn.page_size as usize;
            for (i, page) in pages.iter().enumerate() {
                let img = payload.get(i * ps..(i + 1) * ps).unwrap_or(&[]);
                if !verify_page_image(*page, *version, img) {
                    return Err(payload_error("Update", *page, *version));
                }
                self.verified += 1;
            }
        }
        let out = self.core.handle_async(&mut self.cache, msg);
        self.conn.send_all(out.sends)
    }

    /// Block until the reply for `op` arrives, servicing asynchronous
    /// messages that land in between. Returns the reply's payload too,
    /// so callers can verify shipped page images.
    fn await_reply(&mut self, op: OpId) -> io::Result<(ReplyKind, Vec<u8>)> {
        loop {
            let (msg, payload) =
                self.conn
                    .rx
                    .recv_timeout(Duration::from_secs(30))
                    .map_err(|_| {
                        io::Error::new(io::ErrorKind::TimedOut, "no reply from server (30s)")
                    })?;
            match msg {
                S2C::Reply { op: o, kind } if o == op => return Ok((kind, payload)),
                other => self.handle_async(other, &payload)?,
            }
        }
    }

    /// Check a `PageData` reply's payload against the page's image.
    fn verify_ship(&mut self, page: PageId, kind: &ReplyKind, payload: &[u8]) -> io::Result<()> {
        if let ReplyKind::PageData { version } = kind {
            if !verify_page_image(page, *version, payload) {
                return Err(payload_error("PageData", page, *version));
            }
            self.verified += 1;
        }
        Ok(())
    }

    /// Drain already-arrived messages, then surface a pending restart
    /// order (no-wait locking polls this before every step).
    fn check_abort(&mut self) -> io::Result<Result<(), AbortKind>> {
        while let Ok((msg, payload)) = self.conn.rx.try_recv() {
            self.handle_async(msg, &payload)?;
        }
        Ok(self.core.abort_pending())
    }

    fn read_page(&mut self, page: PageId) -> io::Result<Result<(), AbortKind>> {
        if matches!(self.core.algorithm(), Algorithm::NoWait { .. }) {
            if let Err(k) = self.check_abort()? {
                return Ok(Err(k));
            }
        }
        match self.core.read_step(&mut self.cache, page) {
            Action::Local { .. } => Ok(Ok(())),
            Action::Async(msg) => {
                self.conn.send(msg)?;
                Ok(Ok(()))
            }
            Action::Sync(sop) => {
                self.conn.send(sop.msg.clone())?;
                let (kind, payload) = self.await_reply(sop.op)?;
                self.verify_ship(page, &kind, &payload)?;
                match self
                    .core
                    .apply_read_reply(&mut self.cache, sop.kind, page, kind)
                {
                    Ok(sends) => {
                        self.conn.send_all(sends)?;
                        Ok(Ok(()))
                    }
                    Err(k) => Ok(Err(k)),
                }
            }
        }
    }

    fn write_page(&mut self, page: PageId) -> io::Result<Result<(), AbortKind>> {
        if matches!(self.core.algorithm(), Algorithm::NoWait { .. }) {
            if let Err(k) = self.check_abort()? {
                return Ok(Err(k));
            }
        }
        match self.core.write_step(&mut self.cache, page) {
            Action::Local { .. } => Ok(Ok(())),
            Action::Async(msg) => {
                self.conn.send(msg)?;
                Ok(Ok(()))
            }
            Action::Sync(sop) => {
                self.conn.send(sop.msg.clone())?;
                let (kind, payload) = self.await_reply(sop.op)?;
                self.verify_ship(page, &kind, &payload)?;
                match self.core.apply_write_reply(&mut self.cache, page, kind) {
                    Ok(sends) => {
                        self.conn.send_all(sends)?;
                        Ok(Ok(()))
                    }
                    Err(k) => Ok(Err(k)),
                }
            }
        }
    }

    fn commit(&mut self) -> io::Result<Result<(), AbortKind>> {
        if matches!(self.core.algorithm(), Algorithm::NoWait { .. }) {
            if let Err(k) = self.check_abort()? {
                return Ok(Err(k));
            }
        }
        match self.core.commit_step(&self.cache) {
            CommitAction::Local => {
                self.local_commits += 1;
                Ok(Ok(()))
            }
            CommitAction::Send { op, dirty, msg } => {
                self.conn.send(msg)?;
                let (kind, _payload) = self.await_reply(op)?;
                match self.core.apply_commit_reply(&mut self.cache, &dirty, kind) {
                    Ok(_version) => Ok(Ok(())),
                    Err(k) => Ok(Err(k)),
                }
            }
        }
    }

    /// One attempt of the paper's Figure-3 transaction shape: per object,
    /// read its pages, then update the written subset, then commit.
    fn execute(&mut self, spec: &TxnSpec) -> io::Result<Result<(), AbortKind>> {
        for op in &spec.ops {
            for &page in &op.pages {
                if let Err(k) = self.read_page(page)? {
                    return Ok(Err(k));
                }
            }
            let write_pages: Vec<PageId> = op
                .pages
                .iter()
                .zip(&op.writes)
                .filter(|(_, w)| **w)
                .map(|(p, _)| *p)
                .collect();
            for &page in &write_pages {
                if let Err(k) = self.write_page(page)? {
                    return Ok(Err(k));
                }
            }
        }
        self.commit()
    }

    fn run_txn(&mut self, spec: &TxnSpec) -> io::Result<()> {
        loop {
            self.core.begin_attempt();
            match self.execute(spec)? {
                Ok(()) => {
                    let sends = self.core.finish_commit(&mut self.cache);
                    self.conn.send_all(sends)?;
                    return Ok(());
                }
                Err(_kind) => {
                    self.aborts += 1;
                    let sends = self.core.abort_cleanup(&mut self.cache);
                    self.conn.send_all(sends)?;
                    // Real-time stand-in for the simulator's exponential
                    // restart delay: enough jitter to break livelock.
                    let ms = 1 + (self.rng.next_u32() % 8) as u64;
                    thread::sleep(Duration::from_millis(ms));
                }
            }
        }
    }
}

fn run_client(id: u32, opts: &LoadOptions, done: &AtomicU32) -> io::Result<LoadSummary> {
    let sock = TcpStream::connect(&opts.addr)?;
    sock.set_nodelay(true).ok();
    let mut reader = BufReader::new(sock.try_clone()?);
    let mut writer = BufWriter::new(sock.try_clone()?);
    write_frame(&mut writer, &Frame::Hello { client: id }, 0)?;
    writer.flush()?;
    let (alg_label, page_size) = match read_frame(&mut reader, 0)? {
        Some(Frame::HelloAck { alg, page_size }) => (alg, page_size),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected HelloAck",
            ))
        }
    };
    let algorithm: Algorithm = alg_label
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;

    // The reader thread turns the socket into a channel so protocol code
    // can poll without owning socket timeouts. Payload bytes ride along
    // for image verification.
    let (tx, rx) = mpsc::channel::<(S2C, Vec<u8>)>();
    let reader_thread = thread::spawn(move || {
        while let Ok(Some((Frame::S2C(msg), payload))) =
            read_frame_with_payload(&mut reader, page_size)
        {
            if tx.send((msg, payload)).is_err() {
                break;
            }
        }
    });

    let sys = SystemParams::table5();
    // The same seeding discipline as the simulation runner: one stream
    // per client, disjoint from every other client's.
    let workload_rng = Pcg32::new(opts.seed, 10_000 + id as u64);
    let mut workload = Workload::new(table5_database(), TxnParams::short_batch(), workload_rng);
    let mut c = LoadClient {
        core: ClientCore::new(ClientId(id), algorithm, Tuning::default()),
        cache: ClientCache::new(sys.cache_size),
        conn: Conn {
            writer,
            rx,
            page_size,
        },
        rng: Pcg32::new(opts.seed, 20_000 + id as u64),
        aborts: 0,
        local_commits: 0,
        verified: 0,
    };

    for _ in 0..opts.txns {
        let spec = workload.next_txn();
        c.run_txn(&spec)?;
        workload.note_commit(&spec);
    }

    // Done, but stay responsive until everyone is: retained locks must
    // answer callbacks or the other clients would block forever.
    done.fetch_add(1, Ordering::SeqCst);
    while done.load(Ordering::SeqCst) < opts.clients {
        match c.conn.rx.recv_timeout(Duration::from_millis(20)) {
            Ok((msg, payload)) => c.handle_async(msg, &payload)?,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let summary = LoadSummary {
        alg: alg_label,
        commits: u64::from(opts.txns),
        local_commits: c.local_commits,
        aborts: c.aborts,
        pages_verified: c.verified,
    };
    write_frame(&mut c.conn.writer, &Frame::Bye, page_size)?;
    c.conn.writer.flush()?;
    drop(c);
    let _ = reader_thread.join();
    Ok(summary)
}

/// Run `clients` workstations against a live server; blocks until every
/// client committed its quota.
pub fn load(opts: &LoadOptions) -> io::Result<LoadSummary> {
    assert!(opts.clients >= 1, "need at least one client");
    let done = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for id in 0..opts.clients {
        let opts = opts.clone();
        let done = Arc::clone(&done);
        handles.push(thread::spawn(move || run_client(id, &opts, &done)));
    }
    let mut summary = LoadSummary::default();
    let mut failure: Option<io::Error> = None;
    for h in handles {
        match h.join() {
            Ok(Ok(c)) => {
                summary.alg = c.alg;
                summary.commits += c.commits;
                summary.local_commits += c.local_commits;
                summary.aborts += c.aborts;
                summary.pages_verified += c.pages_verified;
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => {
                failure = Some(io::Error::other("client thread panicked"));
            }
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}
