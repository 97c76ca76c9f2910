//! Serve entry points, plus the legacy threaded TCP page-server.
//!
//! [`serve`] dispatches to the nonblocking reactor
//! ([`crate::reactor`]) by default; `ServeOptions::threaded` selects
//! the original server kept here: one listener, one thread per
//! connection, and a single mutex around the engine + trace writer +
//! connection registry. The mutex pins a *total order* over all
//! inbound messages, and the `ccdb.wire_trace/v1` trace records
//! exactly that order — which is what makes the recorded run
//! replayable through a fresh engine with zero diffs even though the
//! client sockets raced.
//!
//! Session lifecycle: `Hello{client}` → `HelloAck{alg, page_size}` →
//! any number of `C2S` frames → `Bye` (or EOF), which aborts the
//! client's live transactions and releases its retained locks.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ccdb_lock::ClientId;
use ccdb_model::{table5_database, SystemParams};
use ccdb_proto::{Algorithm, Tuning, C2S};
use ccdb_storage::PageStore;

use crate::codec::{read_frame, read_frame_with_payload, write_frame, Frame};
use crate::engine::{Effects, Engine};
use crate::shard::{encode_send, verify_install_commit};
use crate::trace::{TraceHeader, TraceWriter};

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Modelling variants (defaults match the paper).
    pub tuning: Tuning,
    /// Client slots (sizes the notification broadcast set).
    pub clients: u32,
    /// Multiprogramming level; transactions beyond it queue.
    pub mpl: u32,
    /// Lock table shards.
    pub lock_shards: u32,
    /// Port to bind on loopback; 0 picks an ephemeral port.
    pub port: u16,
    /// Record a `ccdb.wire_trace/v1` JSONL trace here.
    pub trace: Option<PathBuf>,
    /// Exit once every connected client has disconnected. Fails with
    /// `TimedOut` if no client connects within a minute of listening.
    pub once: bool,
    /// Write the bound port (decimal, newline) here once listening.
    /// Written atomically (temp file + rename), so a reader never sees
    /// a partially written port.
    pub port_file: Option<PathBuf>,
    /// Engine shards for the reactor server (min 1). Ignored by the
    /// threaded server, which is inherently single-sharded.
    pub engine_shards: u32,
    /// Run the legacy threaded server (v1 traces) instead of the
    /// default nonblocking reactor (v2 traces).
    pub threaded: bool,
}

impl ServeOptions {
    /// Defaults mirroring the paper's Table 5 workstation count.
    pub fn new(algorithm: Algorithm) -> ServeOptions {
        ServeOptions {
            algorithm,
            tuning: Tuning::default(),
            clients: SystemParams::table5().n_clients,
            mpl: SystemParams::table5().mpl,
            lock_shards: SystemParams::table5().lock_shards,
            port: 0,
            trace: None,
            once: false,
            port_file: None,
            engine_shards: 1,
            threaded: false,
        }
    }
}

/// With `once`, give up if no client has connected this long after the
/// listener opened, so a missing client cannot hang its caller forever.
pub(crate) const ONCE_START_DEADLINE: Duration = Duration::from_secs(60);

/// Atomically publish the bound port: write a temp file next to the
/// target, then rename it into place. Readers polling for the file can
/// never observe a partial write.
pub(crate) fn write_port_file(path: &std::path::Path, port: u16) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let mut tmp = dir.map_or_else(PathBuf::new, |d| d.to_path_buf());
    let name = path.file_name().unwrap_or_else(|| "port".as_ref());
    tmp.push(format!(".{}.tmp-{port}", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        writeln!(f, "{port}")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

struct Inner {
    engine: Engine,
    trace: Option<TraceWriter<BufWriter<File>>>,
    conns: HashMap<u32, mpsc::Sender<Vec<u8>>>,
    seq: u64,
    store: PageStore,
    page_size: u32,
}

impl Inner {
    /// Process one inbound message (or a disconnect) under the lock:
    /// advance the engine, verify/install commit images, record the
    /// trace line, encode the sends with real page payloads, and route
    /// the encoded frames.
    fn step(&mut self, from: ClientId, msg: Option<C2S>, payload: &[u8]) -> io::Result<()> {
        self.seq += 1;
        let eff: Effects = match &msg {
            Some(m) => self.engine.apply(from, m.clone()),
            None => self.engine.disconnect(from),
        };
        let store = &mut self.store;
        let ps = self.page_size;
        let payload_ok = verify_install_commit(
            msg.as_ref(),
            &eff,
            payload,
            ps,
            &mut |page, version, img| {
                store.install(page, version, img);
            },
        );
        if !payload_ok {
            eprintln!(
                "ccdb-server: commit payload image mismatch at seq {}",
                self.seq
            );
        }
        if let Some(trace) = &mut self.trace {
            trace.record(self.seq, from, msg.as_ref(), &eff)?;
        }
        for (i, (to, s2c)) in eff.sends.iter().enumerate() {
            let bytes = encode_send(s2c, eff.send_pages[i], ps, &mut |page, version| {
                store.read(page, version, ps as usize)
            });
            if let Some(tx) = self.conns.get(&to.0) {
                // A send to a client that disconnected mid-flight is
                // dropped, exactly as a real server would.
                let _ = tx.send(bytes);
            }
        }
        Ok(())
    }
}

/// Run the page-server until interrupted (or, with `once`, until the
/// last client leaves). Returns the number of commits processed.
///
/// Dispatches to the nonblocking reactor (`ccdb.wire_trace/v2`, sharded
/// engine) by default, or the legacy threaded server (`/v1`) when
/// `opts.threaded` is set.
pub fn serve(opts: &ServeOptions) -> io::Result<u64> {
    if opts.threaded {
        serve_threaded(opts)
    } else {
        crate::reactor::serve_reactor(opts)
    }
}

/// The original one-thread-per-connection server. Kept as the v1
/// baseline the shard smoke compares the reactor against.
fn serve_threaded(opts: &ServeOptions) -> io::Result<u64> {
    let sys = SystemParams::table5();
    let page_size = sys.page_size;
    let engine = Engine::new(
        opts.algorithm,
        opts.tuning,
        opts.clients,
        opts.mpl,
        opts.lock_shards,
        true,
        table5_database(),
    );
    let trace = match &opts.trace {
        Some(path) => {
            let header = TraceHeader {
                algorithm: opts.algorithm,
                clients: opts.clients,
                mpl: opts.mpl,
                lock_shards: opts.lock_shards,
                page_size,
                engine_shards: None,
            };
            Some(TraceWriter::new(
                BufWriter::new(File::create(path)?),
                &header,
                true,
            )?)
        }
        None => None,
    };
    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let listening = Instant::now();
    let addr = listener.local_addr()?;
    if let Some(pf) = &opts.port_file {
        write_port_file(pf, addr.port())?;
    }
    println!("ccdb-server: {} on {addr}", opts.algorithm.label());
    io::stdout().flush().ok();

    let inner = Arc::new(Mutex::new(Inner {
        engine,
        trace,
        conns: HashMap::new(),
        seq: 0,
        store: PageStore::new(),
        page_size,
    }));
    let active = Arc::new(AtomicUsize::new(0));
    let ever_connected = Arc::new(AtomicBool::new(false));

    listener.set_nonblocking(true)?;
    let mut workers = Vec::new();
    loop {
        match listener.accept() {
            Ok((sock, _peer)) => {
                ever_connected.store(true, Ordering::SeqCst);
                active.fetch_add(1, Ordering::SeqCst);
                let inner = Arc::clone(&inner);
                let active = Arc::clone(&active);
                let (alg, clients) = (opts.algorithm, opts.clients);
                workers.push(thread::spawn(move || {
                    let result = handle_conn(sock, &inner, alg, page_size, clients);
                    if let Err(e) = result {
                        eprintln!("ccdb-server: connection error: {e}");
                    }
                    active.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if opts.once && !ever_connected.load(Ordering::SeqCst) {
                    if listening.elapsed() >= ONCE_START_DEADLINE {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no client connected before the start-up deadline",
                        ));
                    }
                } else if opts.once && active.load(Ordering::SeqCst) == 0 {
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let mut inner = inner.lock().expect("server state poisoned");
    let (messages, commits, aborts) = (inner.seq, inner.engine.commits, inner.engine.aborts);
    if let Some(trace) = &mut inner.trace {
        trace.finish(messages, commits, aborts)?;
    }
    println!("ccdb-server: done — {messages} messages, {commits} commits, {aborts} aborts");
    Ok(commits)
}

fn handle_conn(
    sock: TcpStream,
    inner: &Arc<Mutex<Inner>>,
    algorithm: Algorithm,
    page_size: u32,
    clients: u32,
) -> io::Result<()> {
    sock.set_nodelay(true).ok();
    let mut reader = BufReader::new(sock.try_clone()?);
    let client = match read_frame(&mut reader, page_size)? {
        Some(Frame::Hello { client }) if client < clients => client,
        Some(Frame::Hello { client }) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("client {client} is outside the configured {clients} clients"),
            ))
        }
        Some(_) | None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected Hello as the first frame",
            ))
        }
    };
    let mut wsock = sock.try_clone()?;
    write_frame(
        &mut wsock,
        &Frame::HelloAck {
            alg: algorithm.label().to_string(),
            page_size,
        },
        page_size,
    )?;

    // Outbound frames go through a channel so the engine lock is never
    // held across a socket write; they arrive here already encoded
    // (with their page-image payloads) by [`Inner::step`].
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    inner
        .lock()
        .expect("server state poisoned")
        .conns
        .insert(client, tx);
    let writer = thread::spawn(move || {
        let mut w = BufWriter::new(&mut wsock);
        for bytes in rx {
            if w.write_all(&bytes).is_err() {
                break;
            }
            if w.flush().is_err() {
                break;
            }
        }
    });

    let from = ClientId(client);
    let result = loop {
        match read_frame_with_payload(&mut reader, page_size) {
            Ok(Some((Frame::C2S(msg), payload))) => {
                let mut inner = inner.lock().expect("server state poisoned");
                if let Err(e) = inner.step(from, Some(msg), &payload) {
                    break Err(e);
                }
            }
            Ok(Some((Frame::Bye, _))) | Ok(None) => break Ok(()),
            Ok(Some(_)) => {
                break Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected session frame mid-stream",
                ))
            }
            Err(e) => break Err(e),
        }
    };
    // Orderly or not, the departure aborts the client's live work.
    {
        let mut inner = inner.lock().expect("server state poisoned");
        inner.step(from, None, &[])?;
        inner.conns.remove(&client);
    }
    let _ = writer.join();
    result
}
