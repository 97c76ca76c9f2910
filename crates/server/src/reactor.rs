//! The default page-server: a single-threaded readiness loop over plain
//! `std::net` sockets, blocking in `poll(2)`.
//!
//! One reactor thread owns the listener and every connection, and
//! sleeps in `poll` until one of them is ready. A connection asks for
//! `POLLIN` unless it is closing or its writer backlog is above a
//! high-water mark, and for `POLLOUT` while its [`FrameWriter`] holds
//! bytes the socket would not take. Readable bytes go into a per-connection
//! [`FrameReader`] (tolerating arbitrarily fragmented frames), and each
//! complete message is handled inline: [`ShardedEngine::step`] decides
//! it, [`ShardedEngine::render`] verifies commit images, materializes
//! page images and encodes frames, and the frames are queued straight
//! into the destination writers. Because every message is decided and
//! rendered in one place, in order, per-client send order and the
//! `ccdb.wire_trace/v2` line order are simply the order of the loop.
//!
//! Backpressure is structural: a slow consumer stops being read while
//! its own backlog is high, so it slows its own intake instead of
//! growing a queue, and everyone else keeps being served.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use ccdb_lock::ClientId;
use ccdb_model::{table5_database, SystemParams};
use ccdb_proto::C2S;

use crate::codec::{encode_frame, Frame, FrameReader, FrameWriter};
use crate::server::{write_port_file, ServeOptions, ONCE_START_DEADLINE};
use crate::shard::ShardedEngine;
use crate::trace::{TraceHeader, TraceWriter};

/// Stop reading a connection while its writer backlog exceeds this.
const WRITER_HIGH: usize = 1 << 20;
/// Per-connection read budget per wake-up (fairness, not correctness).
const READS_PER_WAKE: usize = 4;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    pub const POLLERR: c_short = 0x8;
    pub const POLLHUP: c_short = 0x10;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    #[allow(non_camel_case_types)]
    type nfds_t = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    #[allow(non_camel_case_types)]
    type nfds_t = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
    }

    /// Block until a descriptor in `fds` is ready or `timeout_ms`
    /// passes (negative: no timeout). `EINTR` counts as a spurious
    /// wake-up with nothing ready.
    pub fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<()> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records, and `nfds` is exactly its length,
        // so the kernel reads and writes only inside it for the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, timeout_ms) };
        if n >= 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() == std::io::ErrorKind::Interrupted {
            fds.iter_mut().for_each(|f| f.revents = 0);
            return Ok(());
        }
        Err(e)
    }
}

#[cfg(not(unix))]
compile_error!("the reactor page-server needs poll(2)");

use sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

struct Conn {
    sock: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    /// Client slot, set once `Hello` arrives.
    slot: Option<u32>,
    /// No more reads; draining queued writes before removal.
    closing: bool,
    /// Socket is unusable; remove without draining.
    broken: bool,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            sock,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            slot: None,
            closing: false,
            broken: false,
        }
    }

    fn live(&self) -> bool {
        !self.closing && !self.broken
    }

    /// The readiness this connection waits for.
    fn interest(&self) -> i16 {
        let mut ev = 0;
        if self.live() && self.writer.pending() <= WRITER_HIGH {
            ev |= POLLIN;
        }
        if self.writer.pending() > 0 {
            ev |= POLLOUT;
        }
        ev
    }
}

struct Reactor {
    engine: ShardedEngine,
    trace: Option<TraceWriter<BufWriter<File>>>,
    conns: Vec<Conn>,
    clients: u32,
    page_size: u32,
    /// The encoded `HelloAck`, the same for every session.
    ack: Vec<u8>,
    payload_bad: u64,
}

impl Reactor {
    /// Decide one message (`None`: a disconnect), render it, record its
    /// trace line, and queue its frames on the live destinations. Frames
    /// for departed or never-connected slots are dropped.
    fn step(&mut self, from: ClientId, msg: Option<C2S>, payload: Vec<u8>) -> io::Result<()> {
        let step = self.engine.step(from, msg, payload);
        let r = self.engine.render(&step);
        if !r.payload_ok {
            self.payload_bad += 1;
            eprintln!(
                "ccdb-server: commit payload image mismatch at seq {}",
                step.seq
            );
        }
        if let (Some(tw), Some(line)) = (self.trace.as_mut(), r.line) {
            tw.record_line(&line)?;
        }
        for o in r.outs {
            if let Some(c) = self
                .conns
                .iter_mut()
                .find(|c| c.slot == Some(o.to) && c.live())
            {
                c.writer.queue(&o.bytes);
            }
        }
        Ok(())
    }

    /// Take connection `i` out of service — draining its queued writes
    /// first unless `broken` — and tell the engine its client left.
    fn depart(&mut self, i: usize, broken: bool) -> io::Result<()> {
        let c = &mut self.conns[i];
        let was_live = c.live();
        if broken {
            c.broken = true;
        } else {
            c.closing = true;
        }
        match c.slot {
            Some(slot) if was_live => self.step(ClientId(slot), None, Vec::new()),
            _ => Ok(()),
        }
    }

    /// Read what connection `i` has ready and handle every complete
    /// frame in arrival order.
    fn read(&mut self, i: usize, buf: &mut [u8]) -> io::Result<()> {
        let mut eof = false;
        for _ in 0..READS_PER_WAKE {
            match self.conns[i].sock.read(buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.conns[i].reader.push(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        let ps = self.page_size;
        loop {
            let (frame, payload) = match self.conns[i].reader.next_frame(ps) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return self.depart(i, false),
            };
            match (self.conns[i].slot, frame) {
                (None, Frame::Hello { client }) => {
                    if client >= self.clients || self.conns.iter().any(|c| c.slot == Some(client)) {
                        return self.depart(i, false);
                    }
                    let c = &mut self.conns[i];
                    c.slot = Some(client);
                    // Queued before any engine send to this client, the
                    // first of which can only follow a later C2S.
                    c.writer.queue(&self.ack);
                }
                (Some(slot), Frame::C2S(msg)) => self.step(ClientId(slot), Some(msg), payload)?,
                // Bye, a frame before Hello, or a session frame
                // mid-stream all end the session.
                _ => return self.depart(i, false),
            }
        }
        if eof {
            self.depart(i, false)?;
        }
        Ok(())
    }

    /// Write queued bytes until each socket would block; a dead socket
    /// turns into a disconnect.
    fn flush(&mut self) -> io::Result<()> {
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if c.broken || c.writer.pending() == 0 {
                continue;
            }
            if c.writer.flush_to(&mut c.sock).is_err() {
                self.depart(i, true)?;
            }
        }
        Ok(())
    }
}

/// Run the reactor page-server until interrupted (or, with `once`,
/// until the last client leaves and its replies have drained).
/// Returns the number of commits processed.
pub fn serve_reactor(opts: &ServeOptions) -> io::Result<u64> {
    serve_within(opts, ONCE_START_DEADLINE)
}

fn serve_within(opts: &ServeOptions, start_deadline: Duration) -> io::Result<u64> {
    let page_size = SystemParams::table5().page_size;
    let shards = opts.engine_shards.max(1);
    let engine = ShardedEngine::new(
        opts.algorithm,
        opts.tuning,
        opts.clients,
        opts.mpl,
        opts.lock_shards,
        shards,
        page_size,
        opts.trace.is_some(),
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
                engine_shards: Some(shards),
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
    listener.set_nonblocking(true)?;
    let listening = Instant::now();
    let addr = listener.local_addr()?;
    if let Some(pf) = &opts.port_file {
        write_port_file(pf, addr.port())?;
    }
    println!("ccdb-server: {} on {addr}", opts.algorithm.label());
    io::stdout().flush().ok();

    let mut r = Reactor {
        engine,
        trace,
        conns: Vec::new(),
        clients: opts.clients,
        page_size,
        ack: encode_frame(
            &Frame::HelloAck {
                alg: opts.algorithm.label().to_string(),
                page_size,
            },
            page_size,
        ),
        payload_bad: 0,
    };
    let mut ever_connected = false;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = [0u8; 16 * 1024];

    loop {
        fds.clear();
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        fds.extend(r.conns.iter().map(|c| PollFd {
            fd: c.sock.as_raw_fd(),
            events: c.interest(),
            revents: 0,
        }));
        let timeout_ms = if opts.once && !ever_connected {
            let left = start_deadline
                .checked_sub(listening.elapsed())
                .filter(|d| !d.is_zero())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no client connected before the start-up deadline",
                    )
                })?;
            left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        } else {
            -1
        };
        sys::wait(&mut fds, timeout_ms)?;

        // Accept. New connections join the end of `conns`, so the
        // indices below still match the polled descriptors.
        if fds[0].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((sock, _peer)) => {
                        sock.set_nonblocking(true)?;
                        sock.set_nodelay(true).ok();
                        ever_connected = true;
                        r.conns.push(Conn::new(sock));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        // Errors and hang-ups surface through the read, or through the
        // flush for a connection that is no longer read.
        for (i, fd) in fds[1..].iter().enumerate() {
            if fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 && r.conns[i].live() {
                r.read(i, &mut buf)?;
            }
        }
        r.flush()?;

        // Retire connections that are drained or dead.
        r.conns
            .retain(|c| !(c.broken || c.closing && c.writer.pending() == 0));

        if opts.once && ever_connected && r.conns.is_empty() {
            break;
        }
    }

    let (messages, commits, aborts) = r.engine.totals();
    if let Some(tw) = &mut r.trace {
        tw.finish(messages, commits, aborts)?;
    }
    if r.payload_bad > 0 {
        eprintln!(
            "ccdb-server: {} commit payload image mismatches",
            r.payload_bad
        );
    }
    println!("ccdb-server: done — {messages} messages, {commits} commits, {aborts} aborts");
    Ok(commits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_proto::Algorithm;

    #[test]
    fn once_gives_up_when_no_client_connects() {
        let mut opts = ServeOptions::new(Algorithm::Certification { inter: false });
        opts.once = true;
        let err = serve_within(&opts, Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
