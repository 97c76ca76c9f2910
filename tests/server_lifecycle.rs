//! Lifecycle regressions for the page-server: atomic port-file
//! publication, clean `--once` shutdown that drains in-flight writer
//! buffers, end-to-end tolerance of byte-at-a-time clients, and fault
//! injection against the reactor's readiness logic (half-open
//! connections, consumers that never read).

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use ccdb::lock::TxnId;
use ccdb::model::{ClassId, PageId};
use ccdb::proto::C2S;
use ccdb::server::{
    encode_frame, load, read_frame_with_payload, replay, serve, Frame, LoadOptions, ServeOptions,
};
use ccdb::Algorithm;

const OCC: Algorithm = Algorithm::Certification { inter: false };

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccdb-life-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn await_port(port_file: &std::path::Path) -> u16 {
    let mut tries = 0;
    loop {
        // The port file is renamed into place, so any read that finds
        // the file must find a complete port — parse failures are the
        // regression this guards against.
        if let Ok(s) = std::fs::read_to_string(port_file) {
            return s
                .trim()
                .parse()
                .expect("port file must never be partially written");
        }
        tries += 1;
        assert!(tries < 1_000, "server never published its port");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The port file appears atomically (rename, not create+write) and the
/// temp file it was staged through is gone once it's readable.
#[test]
fn port_file_publishes_atomically() {
    for threaded in [false, true] {
        let dir = temp_dir(&format!("port-{threaded}"));
        let port_file = dir.join("port");
        let mut sopts = ServeOptions::new(Algorithm::Callback);
        sopts.clients = 1;
        sopts.once = true;
        sopts.port_file = Some(port_file.clone());
        sopts.threaded = threaded;
        let server = thread::spawn(move || serve(&sopts));

        let port = await_port(&port_file);
        assert!(port > 0);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read temp dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "port")
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files must not outlive the rename: {leftovers:?}"
        );

        load(&LoadOptions {
            addr: format!("127.0.0.1:{port}"),
            clients: 1,
            txns: 1,
            seed: 3,
        })
        .expect("load run failed");
        server
            .join()
            .expect("server thread panicked")
            .expect("serve failed");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `Hello` naming a client outside the configured count is refused by
/// both servers: the connection closes without a `HelloAck`, before the
/// engine can see the id, and `--once` still exits cleanly.
#[test]
fn out_of_range_client_is_refused() {
    for threaded in [false, true] {
        let dir = temp_dir(&format!("range-{threaded}"));
        let port_file = dir.join("port");
        let mut sopts = ServeOptions::new(Algorithm::Callback);
        sopts.clients = 2;
        sopts.once = true;
        sopts.port_file = Some(port_file.clone());
        sopts.threaded = threaded;
        let server = thread::spawn(move || serve(&sopts));
        let port = await_port(&port_file);

        let mut sock = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        sock.write_all(&encode_frame(&Frame::Hello { client: 2 }, 0))
            .expect("send hello");
        let mut reader = BufReader::new(sock.try_clone().expect("clone sock"));
        let reply = read_frame_with_payload(&mut reader, 0);
        assert!(
            matches!(reply, Ok(None) | Err(_)),
            "threaded={threaded}: expected the connection closed, got {reply:?}"
        );
        drop(sock);
        let commits = server
            .join()
            .expect("server thread panicked")
            .expect("serve failed");
        assert_eq!(commits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A client that feeds the reactor one byte at a time still gets a
/// complete handshake and page ship, and `--once` exits only after the
/// in-flight reply has fully drained to the socket.
#[test]
fn reactor_survives_byte_dribble_and_drains_on_once() {
    let dir = temp_dir("dribble");
    let port_file = dir.join("port");
    let mut sopts = ServeOptions::new(Algorithm::TwoPhase { inter: false });
    sopts.clients = 1;
    sopts.once = true;
    sopts.engine_shards = 4;
    sopts.port_file = Some(port_file.clone());
    let server = thread::spawn(move || serve(&sopts));
    let port = await_port(&port_file);

    let mut sock = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    sock.set_nodelay(true).ok();

    // Hello, dribbled one byte at a time (page_size 0: no payload yet).
    for b in encode_frame(&Frame::Hello { client: 0 }, 0) {
        sock.write_all(&[b]).expect("dribble hello");
        sock.flush().ok();
    }
    let mut reader = sock.try_clone().expect("clone sock");
    let (ack, _) = read_frame_with_payload(&mut reader, 0)
        .expect("read HelloAck")
        .expect("server closed early");
    let page_size = match ack {
        Frame::HelloAck { page_size, .. } => page_size,
        other => panic!("expected HelloAck, got {other:?}"),
    };

    // A LockFetch whose reply ships a real page image; dribbled too.
    let fetch = encode_frame(
        &Frame::C2S(ccdb::proto::C2S::LockFetch {
            txn: ccdb::lock::TxnId(1),
            page: ccdb::model::PageId {
                class: ccdb::model::ClassId(0),
                atom: 5,
            },
            mode: ccdb::lock::Mode::S,
            cached_version: None,
            wait: true,
            op: 1,
        }),
        page_size,
    );
    for b in fetch {
        sock.write_all(&[b]).expect("dribble fetch");
    }
    let (reply, payload) = read_frame_with_payload(&mut reader, page_size)
        .expect("read reply")
        .expect("server closed before replying");
    assert!(
        matches!(reply, Frame::S2C(ccdb::proto::S2C::Reply { .. })),
        "expected a lock-fetch reply, got {reply:?}"
    );
    assert_eq!(
        payload.len(),
        page_size as usize,
        "the ship must carry a full page image"
    );

    // Bye; the server must exit its --once loop even though the last
    // reply was still in flight when Bye hit the wire.
    sock.write_all(&encode_frame(&Frame::Bye, page_size))
        .expect("send bye");
    drop(sock);
    // EOF on our side confirms the server drained and closed.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain to EOF");

    let commits = server
        .join()
        .expect("server thread panicked")
        .expect("serve failed");
    assert_eq!(commits, 0, "nothing committed in this session");
    std::fs::remove_dir_all(&dir).ok();
}

/// Start a `--once` reactor for `clients` slots, optionally tracing to
/// `trace`, and return its thread and port.
fn start_once(
    dir: &std::path::Path,
    clients: u32,
    trace: Option<std::path::PathBuf>,
) -> (thread::JoinHandle<std::io::Result<u64>>, u16) {
    let port_file = dir.join("port");
    let mut sopts = ServeOptions::new(OCC);
    sopts.clients = clients;
    sopts.once = true;
    sopts.trace = trace;
    sopts.port_file = Some(port_file.clone());
    let server = thread::spawn(move || serve(&sopts));
    (server, await_port(&port_file))
}

/// A connection that sends half a `Hello` and then holds its socket
/// open starves no one: a concurrent load commits its whole quota, and
/// the `--once` server waits for that socket and exits once it closes.
#[test]
fn half_open_connection_does_not_stall_the_reactor() {
    let dir = temp_dir("half-open");
    let (server, port) = start_once(&dir, 2, None);

    let mut half = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let hello = encode_frame(&Frame::Hello { client: 0 }, 0);
    half.write_all(&hello[..hello.len() / 2])
        .expect("send half a hello");

    let summary = load(&LoadOptions {
        addr: format!("127.0.0.1:{port}"),
        clients: 2,
        txns: 5,
        seed: 11,
    })
    .expect("load beside a half-open connection failed");
    assert_eq!(summary.commits, 10, "every client must commit its quota");
    assert!(
        !server.is_finished(),
        "a --once server must not exit while a connection is still open"
    );

    drop(half);
    let commits = server
        .join()
        .expect("server thread panicked")
        .expect("serve failed");
    assert_eq!(commits, summary.commits);
    std::fs::remove_dir_all(&dir).ok();
}

/// A consumer with its own client slot that asks for thousands of page
/// images and never reads the replies pushes its writer backlog past the
/// reactor's high-water mark. OCC fetches take no locks, so the stall
/// must stay its own problem: a concurrent load commits its whole quota
/// and the traced run replays with zero decision diffs.
#[test]
fn stalled_consumer_does_not_stall_the_reactor() {
    let dir = temp_dir("stalled");
    let trace_path = dir.join("trace.jsonl");
    // Slots 0 and 1 for the load, slot 2 for the stalled consumer.
    let (server, port) = start_once(&dir, 3, Some(trace_path.clone()));

    let mut stalled = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stalled
        .write_all(&encode_frame(&Frame::Hello { client: 2 }, 0))
        .expect("send hello");
    let (ack, _) = read_frame_with_payload(&mut stalled, 0)
        .expect("read HelloAck")
        .expect("server closed early");
    let Frame::HelloAck { page_size, .. } = ack else {
        panic!("expected HelloAck, got {ack:?}");
    };
    // 2000 page images (8 MiB at the Table 5 page size) exceed the
    // writer's 1 MiB high-water mark plus what loopback socket buffers
    // absorb; the requests themselves (~60 KiB) fit in those buffers.
    let txn = TxnId((2 << 32) | 1);
    let mut fetches = Vec::new();
    for i in 0..2000u16 {
        let page = PageId {
            class: ClassId(i / 50 % 40),
            atom: u32::from(i % 50),
        };
        let fetch = C2S::Fetch {
            txn,
            page,
            op: u64::from(i),
        };
        fetches.extend(encode_frame(&Frame::C2S(fetch), page_size));
    }
    stalled.write_all(&fetches).expect("send fetches");

    let summary = load(&LoadOptions {
        addr: format!("127.0.0.1:{port}"),
        clients: 2,
        txns: 5,
        seed: 13,
    })
    .expect("load beside a stalled consumer failed");
    assert_eq!(summary.commits, 10, "every client must commit its quota");

    drop(stalled);
    let commits = server
        .join()
        .expect("server thread panicked")
        .expect("serve failed");
    assert_eq!(commits, summary.commits);
    let report = replay(BufReader::new(
        File::open(&trace_path).expect("trace file missing"),
    ))
    .expect("trace unreadable");
    assert!(report.ok(), "replay diverged:\n{}", report.diffs.join("\n"));
    assert_eq!(report.commits, commits);
    std::fs::remove_dir_all(&dir).ok();
}
