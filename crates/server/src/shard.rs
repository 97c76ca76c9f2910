//! The page-hash–sharded engine behind the reactor server.
//!
//! Every decision runs through the serial [`Engine`] under one control
//! lock, which assigns each message a dense global sequence number —
//! the server's linearization order — and stamps the cross-shard commit
//! order. [`ShardedEngine::render`] then does the payload work for that
//! decision: verifying and installing commit images, materializing real
//! page images, encoding outgoing frames, and rendering the trace line.
//!
//! Shards mean two things only. Pages are partitioned across per-shard
//! [`PageStore`]s by the repo-wide [`page_shard`] hash (the same
//! discipline as the sharded lock table), and every `ccdb.wire_trace/v2`
//! line carries its message's shard tag. The reactor renders each step
//! inline, right after deciding it, so shards add no parallelism.
//!
//! Because the decisions are made by the unmodified serial engine in
//! sequence order, `ccdb replay` re-executes a sharded (v2) trace
//! through that same DES-validated engine — the per-shard streams merge
//! by global `seq`, and zero diffs mean the server made byte-for-byte
//! the decisions the simulator would have made.

use std::sync::{Arc, Mutex};

use ccdb_lock::{page_shard, ClientId};
use ccdb_model::{DatabaseSpec, PageId};
use ccdb_proto::{Algorithm, ReplyKind, ServerCore, Tuning, C2S, S2C};
use ccdb_storage::{verify_page_image, PageStore};

use crate::codec::{encode_frame_with_payload, Frame};
use crate::engine::{Decision, Effects, Engine};
use crate::trace::line_json;

/// The shard a message is tagged with: single-page messages go to their
/// page's hash shard; commits, disconnects, and anything spanning pages
/// are *wide* (`None`, rendered as `"*"` in the trace).
///
/// This is the v2 trace's merge rule in executable form — `replay`
/// recomputes it from the header's shard count and checks every line's
/// tag against it.
pub fn shard_of_msg(msg: Option<&C2S>, shards: u32) -> Option<u32> {
    match msg? {
        C2S::LockFetch { page, .. }
        | C2S::Fetch { page, .. }
        | C2S::CheckVersion { page, .. }
        | C2S::CallbackReply { page, .. }
        | C2S::ReleaseRetained { page } => Some(page_shard(*page, shards)),
        C2S::Commit { .. } => None,
    }
}

/// Verify a commit's dirty-page images against their expected bytes (in
/// place, without building an image) and hand each faithful image to
/// `install` iff the commit actually installed in this step; the
/// installed copy is the one copy out of the payload. Returns false on
/// any byte mismatch (the message still took effect — the engine already
/// decided — but the server flags the corruption). Shared by
/// [`ShardedEngine::render`] and the threaded server.
pub(crate) fn verify_install_commit(
    msg: Option<&C2S>,
    eff: &Effects,
    payload: &[u8],
    page_size: u32,
    install: &mut dyn FnMut(PageId, u64, Arc<[u8]>),
) -> bool {
    let Some(C2S::Commit { txn, dirty, .. }) = msg else {
        return true;
    };
    // The client ships each dirty page's image at the commit version
    // (txn ids double as versions). Deferred commits' images are not
    // installed here; their eventual ship synthesizes the same bytes.
    let version = ServerCore::commit_version(*txn);
    let installed = eff
        .decisions
        .iter()
        .any(|d| matches!(d, Decision::Committed { txn: t, .. } if t == txn));
    let ps = page_size as usize;
    let mut ok = true;
    for (i, page) in dirty.iter().enumerate() {
        let got = payload.get(i * ps..(i + 1) * ps).unwrap_or(&[]);
        if !verify_page_image(*page, version, got) {
            ok = false;
        } else if installed {
            install(*page, version, Arc::from(got));
        }
    }
    ok
}

/// Encode one outgoing message, materializing page images through
/// `read` for payload-carrying sends. `page` is the message's page from
/// [`Effects::send_pages`] (`PageData` replies don't name it on the
/// wire). Shared by [`ShardedEngine::render`] and the threaded server.
pub(crate) fn encode_send(
    m: &S2C,
    page: Option<PageId>,
    page_size: u32,
    read: &mut dyn FnMut(PageId, u64) -> Arc<[u8]>,
) -> Vec<u8> {
    match m {
        S2C::Reply {
            kind: ReplyKind::PageData { version },
            ..
        } => {
            let page = page.expect("PageData sends always carry their page");
            let img = read(page, *version);
            encode_frame_with_payload(&Frame::S2C(m.clone()), page_size, &img)
                .expect("image length is payload_bytes by construction")
        }
        S2C::Update { pages, version } => {
            let mut buf = Vec::with_capacity(pages.len() * page_size as usize);
            for p in pages {
                buf.extend_from_slice(&read(*p, *version));
            }
            encode_frame_with_payload(&Frame::S2C(m.clone()), page_size, &buf)
                .expect("image length is payload_bytes by construction")
        }
        _ => encode_frame_with_payload(&Frame::S2C(m.clone()), page_size, &[])
            .expect("payload-free messages take an empty payload"),
    }
}

/// Decision-relevant state, all under one short lock: the serial engine
/// plus the counters that define the linearization (global `seq`) and
/// the cross-shard commit order (`corder`).
struct Control {
    engine: Engine,
    seq: u64,
    corder: u64,
}

/// One message's trip through the control section: everything
/// [`ShardedEngine::render`] needs to render the trace line and outgoing
/// frames without touching the engine again.
pub struct Step {
    /// Global sequence number (dense, starts at 1).
    pub seq: u64,
    /// Shard tag (`None` = wide).
    pub shard: Option<u32>,
    /// Commit-order stamp of the first commit on this line, if any.
    pub corder: Option<u64>,
    /// Sender.
    pub from: ClientId,
    /// The message (`None` records a disconnect).
    pub msg: Option<C2S>,
    /// Inbound payload bytes that rode with the message (commit images).
    pub payload: Vec<u8>,
    /// What the engine decided and wants sent.
    pub eff: Effects,
}

/// One encoded outgoing frame, addressed by client slot.
pub struct OutFrame {
    /// Destination client slot.
    pub to: u32,
    /// The encoded frame, payload included.
    pub bytes: Vec<u8>,
}

/// What [`ShardedEngine::render`] produced for one step.
pub struct Rendered {
    /// The v2 trace line (rendered JSON), if tracing is on.
    pub line: Option<String>,
    /// Encoded outgoing frames, in send order.
    pub outs: Vec<OutFrame>,
    /// False if an inbound commit payload failed image verification.
    pub payload_ok: bool,
}

/// The sharded engine: serial control + per-shard page-image stores.
/// See the module docs for the linearization argument.
pub struct ShardedEngine {
    control: Mutex<Control>,
    stores: Vec<Mutex<PageStore>>,
    shards: u32,
    page_size: u32,
    trace: bool,
}

impl ShardedEngine {
    /// Build a sharded engine over a fresh database. `trace` controls
    /// whether [`ShardedEngine::render`] produces trace lines.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        algorithm: Algorithm,
        tuning: Tuning,
        n_clients: u32,
        mpl: u32,
        lock_shards: u32,
        shards: u32,
        page_size: u32,
        trace: bool,
        db: DatabaseSpec,
    ) -> ShardedEngine {
        let shards = shards.max(1);
        ShardedEngine {
            control: Mutex::new(Control {
                engine: Engine::new(algorithm, tuning, n_clients, mpl, lock_shards, true, db),
                seq: 0,
                corder: 0,
            }),
            stores: (0..shards).map(|_| Mutex::new(PageStore::new())).collect(),
            shards,
            page_size,
            trace,
        }
    }

    /// Number of engine shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Run one message through the control section: assign its sequence
    /// number, apply it to the serial engine, and stamp the commit order.
    /// Everything heavier happens in [`ShardedEngine::render`], outside
    /// the lock.
    pub fn step(&self, from: ClientId, msg: Option<C2S>, payload: Vec<u8>) -> Step {
        let mut c = self.control.lock().expect("control poisoned");
        c.seq += 1;
        let seq = c.seq;
        let eff = match &msg {
            Some(m) => c.engine.apply(from, m.clone()),
            None => c.engine.disconnect(from),
        };
        let committed = eff
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::Committed { .. }))
            .count() as u64;
        let corder = if committed > 0 {
            let first = c.corder + 1;
            c.corder += committed;
            Some(first)
        } else {
            None
        };
        Step {
            seq,
            shard: shard_of_msg(msg.as_ref(), self.shards),
            corder,
            from,
            msg,
            payload,
            eff,
        }
    }

    /// Totals for the trace footer: (messages, commits, aborts).
    pub fn totals(&self) -> (u64, u64, u64) {
        let c = self.control.lock().expect("control poisoned");
        (c.seq, c.engine.commits, c.engine.aborts)
    }

    fn store(&self, page: PageId) -> &Mutex<PageStore> {
        &self.stores[page_shard(page, self.shards) as usize]
    }

    /// Render one step outside the control lock: verify and install the
    /// inbound commit images, materialize real page images for every
    /// payload-carrying send, encode the frames, and render the trace
    /// line.
    pub fn render(&self, step: &Step) -> Rendered {
        let ps = self.page_size;
        let payload_ok = verify_install_commit(
            step.msg.as_ref(),
            &step.eff,
            &step.payload,
            ps,
            &mut |page, version, img| {
                self.store(page)
                    .lock()
                    .expect("store poisoned")
                    .install(page, version, img);
            },
        );
        let mut outs = Vec::with_capacity(step.eff.sends.len());
        for (i, (to, m)) in step.eff.sends.iter().enumerate() {
            let bytes = encode_send(m, step.eff.send_pages[i], ps, &mut |page, version| {
                self.store(page)
                    .lock()
                    .expect("store poisoned")
                    .read(page, version, ps as usize)
            });
            outs.push(OutFrame { to: to.0, bytes });
        }
        let line = self.trace.then(|| {
            line_json(
                step.seq,
                true,
                step.shard,
                step.corder,
                step.from,
                step.msg.as_ref(),
                &step.eff,
            )
            .render()
        });
        Rendered {
            line,
            outs,
            payload_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_lock::{Mode, TxnId};
    use ccdb_model::{table5_database, ClassId};
    use ccdb_storage::page_image;

    fn page(atom: u32) -> PageId {
        PageId {
            class: ClassId(0),
            atom,
        }
    }

    fn sharded(shards: u32) -> ShardedEngine {
        ShardedEngine::new(
            Algorithm::TwoPhase { inter: false },
            Tuning::default(),
            4,
            50,
            1,
            shards,
            256,
            true,
            table5_database(),
        )
    }

    #[test]
    fn classification_matches_page_hash() {
        let m = C2S::Fetch {
            txn: TxnId(1),
            page: page(9),
            op: 1,
        };
        assert_eq!(shard_of_msg(Some(&m), 4), Some(page_shard(page(9), 4)));
        let c = C2S::Commit {
            txn: TxnId(1),
            read_set: vec![],
            dirty: vec![page(9)],
            ops_sent: 1,
            op: 2,
        };
        assert_eq!(shard_of_msg(Some(&c), 4), None, "commits are wide");
        assert_eq!(shard_of_msg(None, 4), None, "disconnects are wide");
    }

    #[test]
    fn step_sequences_and_stamps_commits() {
        let e = sharded(4);
        let t = TxnId(1);
        let s1 = e.step(
            ClientId(0),
            Some(C2S::LockFetch {
                txn: t,
                page: page(3),
                mode: Mode::X,
                cached_version: None,
                wait: true,
                op: 1,
            }),
            Vec::new(),
        );
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.shard, Some(page_shard(page(3), 4)));
        assert_eq!(s1.corder, None);
        let payload = page_image(page(3), t.0, 256);
        let s2 = e.step(
            ClientId(0),
            Some(C2S::Commit {
                txn: t,
                read_set: vec![(page(3), 0)],
                dirty: vec![page(3)],
                ops_sent: 1,
                op: 2,
            }),
            payload,
        );
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.shard, None);
        assert_eq!(s2.corder, Some(1));
        let r = e.render(&s2);
        assert!(r.payload_ok, "a faithful commit image verifies");
        assert!(r.line.is_some());
        assert_eq!(r.outs.len(), s2.eff.sends.len());
    }

    #[test]
    fn render_ships_verifiable_images() {
        let e = sharded(2);
        let s = e.step(
            ClientId(1),
            Some(C2S::Fetch {
                txn: TxnId(1 << 32),
                page: page(7),
                op: 1,
            }),
            Vec::new(),
        );
        let r = e.render(&s);
        let data: Vec<_> = r.outs.iter().filter(|o| o.bytes.len() > 256).collect();
        assert_eq!(data.len(), 1, "exactly one PageData frame");
        let (frame, payload, _) =
            crate::codec::decode_frame_with_payload(&data[0].bytes, 256).unwrap();
        assert!(matches!(
            frame,
            Frame::S2C(S2C::Reply {
                kind: ReplyKind::PageData { version: 0 },
                ..
            })
        ));
        assert!(verify_page_image(page(7), 0, &payload));
    }

    #[test]
    fn corrupt_commit_payload_is_flagged() {
        let e = sharded(2);
        let t = TxnId(2);
        e.step(
            ClientId(0),
            Some(C2S::LockFetch {
                txn: t,
                page: page(4),
                mode: Mode::X,
                cached_version: None,
                wait: true,
                op: 1,
            }),
            Vec::new(),
        );
        let mut payload = page_image(page(4), t.0, 256);
        payload[40] ^= 0xFF;
        let s = e.step(
            ClientId(0),
            Some(C2S::Commit {
                txn: t,
                read_set: vec![(page(4), 0)],
                dirty: vec![page(4)],
                ops_sent: 1,
                op: 2,
            }),
            payload,
        );
        assert!(!e.render(&s).payload_ok);
    }
}
