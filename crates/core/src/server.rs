//! The server transaction module (STM): the DES driver over the sans-io
//! [`ServerCore`] (paper §3.3.4, §3.4).
//!
//! One dispatcher process receives every client message and spawns a
//! handler process per message. Every protocol *decision* — lock grants,
//! version validation, commit certification, retention policy,
//! notification fan-out, abort propagation — is made by the shared
//! [`ServerCore`] from `ccdb-proto`; this module adds what the core
//! deliberately knows nothing about: simulated CPUs, disks, the log, the
//! MPL admission gate, parked-continuation signals, wait attribution,
//! and message transport over the simulated network.
//!
//! All five algorithms are served by this module; the paper's
//! "algorithm-dependent server transaction manager" corresponds to the
//! branch points inside [`ServerCore`].

use std::cell::RefCell;
use std::collections::VecDeque;

use ccdb_model::FxHashMap as HashMap;
use std::rc::Rc;

use std::future::Future;

use ccdb_des::{oneshot, Env, Facility, FacilityGuard, OneshotSender, Pcg32, WaitClass};
use ccdb_lock::{ClientId, Mode, TxnId, Wake};
use ccdb_model::{PageId, SystemParams};
use ccdb_net::{Network, NetworkNode};
use ccdb_proto::{GrantDecision, ServerCore};
use ccdb_storage::{BufferManager, DiskArray, LogManager};

use crate::config::SimConfig;
use crate::metrics::AbortKind;
use crate::msg::{OpId, ReplyKind, C2S, S2C};
use crate::trace::{Trace, TraceEvent};
use crate::wait::WaitBook;

/// Result of waiting for a parked lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GrantResult {
    Granted,
    Aborted,
}

/// Runtime-only transaction state: admission bookkeeping and the
/// commit-gate signal. The protocol-visible state (ops resolved, failed,
/// parked pages) lives in the [`ServerCore`] entry with the same key;
/// both entries are created and removed together.
struct DriverTxn {
    admitted: bool,
    admission_waiters: Vec<OneshotSender<()>>,
    mpl_guard: Option<FacilityGuard>,
    commit_waiter: Option<OneshotSender<()>>,
}

/// Mutable server state shared by all handler processes. Borrows are always
/// released before any `.await`.
pub struct ServerState {
    /// The sans-io protocol core: lock manager, version table, caching
    /// directory, transaction registry.
    pub core: ServerCore,
    /// The buffer manager.
    pub buffer: BufferManager,
    txns: HashMap<TxnId, DriverTxn>,
    /// Parked lock-request signals, fired on grant or abort. A queue:
    /// no-wait locking can park an S and an X request of the same
    /// transaction on the same page.
    grants: HashMap<(TxnId, PageId), VecDeque<OneshotSender<GrantResult>>>,
}

/// The server: one `Rc`, so the dispatcher hands each per-message
/// handler process its own handle for one reference-count bump. Derefs to
/// its [`ServerParts`].
#[derive(Clone)]
pub struct Server(Rc<ServerParts>);

impl std::ops::Deref for Server {
    type Target = ServerParts;

    fn deref(&self) -> &ServerParts {
        &self.0
    }
}

/// The server's stations, disks, log and shared state, reached through a
/// [`Server`] handle.
pub struct ServerParts {
    env: Env,
    cfg: Rc<SimConfig>,
    /// The server station (CPUs + inbox of `(from, msg)`).
    pub node: NetworkNode<(ClientId, C2S)>,
    /// Client stations, indexed by client id (for replies).
    pub client_nodes: Rc<Vec<NetworkNode<S2C>>>,
    net: Network,
    /// Data disks.
    pub data_disks: DiskArray,
    /// The log manager.
    pub log: LogManager,
    mpl: Facility,
    /// Shared mutable state.
    pub state: Rc<RefCell<ServerState>>,
    /// Wait-attribution ledgers shared with the clients.
    book: WaitBook,
    trace: Trace,
}

/// Transaction to trace, from `CCDB_TRACE_TXN` (diagnostics; parsed once).
fn trace_txn() -> Option<TxnId> {
    use std::sync::OnceLock;
    static TRACE: OnceLock<Option<u64>> = OnceLock::new();
    TRACE
        .get_or_init(|| {
            std::env::var("CCDB_TRACE_TXN")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .map(TxnId)
}

impl Server {
    /// Build the server and spawn its dispatcher process.
    pub fn spawn(
        env: &Env,
        cfg: Rc<SimConfig>,
        net: Network,
        client_nodes: Rc<Vec<NetworkNode<S2C>>>,
        rng: &mut Pcg32,
        book: WaitBook,
        trace: Trace,
    ) -> Server {
        let sys = &cfg.sys;
        let node = NetworkNode::new(
            env,
            "server-cpu",
            sys.n_server_cpus,
            sys.server_mips,
            WaitClass::Cpu,
        );
        let data_disks = DiskArray::new(env, sys, rng);
        let log = LogManager::new(env, sys, rng);
        let mpl = Facility::new(env, "mpl", sys.mpl).with_wait_class(WaitClass::MplGate);
        let state = Rc::new(RefCell::new(ServerState {
            core: ServerCore::new(
                cfg.algorithm,
                cfg.tuning,
                cfg.oracle,
                sys.n_clients,
                sys.lock_shards,
                cfg.db.clone(),
            ),
            buffer: BufferManager::new(sys.buffer_size),
            txns: HashMap::default(),
            grants: HashMap::default(),
        }));
        let server = Server(Rc::new(ServerParts {
            env: env.clone(),
            cfg,
            node,
            client_nodes,
            net,
            data_disks,
            log,
            mpl,
            state,
            book,
            trace,
        }));
        let dispatcher = server.clone();
        env.spawn(async move {
            loop {
                let (from, msg) = dispatcher.node.inbox.recv().await;
                let worker = dispatcher.clone();
                dispatcher.env.spawn(async move {
                    worker.handle(from, msg).await;
                });
            }
        });
        server
    }

    /// The MPL admission facility (reports and sampling).
    pub fn mpl(&self) -> &Facility {
        &self.mpl
    }

    /// Diagnostic dump of stuck transactions (used by the runner when
    /// `CCDB_DEBUG` is set).
    pub fn debug_dump(&self) {
        let state = self.state.borrow();
        eprintln!(
            "server: {} live txns, {} parked grant keys, lock table {} pages",
            state.core.live_txn_count(),
            state.grants.len(),
            state.core.lock_table_len()
        );
        for txn in state.core.live_txns() {
            let (client, ops_resolved, failed, parked) =
                state.core.txn_debug(txn).expect("listed as live");
            let (admitted, commit_waiting) = match state.txns.get(&txn) {
                Some(d) => (d.admitted, d.commit_waiter.is_some()),
                None => (false, false),
            };
            eprintln!(
                "  txn {:?} client {:?} admitted={} ops_resolved={} failed={} commit_waiting={} parked={:?}",
                txn, client, admitted, ops_resolved, failed, commit_waiting, parked
            );
            for page in &parked {
                eprintln!("    {:?}: {}", page, state.core.lock_debug_entry(*page));
            }
        }
    }

    /// Current committed version of a page.
    pub fn version_of(&self, page: PageId) -> u64 {
        self.state.borrow().core.version_of(page)
    }

    fn sys(&self) -> &SystemParams {
        &self.cfg.sys
    }

    fn reply(&self, to: ClientId, op: OpId, kind: ReplyKind) {
        let msg = S2C::Reply { op, kind };
        let bytes = msg.payload_bytes(self.sys().page_size);
        self.net
            .send(&self.node, &self.client_nodes[to.0 as usize], msg, bytes);
    }

    fn send_async(&self, to: ClientId, msg: S2C) {
        let bytes = msg.payload_bytes(self.sys().page_size);
        self.net
            .send(&self.node, &self.client_nodes[to.0 as usize], msg, bytes);
    }

    /// Run `fut` and, when `attr` names a transaction whose client is
    /// blocked on this handler (a synchronous request), charge the elapsed
    /// simulated time to `class` in that transaction's wait ledger.
    /// Asynchronous work passes `None`: it overlaps client execution and
    /// must not be counted as client-visible waiting.
    async fn attributed<F: Future>(
        &self,
        attr: Option<TxnId>,
        class: WaitClass,
        fut: F,
    ) -> F::Output {
        match attr {
            None => fut.await,
            Some(txn) => {
                let t0 = self.env.now();
                let out = fut.await;
                let now = self.env.now();
                self.book.add(txn, class, now.since(t0));
                self.trace.span_txn(txn, class, t0, now);
                out
            }
        }
    }

    async fn handle(&self, from: ClientId, msg: C2S) {
        match msg {
            C2S::LockFetch {
                txn,
                page,
                mode,
                cached_version,
                wait,
                op,
            } => {
                self.handle_lock_fetch(from, txn, page, mode, cached_version, wait, op)
                    .await;
            }
            C2S::Fetch { txn, page, op } => {
                if !self.ensure_admitted(txn, from, Some(txn)).await {
                    self.reply(from, op, ReplyKind::Aborted);
                    return;
                }
                self.ship_page(from, txn, page, op, Some(txn)).await;
                self.resolve_op(txn);
            }
            C2S::CheckVersion {
                txn,
                page,
                version,
                op,
            } => {
                if !self.ensure_admitted(txn, from, Some(txn)).await {
                    self.reply(from, op, ReplyKind::Aborted);
                    return;
                }
                let current = self.state.borrow().core.version_of(page);
                if current == version {
                    self.reply(from, op, ReplyKind::Valid);
                } else {
                    self.ship_page(from, txn, page, op, Some(txn)).await;
                }
                self.resolve_op(txn);
            }
            C2S::Commit {
                txn,
                read_set,
                dirty,
                ops_sent,
                op,
            } => {
                self.handle_commit(from, txn, read_set, dirty, ops_sent, op)
                    .await;
            }
            C2S::CallbackReply {
                page,
                released,
                blocker,
            } => {
                if released {
                    let (wakes, cbs) = {
                        let mut state = self.state.borrow_mut();
                        state.core.release_retained(from, page)
                    };
                    self.process_wakes(wakes, cbs);
                } else {
                    let blocker = blocker.expect("deferred callback names its blocker");
                    let victim = {
                        let mut state = self.state.borrow_mut();
                        state.core.callback_deferred(page, from, blocker)
                    };
                    if let Some(v) = victim {
                        self.abort_txn(v, AbortKind::Deadlock).await;
                    }
                }
            }
            C2S::ReleaseRetained { page } => {
                let (wakes, cbs) = {
                    let mut state = self.state.borrow_mut();
                    state.core.release_retained(from, page)
                };
                self.process_wakes(wakes, cbs);
            }
        }
    }

    /// Register the transaction and hold it at the MPL admission gate until
    /// the server accepts it. Returns `false` if the transaction is already
    /// aborted (straggler message). `attr` attributes the admission wait
    /// (for synchronous requests) to the MPL gate.
    async fn ensure_admitted(&self, txn: TxnId, client: ClientId, attr: Option<TxnId>) -> bool {
        enum Role {
            Ready,
            Creator,
            Waiter(ccdb_des::OneshotReceiver<()>),
            Dead,
        }
        let role = {
            let mut state = self.state.borrow_mut();
            if state.core.is_aborted(txn) {
                Role::Dead
            } else if let Some(entry) = state.txns.get_mut(&txn) {
                if entry.admitted {
                    Role::Ready
                } else {
                    let (tx, rx) = oneshot(&self.env);
                    entry.admission_waiters.push(tx);
                    Role::Waiter(rx)
                }
            } else {
                state.core.register_txn(txn, client);
                state.txns.insert(
                    txn,
                    DriverTxn {
                        admitted: false,
                        admission_waiters: Vec::new(),
                        mpl_guard: None,
                        commit_waiter: None,
                    },
                );
                Role::Creator
            }
        };
        match role {
            Role::Ready => true,
            Role::Dead => false,
            Role::Waiter(rx) => {
                self.attributed(attr, WaitClass::MplGate, rx.wait()).await;
                !self.state.borrow().core.is_aborted(txn)
            }
            Role::Creator => {
                let guard = self
                    .attributed(attr, WaitClass::MplGate, self.mpl.acquire())
                    .await;
                let waiters = {
                    let mut state = self.state.borrow_mut();
                    match state.txns.get_mut(&txn) {
                        Some(entry) => {
                            entry.admitted = true;
                            entry.mpl_guard = Some(guard);
                            std::mem::take(&mut entry.admission_waiters)
                        }
                        // Aborted while waiting for admission.
                        None => Vec::new(),
                    }
                };
                for w in waiters {
                    w.fire(());
                }
                !self.state.borrow().core.is_aborted(txn)
            }
        }
    }

    /// Count one protocol operation of `txn` as resolved and wake a pending
    /// commit that was waiting for it.
    fn resolve_op(&self, txn: TxnId) {
        if trace_txn() == Some(txn) {
            eprintln!("[{}] resolve_op {txn:?}", self.env.now());
        }
        let waiter = {
            let mut state = self.state.borrow_mut();
            if state.core.resolve_op(txn) {
                state
                    .txns
                    .get_mut(&txn)
                    .and_then(|e| e.commit_waiter.take())
            } else {
                None
            }
        };
        if let Some(w) = waiter {
            w.fire(());
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the LockFetch message fields
    async fn handle_lock_fetch(
        &self,
        from: ClientId,
        txn: TxnId,
        page: PageId,
        mode: Mode,
        cached_version: Option<u64>,
        wait: bool,
        op: OpId,
    ) {
        // Only a synchronous request (the client blocks on the reply) has
        // its blocked time attributed; async no-wait requests overlap
        // client execution.
        let attr = wait.then_some(txn);
        if !self.ensure_admitted(txn, from, attr).await {
            if wait {
                self.reply(from, op, ReplyKind::Aborted);
            }
            return;
        }
        let outcome = {
            let mut state = self.state.borrow_mut();
            state.core.request_lock(txn, from, page, mode)
        };
        if trace_txn() == Some(txn) {
            eprintln!(
                "[{}] lockfetch {txn:?} {page:?} {mode:?} wait={wait} v={cached_version:?} -> {outcome:?}",
                self.env.now()
            );
        }
        match outcome {
            ccdb_lock::RequestOutcome::Granted => {}
            ccdb_lock::RequestOutcome::Blocked { callbacks } => {
                for c in callbacks {
                    self.trace
                        .record(self.env.now(), TraceEvent::Callback { client: c, page });
                    self.send_async(c, S2C::Callback { page });
                }
                let (tx, rx) = oneshot(&self.env);
                let shard = {
                    let mut state = self.state.borrow_mut();
                    state.grants.entry((txn, page)).or_default().push_back(tx);
                    state.core.park(txn, page);
                    state.core.shard_of(page)
                };
                let result = self
                    .attributed(attr, WaitClass::LockShard(shard), rx.wait())
                    .await;
                {
                    let mut state = self.state.borrow_mut();
                    state.core.unpark(txn, page);
                }
                if result == GrantResult::Granted {
                    self.trace
                        .record(self.env.now(), TraceEvent::GrantedAfterWait { txn, page });
                }
                if result == GrantResult::Aborted {
                    if wait {
                        self.reply(from, op, ReplyKind::Aborted);
                    }
                    return;
                }
            }
            ccdb_lock::RequestOutcome::Deadlock => {
                // abort_txn notifies the client with a Restart message; a
                // synchronous requester additionally gets its reply.
                self.abort_txn(txn, AbortKind::Deadlock).await;
                if wait {
                    self.reply(from, op, ReplyKind::Aborted);
                }
                return;
            }
        }
        // Lock granted: the core validates the cached version *now* (it
        // may have gone stale while we were blocked).
        let decision = self
            .state
            .borrow()
            .core
            .after_grant(page, cached_version, wait);
        match decision {
            GrantDecision::UseCached => {
                if wait {
                    self.reply(from, op, ReplyKind::Valid);
                }
                self.resolve_op(txn);
            }
            GrantDecision::StaleAbort => {
                // No-wait locking read a stale cached page: abort. The
                // restart message names the page so the client refetches
                // it instead of looping on the same stale copy.
                self.abort_txn_stale(txn, AbortKind::StaleRead, Some(page))
                    .await;
            }
            GrantDecision::Ship => {
                self.ship_page(from, txn, page, op, attr).await;
                self.resolve_op(txn);
            }
        }
    }

    /// Read `page` (buffer or disk), charge per-page CPU, and reply with
    /// the data; records the client in the caching directory.
    async fn ship_page(
        &self,
        to: ClientId,
        _txn: TxnId,
        page: PageId,
        op: OpId,
        attr: Option<TxnId>,
    ) {
        self.read_into_buffer(page, attr).await;
        self.attributed(
            attr,
            WaitClass::Cpu,
            self.node.charge_cpu(self.sys().server_proc_page),
        )
        .await;
        let version = {
            let mut state = self.state.borrow_mut();
            state.core.note_shipped(to, page)
        };
        self.reply(to, op, ReplyKind::PageData { version });
    }

    /// Ensure `page` is resident in the buffer pool, performing the miss
    /// I/O and any eviction write-back.
    async fn read_into_buffer(&self, page: PageId, attr: Option<TxnId>) {
        let (hit, eviction) = {
            let mut state = self.state.borrow_mut();
            if state.buffer.lookup(page) {
                (true, None)
            } else {
                (false, state.buffer.admit(page))
            }
        };
        if hit {
            return;
        }
        if let Some(ev) = eviction {
            if ev.write_back {
                if let Some(t) = ev.uncommitted_of {
                    self.log.note_stolen_flush(t, ev.page);
                }
                self.attributed(
                    attr,
                    WaitClass::Cpu,
                    self.node.charge_cpu(self.sys().init_disk_cost),
                )
                .await;
                self.attributed(
                    attr,
                    WaitClass::DataDisk,
                    self.data_disks
                        .for_class(ev.page.class.0)
                        .access_page(ev.page, self.cfg.db.cluster_factor),
                )
                .await;
            }
        }
        self.attributed(
            attr,
            WaitClass::Cpu,
            self.node.charge_cpu(self.sys().init_disk_cost),
        )
        .await;
        self.attributed(
            attr,
            WaitClass::DataDisk,
            self.data_disks
                .for_class(page.class.0)
                .access_page(page, self.cfg.db.cluster_factor),
        )
        .await;
    }

    /// Install one updated page received from a client into the buffer.
    async fn install_update(&self, page: PageId, txn: TxnId, attr: Option<TxnId>) {
        self.attributed(
            attr,
            WaitClass::Cpu,
            self.node.charge_cpu(self.sys().server_proc_page),
        )
        .await;
        let eviction = {
            let mut state = self.state.borrow_mut();
            let ev = state.buffer.admit(page);
            state.buffer.mark_dirty(page, Some(txn.0));
            ev
        };
        if let Some(ev) = eviction {
            if ev.write_back {
                if let Some(t) = ev.uncommitted_of {
                    self.log.note_stolen_flush(t, ev.page);
                }
                self.attributed(
                    attr,
                    WaitClass::Cpu,
                    self.node.charge_cpu(self.sys().init_disk_cost),
                )
                .await;
                self.attributed(
                    attr,
                    WaitClass::DataDisk,
                    self.data_disks
                        .for_class(ev.page.class.0)
                        .access_page(ev.page, self.cfg.db.cluster_factor),
                )
                .await;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    async fn handle_commit(
        &self,
        from: ClientId,
        txn: TxnId,
        read_set: Vec<(PageId, u64)>,
        dirty: Vec<PageId>,
        ops_sent: u32,
        op: OpId,
    ) {
        if !self.ensure_admitted(txn, from, Some(txn)).await {
            self.reply(from, op, ReplyKind::Aborted);
            return;
        }
        if trace_txn() == Some(txn) {
            eprintln!(
                "[{}] commit arrives {txn:?} ops_sent={ops_sent} dirty={}",
                self.env.now(),
                dirty.len()
            );
        }
        // Wait until every protocol op the client issued has been resolved
        // (no-wait locking: async lock requests may still be queued).
        loop {
            let wait = {
                let mut state = self.state.borrow_mut();
                if state.core.commit_ready(txn, ops_sent) {
                    None
                } else {
                    let (tx, rx) = oneshot(&self.env);
                    if let Some(entry) = state.txns.get_mut(&txn) {
                        entry.commit_waiter = Some(tx);
                    }
                    // An unresolved op is either parked on a lock (attribute
                    // to that page's shard; the smallest parked page for
                    // determinism) or still in flight (attribute to the
                    // network).
                    let class = state
                        .core
                        .min_parked(txn)
                        .map(|p| WaitClass::LockShard(state.core.shard_of(p)))
                        .unwrap_or(WaitClass::Network);
                    Some((rx, class))
                }
            };
            match wait {
                Some((rx, class)) => {
                    self.attributed(Some(txn), class, rx.wait()).await;
                }
                None => break,
            }
        }
        let failed = self.state.borrow().core.commit_doomed(txn);
        if failed {
            self.cleanup_txn(txn);
            self.reply(from, op, ReplyKind::Aborted);
            return;
        }

        // Certification: the core validates the read set against committed
        // versions and — atomically with the validation — bumps the written
        // pages' versions. The version bump IS the logical commit point: a
        // concurrent certifier that read any of these pages will now fail
        // its own validation instead of silently losing an update. The
        // data movement and log force follow; the client sees the commit
        // only after the force completes. (For the locking family the same
        // call runs the serializability oracle instead.)
        let new_version = ServerCore::commit_version(txn);
        let valid = {
            let mut state = self.state.borrow_mut();
            state.core.validate_commit(txn, &read_set, &dirty)
        };
        if !valid {
            self.cleanup_txn(txn);
            self.reply(from, op, ReplyKind::Aborted);
            return;
        }

        // Install updates (charges ServerProcPage per page + buffer I/O).
        for &page in &dirty {
            self.install_update(page, txn, Some(txn)).await;
        }
        // Force the log.
        self.attributed(
            Some(txn),
            WaitClass::LogDisk,
            self.log.force_commit(txn.0, dirty.len() as u64),
        )
        .await;
        // Bump versions (already done at the validation point for
        // certification); committed frames become anonymous dirty frames.
        {
            let mut state = self.state.borrow_mut();
            state.buffer.commit_txn(txn.0);
            state.core.publish_versions(txn, &dirty);
        }
        // Release locks (callback locking retains them as read locks, or
        // as read+write locks under the write-retention variant).
        if trace_txn() == Some(txn) {
            eprintln!("[{}] commit release_all {txn:?}", self.env.now());
        }
        let (wakes, cbs) = {
            let mut state = self.state.borrow_mut();
            state.core.release_commit_locks(txn, from)
        };
        self.process_wakes(wakes, cbs);

        // Notification: push the new pages to every other caching client.
        if self.state.borrow().core.should_push_updates(&dirty) {
            self.push_updates(from, &dirty, new_version, Some(txn))
                .await;
        }

        self.cleanup_txn(txn);
        self.reply(from, op, ReplyKind::Committed { new_version });
    }

    /// Ship the updated pages to every other caching client, per the
    /// core's notification plan (batched per client, deterministic order).
    async fn push_updates(
        &self,
        committer: ClientId,
        dirty: &[PageId],
        version: u64,
        attr: Option<TxnId>,
    ) {
        let targets = self.state.borrow().core.notification_plan(committer, dirty);
        let invalidate = self.cfg.tuning.notify_invalidate;
        for (client, pages) in targets {
            self.trace.record(
                self.env.now(),
                TraceEvent::UpdatePush {
                    client,
                    pages: pages.len(),
                    invalidate,
                },
            );
            if invalidate {
                // Invalidation variant: a small control message, no page
                // contents and no per-page processing cost.
                self.send_async(client, S2C::Invalidate { pages });
            } else {
                // Server CPU per page pushed (it is "sent to a client").
                self.attributed(
                    attr,
                    WaitClass::Cpu,
                    self.node
                        .charge_cpu(self.sys().server_proc_page * pages.len() as u64),
                )
                .await;
                self.send_async(client, S2C::Update { pages, version });
            }
        }
    }

    /// Server-side transaction abort: drop locks and queued requests, wake
    /// parked handlers with `Aborted`, undo buffered updates, charge undo
    /// I/O for stolen flushes, free the MPL slot.
    pub async fn abort_txn(&self, txn: TxnId, why: AbortKind) {
        self.abort_txn_stale(txn, why, None).await;
    }

    /// [`Server::abort_txn`] naming the stale page that triggered the
    /// abort, so the client can invalidate it before restarting.
    pub async fn abort_txn_stale(&self, txn: TxnId, why: AbortKind, stale_page: Option<PageId>) {
        if trace_txn() == Some(txn) {
            eprintln!(
                "[{}] abort_txn {txn:?} why={why:?} stale={stale_page:?}",
                self.env.now()
            );
        }
        let (client, wakes, cbs, parked_signals, commit_waiter) = {
            let mut state = self.state.borrow_mut();
            let outcome = match state.core.abort_txn(txn) {
                // Unknown or already aborted (the core keeps the mark so
                // straggler messages are dropped).
                None => return,
                Some(out) => out,
            };
            let mut signals = Vec::new();
            for p in &outcome.parked {
                if let Some(q) = state.grants.remove(&(txn, *p)) {
                    signals.extend(q);
                }
            }
            let commit_waiter = state
                .txns
                .get_mut(&txn)
                .and_then(|e| e.commit_waiter.take());
            state.buffer.abort_txn(txn.0);
            (
                outcome.client,
                outcome.wakes,
                outcome.callbacks,
                signals,
                commit_waiter,
            )
        };
        self.send_async(
            client,
            S2C::Restart {
                txn,
                kind: why,
                stale_page,
            },
        );
        self.process_wakes(wakes, cbs);
        for s in parked_signals {
            s.fire(GrantResult::Aborted);
        }
        if let Some(w) = commit_waiter {
            w.fire(());
        }
        // Undo I/O for stolen flushes: read the log, rewrite before-images.
        let undo_pages = self.log.process_abort(txn.0).await;
        for page in undo_pages {
            self.node.charge_cpu(self.sys().init_disk_cost).await;
            self.data_disks
                .for_class(page.class.0)
                .access_page(page, self.cfg.db.cluster_factor)
                .await;
        }
        self.cleanup_txn(txn);
    }

    /// Drop the transaction entry, releasing its MPL slot. Any handlers
    /// still waiting for admission are released (they re-check the aborted
    /// set and bail out).
    fn cleanup_txn(&self, txn: TxnId) {
        if trace_txn() == Some(txn) {
            eprintln!("[{}] cleanup {txn:?}", self.env.now());
        }
        let (guard, waiters) = {
            let mut state = self.state.borrow_mut();
            state.core.forget_txn(txn);
            match state.txns.remove(&txn) {
                Some(mut e) => (e.mpl_guard.take(), std::mem::take(&mut e.admission_waiters)),
                None => (None, Vec::new()),
            }
        };
        for w in waiters {
            w.fire(());
        }
        drop(guard); // admits the next transaction, if any is waiting
    }

    /// Fire grant signals and issue callbacks produced by a lock-manager
    /// release.
    fn process_wakes(&self, wakes: Vec<Wake>, callbacks: Vec<(ClientId, PageId)>) {
        for w in wakes {
            let signal = {
                let mut state = self.state.borrow_mut();
                match state.grants.get_mut(&(w.txn, w.page)) {
                    Some(q) => {
                        let tx = q.pop_front();
                        if q.is_empty() {
                            state.grants.remove(&(w.txn, w.page));
                        }
                        tx
                    }
                    None => None,
                }
            };
            if let Some(tx) = signal {
                tx.fire(GrantResult::Granted);
            }
        }
        for (client, page) in callbacks {
            self.trace
                .record(self.env.now(), TraceEvent::Callback { client, page });
            self.send_async(client, S2C::Callback { page });
        }
    }
}
