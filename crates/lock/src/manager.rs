//! Lock table, wait queues, retained locks, and deadlock detection.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ccdb_model::{FxHashMap as HashMap, FxHashSet as HashSet};

use ccdb_model::PageId;

/// Global transaction identifier (unique across clients and restarts).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxnId(pub u64);

/// Client workstation identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClientId(pub u32);

/// Lock mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Shared (read) lock.
    S,
    /// Exclusive (write) lock.
    X,
}

impl Mode {
    fn compatible(self, other: Mode) -> bool {
        matches!((self, other), (Mode::S, Mode::S))
    }
}

/// Who holds a granted lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Owner {
    /// An active transaction (released at transaction end).
    Txn(TxnId),
    /// A client-retained read lock (callback locking; survives commits).
    Retained(ClientId),
}

#[derive(Clone, Debug)]
struct Holder {
    owner: Owner,
    mode: Mode,
}

#[derive(Clone, Debug)]
struct WaitReq {
    txn: TxnId,
    client: ClientId,
    mode: Mode,
    /// Upgrade from an S lock this transaction already holds.
    upgrade: bool,
}

#[derive(Default, Debug)]
struct Entry {
    holders: Vec<Holder>,
    queue: VecDeque<WaitReq>,
    /// Retained holders that have been sent a callback and have not yet
    /// released.
    callbacks_outstanding: HashSet<ClientId>,
}

impl Entry {
    fn is_empty(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty() && self.callbacks_outstanding.is_empty()
    }

    fn txn_mode(&self, txn: TxnId) -> Option<Mode> {
        self.holders.iter().find_map(|h| match h.owner {
            Owner::Txn(t) if t == txn => Some(h.mode),
            _ => None,
        })
    }

    fn has_retained(&self, client: ClientId) -> bool {
        self.holders
            .iter()
            .any(|h| h.owner == Owner::Retained(client))
    }

    fn retained_clients(&self) -> Vec<ClientId> {
        self.holders
            .iter()
            .filter_map(|h| match h.owner {
                Owner::Retained(c) => Some(c),
                _ => None,
            })
            .collect()
    }
}

/// Outcome of a lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request is queued. `callbacks` lists clients whose retained
    /// locks conflict and must be asked to release (callback locking);
    /// empty for ordinary transaction-lock conflicts.
    Blocked {
        /// Clients to send callback messages to.
        callbacks: Vec<ClientId>,
    },
    /// Granting would close a wait-for cycle: the requester must abort.
    Deadlock,
}

/// Outcome of [`LockManager::enqueue_request`]: the first phase of a
/// request, before any deadlock check has run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EnqueueOutcome {
    /// Granted immediately.
    Granted,
    /// Queued; `upgrade` records where in the queue it sits (front).
    Queued {
        /// The queued request is an upgrade from a held S lock.
        upgrade: bool,
    },
}

/// A grant produced by a release: transaction `txn` now holds its requested
/// lock on `page` and its parked handler should resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wake {
    /// The granted transaction.
    pub txn: TxnId,
    /// The page it was waiting on.
    pub page: PageId,
}

/// What happens to a committing transaction's locks (callback locking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainPolicy {
    /// Drop everything (two-phase / no-wait locking, and every abort).
    Drop,
    /// Retain all locks as client read locks (the paper's callback
    /// locking: write locks are demoted to read locks).
    Read(ClientId),
    /// Retain read locks as read locks and write locks as write locks
    /// (the variant §2.3 considers and declines).
    ReadWrite(ClientId),
}

/// Counters for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Total lock requests (including re-requests after restart).
    pub requests: u64,
    /// Requests that blocked.
    pub blocks: u64,
    /// Requests refused because of deadlock.
    pub deadlocks: u64,
    /// Callback messages requested.
    pub callbacks: u64,
}

/// The lock manager. See the crate docs for the protocol.
///
/// ```
/// use ccdb_lock::{LockManager, Mode, RequestOutcome, TxnId, ClientId};
/// use ccdb_model::{ClassId, PageId};
///
/// let mut lm = LockManager::new();
/// let page = PageId { class: ClassId(0), atom: 7 };
///
/// // Reader and writer conflict; the writer queues FCFS.
/// assert_eq!(lm.request(TxnId(1), ClientId(0), page, Mode::S), RequestOutcome::Granted);
/// assert!(matches!(
///     lm.request(TxnId(2), ClientId(1), page, Mode::X),
///     RequestOutcome::Blocked { .. }
/// ));
///
/// // Committing the reader with retention (callback locking) leaves a
/// // client-owned read lock, so the writer now needs a callback.
/// let (wakes, callbacks) = lm.release_all(TxnId(1), Some(ClientId(0)));
/// assert!(wakes.is_empty());
/// assert_eq!(callbacks, vec![(ClientId(0), page)]);
///
/// // The client honours the callback; the writer is granted.
/// let (wakes, _) = lm.release_retained(ClientId(0), page);
/// assert_eq!(wakes[0].txn, TxnId(2));
/// ```
#[derive(Default, Debug)]
pub struct LockManager {
    table: HashMap<PageId, Entry>,
    /// Pages on which each transaction holds a granted lock. Ordered so
    /// release order — and therefore simulation event order — is
    /// deterministic.
    held: HashMap<TxnId, BTreeSet<PageId>>,
    /// Queued requests of each transaction, as a page -> count multiset: a
    /// no-wait transaction can have an S and an X request queued on the
    /// same page simultaneously. (Ordered for deterministic iteration.)
    waiting: HashMap<TxnId, BTreeMap<PageId, u32>>,
    /// Pages each client retains read locks on.
    retained_by: HashMap<ClientId, BTreeSet<PageId>>,
    /// Deferred callback promises: (page, client) will release when `TxnId`
    /// (the client's current transaction) terminates.
    deferred: HashMap<(PageId, ClientId), TxnId>,
    /// Pages each transaction has passed to `enqueue_request`: the only
    /// pages whose entries can name it (see [`LockManager::forget_txn`]).
    requested: HashMap<TxnId, Vec<PageId>>,
    stats: LockStats,
}

impl LockManager {
    /// An empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics counters.
    pub fn stats(&self) -> LockStats {
        self.stats
    }

    /// Mode held by `txn` on `page`, if any.
    pub fn holds(&self, txn: TxnId, page: PageId) -> Option<Mode> {
        self.table.get(&page).and_then(|e| e.txn_mode(txn))
    }

    /// Mode of the lock `client` retains on `page`, if any.
    pub fn retained_mode(&self, client: ClientId, page: PageId) -> Option<Mode> {
        self.table.get(&page).and_then(|e| {
            e.holders.iter().find_map(|h| match h.owner {
                Owner::Retained(c) if c == client => Some(h.mode),
                _ => None,
            })
        })
    }

    /// True if `client` retains a read lock on `page`.
    pub fn has_retained(&self, client: ClientId, page: PageId) -> bool {
        self.table
            .get(&page)
            .map(|e| e.has_retained(client))
            .unwrap_or(false)
    }

    /// Number of pages with any lock state (table size).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Transactions currently blocked on at least one lock (sampling
    /// gauge: the paper's blocked-transaction count).
    pub fn blocked_txn_count(&self) -> usize {
        self.waiting.len()
    }

    /// The blocked transactions themselves (the sharded facade dedups
    /// these across shards).
    pub(crate) fn blocked_txns(&self) -> Vec<TxnId> {
        self.waiting.keys().copied().collect()
    }

    /// Pages retained by a client (for tests / reports).
    pub fn retained_pages(&self, client: ClientId) -> Vec<PageId> {
        self.retained_by
            .get(&client)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Request `mode` on `page` for transaction `txn` of `client`.
    ///
    /// A transaction's own client's retained read lock never conflicts with
    /// it and is *absorbed* (replaced by the transaction lock) on grant.
    /// Re-requesting a mode already held (or requesting S while holding X)
    /// is granted immediately.
    pub fn request(
        &mut self,
        txn: TxnId,
        client: ClientId,
        page: PageId,
        mode: Mode,
    ) -> RequestOutcome {
        match self.enqueue_request(txn, client, page, mode) {
            EnqueueOutcome::Granted => RequestOutcome::Granted,
            EnqueueOutcome::Queued { upgrade } => {
                if self.wait_cycle_through(txn) {
                    self.withdraw_just_queued(txn, page, upgrade);
                    return RequestOutcome::Deadlock;
                }
                RequestOutcome::Blocked {
                    callbacks: self.blocked_callbacks(page, client, mode),
                }
            }
        }
    }

    /// First phase of [`LockManager::request`]: grant immediately if
    /// possible, otherwise enqueue the wait request. The deadlock check is
    /// left to the caller so a sharded facade can run it over the *global*
    /// wait-for graph.
    pub(crate) fn enqueue_request(
        &mut self,
        txn: TxnId,
        client: ClientId,
        page: PageId,
        mode: Mode,
    ) -> EnqueueOutcome {
        self.stats.requests += 1;
        let entry = self.table.entry(page).or_default();

        // Already held strongly enough? (The holder came from an earlier
        // request, so the page is already recorded.)
        match entry.txn_mode(txn) {
            Some(Mode::X) => return EnqueueOutcome::Granted,
            Some(Mode::S) if mode == Mode::S => return EnqueueOutcome::Granted,
            _ => {}
        }
        self.requested.entry(txn).or_default().push(page);
        let upgrade = entry.txn_mode(txn) == Some(Mode::S) && mode == Mode::X;

        if Self::grantable(entry, txn, client, mode, upgrade) && (upgrade || entry.queue.is_empty())
        {
            Self::install(entry, txn, client, mode, upgrade);
            self.held.entry(txn).or_default().insert(page);
            self.absorb_retained(page, client);
            return EnqueueOutcome::Granted;
        }

        // Must wait: queue the request (upgrades go to the front).
        let req = WaitReq {
            txn,
            client,
            mode,
            upgrade,
        };
        let entry = self.table.get_mut(&page).expect("entry exists");
        if upgrade {
            entry.queue.push_front(req);
        } else {
            entry.queue.push_back(req);
        }
        *self
            .waiting
            .entry(txn)
            .or_default()
            .entry(page)
            .or_insert(0) += 1;
        EnqueueOutcome::Queued { upgrade }
    }

    /// Withdraw exactly the request just queued (front for an upgrade,
    /// back otherwise) because granting it would deadlock; the caller
    /// aborts the transaction.
    pub(crate) fn withdraw_just_queued(&mut self, txn: TxnId, page: PageId, upgrade: bool) {
        let entry = self.table.get_mut(&page).expect("entry exists");
        if upgrade {
            entry.queue.pop_front();
        } else {
            entry.queue.pop_back();
        }
        self.note_dequeued(txn, page);
        self.stats.deadlocks += 1;
    }

    /// Final phase of a blocked request: issue callbacks for conflicting
    /// retained holders not yet asked. (With the paper's read-only
    /// retention this can only be an X request meeting retained S locks;
    /// with write retention an S request can also conflict with a retained
    /// X.)
    pub(crate) fn blocked_callbacks(
        &mut self,
        page: PageId,
        client: ClientId,
        mode: Mode,
    ) -> Vec<ClientId> {
        let entry = self.table.get_mut(&page).expect("entry exists");
        let mut callbacks = Vec::new();
        let conflicting: Vec<ClientId> = entry
            .holders
            .iter()
            .filter_map(|h| match h.owner {
                Owner::Retained(c) if c != client && !h.mode.compatible(mode) => Some(c),
                _ => None,
            })
            .collect();
        for c in conflicting {
            if !entry.callbacks_outstanding.contains(&c) {
                entry.callbacks_outstanding.insert(c);
                callbacks.push(c);
            }
        }
        self.stats.blocks += 1;
        self.stats.callbacks += callbacks.len() as u64;
        callbacks
    }

    /// Can (txn, mode) be granted given current holders? Ignores the queue.
    fn grantable(entry: &Entry, txn: TxnId, client: ClientId, mode: Mode, upgrade: bool) -> bool {
        entry.holders.iter().all(|h| match h.owner {
            Owner::Txn(t) => {
                if t == txn {
                    // Own S holder is compatible only in the upgrade path.
                    upgrade
                } else {
                    h.mode.compatible(mode)
                }
            }
            Owner::Retained(c) => c == client || h.mode.compatible(mode),
        })
    }

    fn install(entry: &mut Entry, txn: TxnId, _client: ClientId, mode: Mode, upgrade: bool) {
        if upgrade {
            for h in &mut entry.holders {
                if h.owner == Owner::Txn(txn) {
                    h.mode = Mode::X;
                    return;
                }
            }
            unreachable!("upgrade without S holder");
        }
        entry.holders.push(Holder {
            owner: Owner::Txn(txn),
            mode,
        });
    }

    /// Remove the client's own retained holder once its transaction holds a
    /// transaction lock on the page.
    fn absorb_retained(&mut self, page: PageId, client: ClientId) {
        if let Some(entry) = self.table.get_mut(&page) {
            let before = entry.holders.len();
            entry.holders.retain(|h| h.owner != Owner::Retained(client));
            if entry.holders.len() != before {
                if let Some(set) = self.retained_by.get_mut(&client) {
                    set.remove(&page);
                }
            }
        }
    }

    /// Release every lock of `txn`. If `retain_for` is given (callback
    /// locking), the transaction's locks are demoted to retained read locks
    /// of that client instead of vanishing. Returns the grants this
    /// enables, plus callbacks that newly-retained locks must now receive
    /// (an X waiter was queued behind the demoted lock).
    pub fn release_all(
        &mut self,
        txn: TxnId,
        retain_for: Option<ClientId>,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let policy = match retain_for {
            Some(c) => RetainPolicy::Read(c),
            None => RetainPolicy::Drop,
        };
        self.release_all_policy(txn, policy)
    }

    /// [`LockManager::release_all`] with an explicit retention policy.
    pub fn release_all_policy(
        &mut self,
        txn: TxnId,
        policy: RetainPolicy,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let pages = self.take_held(txn);
        let mut wakes = Vec::new();
        let mut callbacks = Vec::new();
        for page in pages {
            let (w, cb) = self.release_one_page(txn, page, policy);
            wakes.extend(w);
            callbacks.extend(cb);
        }
        (wakes, callbacks)
    }

    /// Drain the set of pages `txn` holds granted locks on, in page order
    /// (the order releases — and therefore simulation events — happen in).
    pub(crate) fn take_held(&mut self, txn: TxnId) -> Vec<PageId> {
        self.held
            .remove(&txn)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default()
    }

    /// Release `txn`'s granted lock on one `page` (taken from
    /// [`LockManager::take_held`]) under `policy`, then grant whatever the
    /// release enables. A sharded facade drives this page by page so the
    /// grant order stays the global page order regardless of sharding.
    pub(crate) fn release_one_page(
        &mut self,
        txn: TxnId,
        page: PageId,
        policy: RetainPolicy,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let entry = self.table.get_mut(&page).expect("held page has entry");
        match policy {
            RetainPolicy::Read(client) | RetainPolicy::ReadWrite(client) => {
                let keep_mode = matches!(policy, RetainPolicy::ReadWrite(_));
                for h in &mut entry.holders {
                    if h.owner == Owner::Txn(txn) {
                        h.owner = Owner::Retained(client);
                        if !keep_mode {
                            h.mode = Mode::S;
                        }
                    }
                }
                // Collapse duplicate retained holders (txn lock absorbed
                // an earlier retained one and is now demoted back);
                // keep the stronger mode.
                entry.holders.sort_by_key(|h| match (h.owner, h.mode) {
                    (Owner::Retained(_), Mode::X) => 0u8,
                    _ => 1,
                });
                let mut seen = HashSet::default();
                entry.holders.retain(|h| match h.owner {
                    Owner::Retained(c) => seen.insert(c),
                    Owner::Txn(_) => true,
                });
                self.retained_by.entry(client).or_default().insert(page);
            }
            RetainPolicy::Drop => {
                entry.holders.retain(|h| h.owner != Owner::Txn(txn));
            }
        }
        self.clear_deferred_of(txn);
        self.try_grant(page)
    }

    /// Drop the wait-for edges of deferred callbacks promised "release when
    /// `txn` ends" — `txn` has ended. The actual lock release is performed
    /// by the *client* in the full protocol (a message round), so here we
    /// only keep the bookkeeping consistent; ccdb-core calls
    /// `release_retained` when the client's release message arrives.
    pub(crate) fn clear_deferred_of(&mut self, txn: TxnId) {
        self.deferred.retain(|_, t| *t != txn);
    }

    /// Withdraw every queued request of `txn` (a page can carry several:
    /// an S and an X of the same no-wait transaction).
    pub(crate) fn withdraw_queued_requests(&mut self, txn: TxnId) {
        if let Some(pages) = self.waiting.remove(&txn) {
            for page in pages.keys() {
                if let Some(entry) = self.table.get_mut(page) {
                    entry.queue.retain(|r| r.txn != txn);
                }
            }
        }
    }

    /// Abort `txn`: drop held locks (no retention) and queued requests.
    /// Returns grants enabled by the release.
    pub fn abort(&mut self, txn: TxnId) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        self.withdraw_queued_requests(txn);
        self.release_all(txn, None)
    }

    /// A client released a retained read lock (callback honoured, or a
    /// clean cached page with a lock was evicted). Returns enabled grants
    /// and any further callbacks the new queue head needs.
    pub fn release_retained(
        &mut self,
        client: ClientId,
        page: PageId,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        if let Some(set) = self.retained_by.get_mut(&client) {
            set.remove(&page);
        }
        self.deferred.remove(&(page, client));
        let Some(entry) = self.table.get_mut(&page) else {
            return (Vec::new(), Vec::new());
        };
        entry.holders.retain(|h| h.owner != Owner::Retained(client));
        entry.callbacks_outstanding.remove(&client);
        let out = self.try_grant(page);
        if let Some(e) = self.table.get(&page) {
            if e.is_empty() {
                self.table.remove(&page);
            }
        }
        out
    }

    /// A client answered a callback with "in use by my current transaction
    /// `blocker`; will release when it ends". Inserts the wait-for edges;
    /// if that closes a cycle, returns a victim (a waiter on this page)
    /// that must be aborted to break the deadlock.
    pub fn callback_deferred(
        &mut self,
        page: PageId,
        client: ClientId,
        blocker: TxnId,
    ) -> Option<TxnId> {
        self.insert_deferred(page, client, blocker);
        // Any X waiter on this page now (transitively) waits for `blocker`.
        self.page_waiters(page)
            .into_iter()
            .find(|&w| self.wait_cycle_through(w))
    }

    /// Record the deferred-callback promise (page, client) → `blocker`
    /// without the cycle check (the sharded facade checks globally).
    pub(crate) fn insert_deferred(&mut self, page: PageId, client: ClientId, blocker: TxnId) {
        self.deferred.insert((page, client), blocker);
    }

    /// Transactions queued on `page`, in queue order.
    pub(crate) fn page_waiters(&self, page: PageId) -> Vec<TxnId> {
        self.table
            .get(&page)
            .map(|e| e.queue.iter().map(|r| r.txn).collect())
            .unwrap_or_default()
    }

    /// Retained holders of a page (tests / server directory cross-checks).
    pub fn retained_holders(&self, page: PageId) -> Vec<ClientId> {
        self.table
            .get(&page)
            .map(|e| e.retained_clients())
            .unwrap_or_default()
    }

    /// One queued request of `txn` on `page` left the queue: decrement the
    /// waiting multiset.
    fn note_dequeued(&mut self, txn: TxnId, page: PageId) {
        if let Some(set) = self.waiting.get_mut(&txn) {
            if let Some(count) = set.get_mut(&page) {
                *count -= 1;
                if *count == 0 {
                    set.remove(&page);
                }
            }
            if set.is_empty() {
                self.waiting.remove(&txn);
            }
        }
    }

    /// Grant queued requests that have become compatible, FCFS with shared
    /// batching. Returns grants plus callbacks required because the new
    /// queue head conflicts with retained locks.
    fn try_grant(&mut self, page: PageId) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let mut wakes = Vec::new();
        let mut callbacks = Vec::new();
        #[allow(clippy::while_let_loop)] // multiple break sites below
        loop {
            let Some(entry) = self.table.get_mut(&page) else {
                break;
            };
            let Some(head) = entry.queue.front().cloned() else {
                break;
            };
            // A queued X whose transaction has meanwhile been granted S on
            // this page (no-wait sends S then X asynchronously) is an
            // upgrade even though it was not one when it was queued.
            let upgrade =
                head.upgrade || (head.mode == Mode::X && entry.txn_mode(head.txn) == Some(Mode::S));
            if Self::grantable(entry, head.txn, head.client, head.mode, upgrade) {
                entry.queue.pop_front();
                Self::install(entry, head.txn, head.client, head.mode, upgrade);
                self.held.entry(head.txn).or_default().insert(page);
                self.note_dequeued(head.txn, page);
                self.absorb_retained(page, head.client);
                wakes.push(Wake {
                    txn: head.txn,
                    page,
                });
                continue;
            }
            // Head still blocked; if retained locks stand in the way and
            // no callback is outstanding yet, the caller must issue one
            // (this happens when a commit demotes locks to retained).
            let pending: Vec<ClientId> = entry
                .holders
                .iter()
                .filter_map(|h| match h.owner {
                    Owner::Retained(c)
                        if c != head.client
                            && !h.mode.compatible(head.mode)
                            && !entry.callbacks_outstanding.contains(&c) =>
                    {
                        Some(c)
                    }
                    _ => None,
                })
                .collect();
            for c in pending {
                entry.callbacks_outstanding.insert(c);
                self.stats.callbacks += 1;
                callbacks.push((c, page));
            }
            break;
        }
        if let Some(e) = self.table.get(&page) {
            if e.is_empty() {
                self.table.remove(&page);
            }
        }
        (wakes, callbacks)
    }

    // ---- Deadlock detection -------------------------------------------

    /// True if `start` is on a wait-for cycle in the graph derived from the
    /// lock table plus deferred-callback promises.
    fn wait_cycle_through(&self, start: TxnId) -> bool {
        // Iterative DFS from `start`; cycle iff we can reach `start` again.
        let mut stack: Vec<TxnId> = self.wait_targets(start);
        let mut visited: HashSet<TxnId> = HashSet::default();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if visited.insert(t) {
                stack.extend(self.wait_targets(t));
            }
        }
        false
    }

    /// Transactions that `txn` directly waits for (one shard's edges; the
    /// sharded facade unions these across shards for global detection).
    pub(crate) fn wait_targets(&self, txn: TxnId) -> Vec<TxnId> {
        let mut out = Vec::new();
        let Some(pages) = self.waiting.get(&txn) else {
            return out;
        };
        for &page in pages.keys() {
            let Some(entry) = self.table.get(&page) else {
                continue;
            };
            // The transaction may have several requests queued on this
            // page (no-wait: S then X); each contributes edges.
            for (idx, me) in entry.queue.iter().enumerate() {
                if me.txn != txn {
                    continue;
                }
                // Conflicting current holders.
                for h in &entry.holders {
                    match h.owner {
                        Owner::Txn(t) if t != txn && !(h.mode.compatible(me.mode)) => out.push(t),
                        Owner::Retained(c) if c != me.client && !h.mode.compatible(me.mode) => {
                            // Only a deferred promise creates a real edge;
                            // an un-answered callback is a transient wait.
                            if let Some(&blocker) = self.deferred.get(&(page, c)) {
                                out.push(blocker);
                            }
                        }
                        _ => {}
                    }
                }
                // Conflicting waiters ahead in the queue (they will be
                // granted before us).
                for r in entry.queue.iter().take(idx) {
                    if r.txn != txn && !r.mode.compatible(me.mode) {
                        out.push(r.txn);
                    }
                }
            }
        }
        out
    }

    /// Drop `txn`'s record of requested pages; call it once the
    /// transaction has ended (committed or aborted, every lock released).
    /// The record is dropped either way, so nothing here grows with the
    /// number of transactions.
    ///
    /// With `check` (the simulator's oracle) it first asserts — in release
    /// builds too — that `txn` left nothing behind: no holder and no queued
    /// request on any page it requested, and no `held` or `waiting` entry.
    /// Scanning only those pages is complete: a transaction can appear in a
    /// lock entry only on a page it passed to `enqueue_request`, the one
    /// place a queue entry or an [`Owner::Txn`] holder is created, and a
    /// grant only promotes a queue head on its own page. Debug builds
    /// re-verify that with a scan of the whole table.
    pub fn forget_txn(&mut self, txn: TxnId, check: bool) {
        let pages = self.requested.remove(&txn);
        if !check {
            return;
        }
        for page in pages.iter().flatten() {
            if let Some(entry) = self.table.get(page) {
                Self::assert_entry_free_of(entry, txn, *page);
            }
        }
        self.assert_maps_free_of(txn);
        #[cfg(debug_assertions)]
        self.assert_txn_gone(txn);
    }

    /// Assert that `txn` holds no locks and has no queued requests
    /// anywhere in the table. This scans every entry, so its cost grows
    /// with the table (under callback locking, every retained lock of
    /// every client); [`LockManager::forget_txn`] checks the same thing
    /// over the transaction's own pages and runs this scan as a cross-check
    /// in debug builds only.
    #[cfg(debug_assertions)]
    fn assert_txn_gone(&self, txn: TxnId) {
        for (page, entry) in &self.table {
            Self::assert_entry_free_of(entry, txn, *page);
        }
        self.assert_maps_free_of(txn);
    }

    fn assert_entry_free_of(entry: &Entry, txn: TxnId, page: PageId) {
        for h in &entry.holders {
            assert!(
                h.owner != Owner::Txn(txn),
                "lock leak: {txn:?} still holds {:?} on {page:?}",
                h.mode
            );
        }
        for r in &entry.queue {
            assert!(r.txn != txn, "queue leak: {txn:?} still queued on {page:?}");
        }
    }

    fn assert_maps_free_of(&self, txn: TxnId) {
        assert!(!self.held.contains_key(&txn), "held-map leak for {txn:?}");
        assert!(
            !self.waiting.contains_key(&txn),
            "waiting-map leak for {txn:?}"
        );
    }

    /// Human-readable dump of one page's lock entry (diagnostics).
    pub fn debug_entry(&self, page: PageId) -> String {
        match self.table.get(&page) {
            None => "<no entry>".to_string(),
            Some(e) => format!(
                "holders={:?} queue={:?} callbacks_outstanding={:?}",
                e.holders
                    .iter()
                    .map(|h| format!("{:?}:{:?}", h.owner, h.mode))
                    .collect::<Vec<_>>(),
                e.queue
                    .iter()
                    .map(|r| format!(
                        "{:?}:{:?}{}",
                        r.txn,
                        r.mode,
                        if r.upgrade { "^" } else { "" }
                    ))
                    .collect::<Vec<_>>(),
                e.callbacks_outstanding
            ),
        }
    }

    /// Consistency check used by tests: no two incompatible granted locks
    /// coexist on any page (a client's retained S never conflicts with its
    /// own transaction's lock because it is absorbed on grant).
    pub fn assert_consistent(&self) {
        for (page, entry) in &self.table {
            for (i, a) in entry.holders.iter().enumerate() {
                for b in entry.holders.iter().skip(i + 1) {
                    let ok = a.mode.compatible(b.mode)
                        || match (a.owner, b.owner) {
                            (Owner::Retained(c1), Owner::Retained(c2)) => c1 == c2,
                            _ => false,
                        };
                    assert!(ok, "incompatible holders on {page:?}: {a:?} vs {b:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_model::ClassId;

    fn page(n: u32) -> PageId {
        PageId {
            class: ClassId(0),
            atom: n,
        }
    }

    #[test]
    fn forget_txn_drops_the_page_record_with_or_without_the_check() {
        let mut lm = LockManager::new();
        for (txn, check) in [(TxnId(1), false), (TxnId(2), true)] {
            lm.request(txn, ClientId(1), page(1), Mode::S);
            lm.request(txn, ClientId(1), page(2), Mode::X);
            assert_eq!(lm.requested[&txn], [page(1), page(2)]);
            lm.release_all(txn, None);
            lm.forget_txn(txn, check);
            assert!(lm.requested.is_empty(), "record of {txn:?} kept");
        }
    }

    #[test]
    fn re_requesting_a_held_lock_is_not_recorded_twice() {
        let mut lm = LockManager::new();
        lm.request(TxnId(1), ClientId(1), page(1), Mode::X);
        lm.request(TxnId(1), ClientId(1), page(1), Mode::S);
        lm.request(TxnId(1), ClientId(1), page(1), Mode::X);
        assert_eq!(lm.requested[&TxnId(1)], [page(1)]);
    }
}
