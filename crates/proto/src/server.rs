//! The sans-io server protocol core.
//!
//! [`ServerCore`] owns every protocol *decision* the server makes — lock
//! grants, version validation, commit certification, retention policy,
//! notification fan-out, abort propagation — and the logical state behind
//! them (lock manager, version table, caching directory, server
//! transaction table). It knows nothing about clocks, CPUs, disks,
//! facilities, sockets or coroutines: a driver feeds it one protocol step
//! at a time and interprets the returned values as sends/parks/wakes in
//! its own runtime.
//!
//! Two drivers exist: the DES runtime in `ccdb-core::server` (which adds
//! simulated resources and wait attribution around each decision) and the
//! TCP engine in `ccdb-server` (which adds sockets and a parked-request
//! registry). Both must call the same methods at the same protocol points;
//! the DES driver is the reference — its run reports are byte-identical to
//! the pre-extraction implementation.

use std::collections::BTreeSet;

use ccdb_lock::{
    ClientId, LockStats, Mode, RequestOutcome, RetainPolicy, ShardedLockManager, TxnId, Wake,
};
use ccdb_model::{DatabaseSpec, FxHashMap, FxHashSet, PageId};

use crate::algorithm::{Algorithm, Tuning};

/// What to do with a lock request that has just been granted, given the
/// version the client said it had cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantDecision {
    /// The cached copy is current: reply `Valid` (if the request was
    /// synchronous) and resolve the op.
    UseCached,
    /// Stale or absent: ship the page and resolve the op.
    Ship,
    /// No-wait locking read a stale cached page: abort the transaction
    /// (the restart message names the page so the client refetches it).
    StaleAbort,
}

/// Everything a driver must act on after [`ServerCore::abort_txn`].
#[derive(Clone, Debug)]
pub struct AbortOutcome {
    /// The aborted transaction's client (send it a `Restart`).
    pub client: ClientId,
    /// Lock grants produced by releasing the victim's locks: resume the
    /// parked requesters.
    pub wakes: Vec<Wake>,
    /// Callback messages produced by the release (callback locking).
    pub callbacks: Vec<(ClientId, PageId)>,
    /// Pages on which the victim itself had parked lock requests, in
    /// ascending order; the driver must fail those parked continuations.
    pub parked: Vec<PageId>,
}

struct TxnEntry {
    client: ClientId,
    ops_resolved: u32,
    failed: bool,
    /// Pages with a parked lock request (ordered so abort processing is
    /// deterministic regardless of driver).
    parked: BTreeSet<PageId>,
}

/// The server-side protocol state machine (see the module docs).
pub struct ServerCore {
    algorithm: Algorithm,
    tuning: Tuning,
    oracle: bool,
    n_clients: u32,
    db: DatabaseSpec,
    lm: ShardedLockManager,
    /// Committed version of every page (dense, indexed by
    /// [`DatabaseSpec::page_index`]).
    versions: Vec<u64>,
    /// Which clients have been shipped each page (notification
    /// directory): a client bitmask of `dir_words` words per page, dense
    /// and indexed like `versions`. Insert-only.
    directory: Vec<u64>,
    dir_words: usize,
    txns: FxHashMap<TxnId, TxnEntry>,
    /// Transactions the server has aborted; straggler messages are dropped.
    aborted: FxHashSet<TxnId>,
}

impl ServerCore {
    /// Build a core for `algorithm` over a database of `db.total_pages()`
    /// pages, all at version 0.
    pub fn new(
        algorithm: Algorithm,
        tuning: Tuning,
        oracle: bool,
        n_clients: u32,
        lock_shards: u32,
        db: DatabaseSpec,
    ) -> ServerCore {
        let versions = vec![0; db.total_pages() as usize];
        let dir_words = (n_clients as usize).div_ceil(64);
        ServerCore {
            algorithm,
            tuning,
            oracle,
            n_clients,
            db,
            lm: ShardedLockManager::new(lock_shards),
            directory: vec![0; versions.len() * dir_words],
            dir_words,
            versions,
            txns: FxHashMap::default(),
            aborted: FxHashSet::default(),
        }
    }

    /// The algorithm this core serves.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The modelling variants in effect.
    pub fn tuning(&self) -> Tuning {
        self.tuning
    }

    /// Whether the serializability oracle is on.
    pub fn oracle(&self) -> bool {
        self.oracle
    }

    /// The database shape this core versions.
    pub fn db(&self) -> &DatabaseSpec {
        &self.db
    }

    // ---- transaction registration --------------------------------------

    /// Has the server aborted `txn`? Straggler messages of aborted
    /// transactions are dropped (synchronous ones get an `Aborted` reply).
    pub fn is_aborted(&self, txn: TxnId) -> bool {
        self.aborted.contains(&txn)
    }

    /// Is `txn` registered (first message seen, not yet cleaned up)?
    pub fn txn_known(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
    }

    /// Register `txn` on its first message. The driver is responsible for
    /// admission control (MPL); the core only tracks protocol state.
    pub fn register_txn(&mut self, txn: TxnId, client: ClientId) {
        self.txns.insert(
            txn,
            TxnEntry {
                client,
                ops_resolved: 0,
                failed: false,
                parked: BTreeSet::new(),
            },
        );
    }

    /// The client that opened `txn`, if it is registered.
    pub fn client_of(&self, txn: TxnId) -> Option<ClientId> {
        self.txns.get(&txn).map(|e| e.client)
    }

    /// Registered transactions whose client is `client`, ascending.
    /// (Disconnect handling in a real server.)
    pub fn txns_of_client(&self, client: ClientId) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, e)| e.client == client)
            .map(|(t, _)| *t)
            .collect();
        out.sort_unstable();
        out
    }

    // ---- lock path ------------------------------------------------------

    /// Request `mode` on `page` for `txn`. On `Blocked` the driver parks
    /// the continuation (and calls [`ServerCore::park`]); the listed
    /// callback targets must be sent `Callback` messages.
    pub fn request_lock(
        &mut self,
        txn: TxnId,
        client: ClientId,
        page: PageId,
        mode: Mode,
    ) -> RequestOutcome {
        self.lm.request(txn, client, page, mode)
    }

    /// The lock shard responsible for `page` (wait attribution).
    pub fn shard_of(&self, page: PageId) -> u32 {
        self.lm.shard_of(page)
    }

    /// Record that `txn` has a parked lock request on `page`.
    pub fn park(&mut self, txn: TxnId, page: PageId) {
        if let Some(entry) = self.txns.get_mut(&txn) {
            entry.parked.insert(page);
        }
    }

    /// Remove the parked marker (the request was granted or failed).
    pub fn unpark(&mut self, txn: TxnId, page: PageId) {
        if let Some(entry) = self.txns.get_mut(&txn) {
            entry.parked.remove(&page);
        }
    }

    /// Lock granted: validate the cached version *now* (it may have gone
    /// stale while the request was blocked).
    pub fn after_grant(
        &self,
        page: PageId,
        cached_version: Option<u64>,
        wait: bool,
    ) -> GrantDecision {
        let current = self.versions[self.db.page_index(page)];
        match cached_version {
            Some(v) if v == current => GrantDecision::UseCached,
            Some(_) if !wait => GrantDecision::StaleAbort,
            _ => GrantDecision::Ship,
        }
    }

    /// Current committed version of `page`.
    pub fn version_of(&self, page: PageId) -> u64 {
        self.versions[self.db.page_index(page)]
    }

    /// Record that `page` was shipped to `to` (caching directory) and
    /// return the shipped version. `to` must be below the core's client
    /// count.
    pub fn note_shipped(&mut self, to: ClientId, page: PageId) -> u64 {
        let ix = self.db.page_index(page);
        let c = to.0 as usize;
        assert!(c < self.n_clients as usize, "{to:?} is not a client");
        self.directory[ix * self.dir_words + c / 64] |= 1 << (c % 64);
        self.versions[ix]
    }

    /// Count one protocol operation of `txn` as resolved. Returns `true`
    /// if the transaction is still registered (the driver then wakes a
    /// pending commit, if any).
    pub fn resolve_op(&mut self, txn: TxnId) -> bool {
        match self.txns.get_mut(&txn) {
            Some(entry) => {
                entry.ops_resolved += 1;
                true
            }
            None => false,
        }
    }

    // ---- commit path ----------------------------------------------------

    /// May the commit of `txn` proceed? True when every op the client sent
    /// has been resolved, when the transaction already failed (the doomed
    /// check rejects it next), or when it is unknown (straggler).
    pub fn commit_ready(&self, txn: TxnId, ops_sent: u32) -> bool {
        match self.txns.get(&txn) {
            Some(entry) => entry.failed || entry.ops_resolved >= ops_sent,
            None => true,
        }
    }

    /// The smallest page `txn` is parked on, if any (deterministic wait
    /// attribution for a commit gated on unresolved ops).
    pub fn min_parked(&self, txn: TxnId) -> Option<PageId> {
        self.txns
            .get(&txn)
            .and_then(|e| e.parked.iter().min().copied())
    }

    /// Is the commit doomed — the transaction aborted, failed, or gone?
    pub fn commit_doomed(&self, txn: TxnId) -> bool {
        self.aborted.contains(&txn) || self.txns.get(&txn).map(|e| e.failed).unwrap_or(true)
    }

    /// The version every page written by `txn` carries after commit:
    /// transaction ids are globally unique and monotonic per client, so
    /// they double as version numbers.
    pub fn commit_version(txn: TxnId) -> u64 {
        txn.0
    }

    /// Certification: validate the read set against committed versions
    /// and — atomically with the validation — bump the written pages'
    /// versions. The version bump IS the logical commit point: a
    /// concurrent certifier that read any of these pages will now fail
    /// its own validation instead of silently losing an update.
    ///
    /// For the locking family this validates nothing and returns `true`;
    /// under the oracle it instead *asserts* that every read version is
    /// current (the transaction's locks must have prevented any committed
    /// overwrite), panicking on a protocol bug.
    pub fn validate_commit(
        &mut self,
        txn: TxnId,
        read_set: &[(PageId, u64)],
        dirty: &[PageId],
    ) -> bool {
        if self.algorithm.deferred_updates() {
            let ok = read_set
                .iter()
                .all(|(p, v)| self.versions[self.db.page_index(*p)] == *v);
            if ok {
                let new_version = Self::commit_version(txn);
                for &page in dirty {
                    let idx = self.db.page_index(page);
                    self.versions[idx] = new_version;
                }
            }
            ok
        } else {
            if self.oracle {
                for (p, v) in read_set {
                    let cur = self.versions[self.db.page_index(*p)];
                    assert_eq!(
                        cur, *v,
                        "oracle violation: {:?} read {:?}@v{} but committed version is v{}",
                        self.algorithm, p, v, cur
                    );
                }
            }
            true
        }
    }

    /// Bump the written pages' versions at commit completion. A no-op for
    /// the certification family, which already bumped them at the
    /// validation point ([`ServerCore::validate_commit`]).
    pub fn publish_versions(&mut self, txn: TxnId, dirty: &[PageId]) {
        if !self.algorithm.deferred_updates() {
            let new_version = Self::commit_version(txn);
            for &page in dirty {
                let idx = self.db.page_index(page);
                self.versions[idx] = new_version;
            }
        }
    }

    /// Release the committer's locks under the algorithm's retention
    /// policy (callback locking retains them as read locks, or as
    /// read+write locks under the write-retention variant). Returns the
    /// grants to resume and the callbacks to send.
    pub fn release_commit_locks(
        &mut self,
        txn: TxnId,
        from: ClientId,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let policy = if matches!(self.algorithm, Algorithm::Callback) {
            if self.tuning.retain_write_locks {
                RetainPolicy::ReadWrite(from)
            } else {
                RetainPolicy::Read(from)
            }
        } else {
            RetainPolicy::Drop
        };
        self.lm.release_all_policy(txn, policy)
    }

    /// Should this commit push update notifications (no-wait locking with
    /// notification, and something was written)?
    pub fn should_push_updates(&self, dirty: &[PageId]) -> bool {
        matches!(self.algorithm, Algorithm::NoWait { notify: true }) && !dirty.is_empty()
    }

    /// Batch the updated pages per caching client, in ascending client
    /// order (deterministic send order). With the broadcast variant every
    /// other client receives every page and the directory is not
    /// consulted.
    pub fn notification_plan(
        &self,
        committer: ClientId,
        dirty: &[PageId],
    ) -> Vec<(ClientId, Vec<PageId>)> {
        let mut per_client: FxHashMap<ClientId, Vec<PageId>> = FxHashMap::default();
        if self.tuning.notify_broadcast {
            for c in 0..self.n_clients {
                let c = ClientId(c);
                if c != committer {
                    per_client.insert(c, dirty.to_vec());
                }
            }
        } else {
            for &page in dirty {
                let at = self.db.page_index(page) * self.dir_words;
                let words = &self.directory[at..at + self.dir_words];
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let c = ClientId((w * 64) as u32 + bits.trailing_zeros());
                        bits &= bits - 1;
                        if c != committer {
                            per_client.entry(c).or_default().push(page);
                        }
                    }
                }
            }
        }
        let mut targets: Vec<(ClientId, Vec<PageId>)> = per_client.into_iter().collect();
        targets.sort_by_key(|(c, _)| c.0);
        targets
    }

    /// Notification flavour: invalidations instead of page contents?
    pub fn notify_invalidate(&self) -> bool {
        self.tuning.notify_invalidate
    }

    // ---- abort path -----------------------------------------------------

    /// Abort `txn`: mark it aborted, release its locks and queued
    /// requests, and fail its entry. Returns `None` for an unknown or
    /// already-aborted transaction (the straggler is still marked aborted
    /// so later messages are dropped); otherwise the driver must send the
    /// `Restart`, resume the wakes, fail the parked continuations, and
    /// eventually call [`ServerCore::forget_txn`].
    pub fn abort_txn(&mut self, txn: TxnId) -> Option<AbortOutcome> {
        if self.aborted.contains(&txn) || !self.txns.contains_key(&txn) {
            self.aborted.insert(txn);
            return None;
        }
        self.aborted.insert(txn);
        let (wakes, callbacks) = self.lm.abort(txn);
        let entry = self.txns.get_mut(&txn).expect("checked above");
        entry.failed = true;
        let parked: Vec<PageId> = entry.parked.iter().copied().collect();
        Some(AbortOutcome {
            client: entry.client,
            wakes,
            callbacks,
            parked,
        })
    }

    // ---- retained locks (callback locking) ------------------------------

    /// A client released (or evicted) its retained lock on `page`.
    pub fn release_retained(
        &mut self,
        client: ClientId,
        page: PageId,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        self.lm.release_retained(client, page)
    }

    /// A client deferred a callback on `page` until `blocker` ends;
    /// returns a deadlock victim to abort, if the deferral closes a cycle.
    pub fn callback_deferred(
        &mut self,
        page: PageId,
        from: ClientId,
        blocker: TxnId,
    ) -> Option<TxnId> {
        self.lm.callback_deferred(page, from, blocker)
    }

    /// Every page `client` holds a retained lock on (disconnect cleanup).
    pub fn retained_pages(&self, client: ClientId) -> Vec<PageId> {
        self.lm.retained_pages(client)
    }

    /// Drop the transaction entry after commit or abort, and the lock
    /// manager's record of the pages it requested. Under the oracle, the
    /// lock manager first asserts it holds nothing for the transaction
    /// (see [`ShardedLockManager::forget_txn`]).
    pub fn forget_txn(&mut self, txn: TxnId) {
        self.lm.forget_txn(txn, self.oracle);
        self.txns.remove(&txn);
    }

    // ---- reporting / diagnostics ----------------------------------------

    /// Aggregate lock-manager counters.
    pub fn lock_stats(&self) -> LockStats {
        self.lm.stats()
    }

    /// Per-shard lock-manager counters.
    pub fn per_shard_lock_stats(&self) -> Vec<LockStats> {
        self.lm.per_shard_stats()
    }

    /// Pages present in the lock table.
    pub fn lock_table_len(&self) -> usize {
        self.lm.table_len()
    }

    /// Transactions with a blocked lock request.
    pub fn blocked_txn_count(&self) -> usize {
        self.lm.blocked_txn_count()
    }

    /// Number of registered (live) transactions.
    pub fn live_txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Live transaction ids, ascending (diagnostics).
    pub fn live_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self.txns.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Diagnostic view of one transaction: `(client, ops_resolved,
    /// failed, parked pages)`.
    pub fn txn_debug(&self, txn: TxnId) -> Option<(ClientId, u32, bool, Vec<PageId>)> {
        self.txns.get(&txn).map(|e| {
            (
                e.client,
                e.ops_resolved,
                e.failed,
                e.parked.iter().copied().collect(),
            )
        })
    }

    /// Diagnostic rendering of one lock-table entry.
    pub fn lock_debug_entry(&self, page: PageId) -> String {
        self.lm.debug_entry(page)
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

    fn core(algorithm: Algorithm) -> ServerCore {
        ServerCore::new(
            algorithm,
            Tuning::default(),
            true,
            4,
            4,
            ccdb_model::table5_database(),
        )
    }

    #[test]
    fn grant_decision_matrix() {
        let mut c = core(Algorithm::NoWait { notify: false });
        assert_eq!(
            c.after_grant(page(1), Some(0), true),
            GrantDecision::UseCached
        );
        assert_eq!(c.after_grant(page(1), None, true), GrantDecision::Ship);
        // Bump the version: a stale sync request refetches, a stale async
        // (no-wait) request aborts.
        c.versions[c.db.page_index(page(1))] = 9;
        assert_eq!(c.after_grant(page(1), Some(0), true), GrantDecision::Ship);
        assert_eq!(
            c.after_grant(page(1), Some(0), false),
            GrantDecision::StaleAbort
        );
        assert_eq!(
            c.after_grant(page(1), Some(9), false),
            GrantDecision::UseCached
        );
    }

    #[test]
    fn certification_validates_and_bumps_atomically() {
        let mut c = core(Algorithm::Certification { inter: true });
        let t1 = TxnId(101);
        let t2 = TxnId(102);
        c.register_txn(t1, ClientId(0));
        c.register_txn(t2, ClientId(1));
        // t1 commits a write to page 1.
        assert!(c.validate_commit(t1, &[(page(1), 0)], &[page(1)]));
        assert_eq!(c.version_of(page(1)), 101);
        // t2 read page 1 at version 0: validation fails and bumps nothing.
        assert!(!c.validate_commit(t2, &[(page(1), 0)], &[page(2)]));
        assert_eq!(c.version_of(page(2)), 0);
    }

    #[test]
    fn abort_is_sticky_and_reports_parked_pages() {
        let mut c = core(Algorithm::TwoPhase { inter: true });
        let t = TxnId(7);
        assert!(c.abort_txn(t).is_none()); // unknown: marked aborted
        assert!(c.is_aborted(t));
        let t2 = TxnId(8);
        c.register_txn(t2, ClientId(2));
        c.park(t2, page(5));
        c.park(t2, page(3));
        let out = c.abort_txn(t2).expect("live txn aborts");
        assert_eq!(out.client, ClientId(2));
        assert_eq!(out.parked, vec![page(3), page(5)]); // ascending
        assert!(c.commit_doomed(t2));
        assert!(c.abort_txn(t2).is_none()); // second abort is a no-op
    }

    #[test]
    fn commit_gate_counts_resolved_ops() {
        let mut c = core(Algorithm::NoWait { notify: false });
        let t = TxnId(9);
        c.register_txn(t, ClientId(0));
        assert!(!c.commit_ready(t, 2));
        c.resolve_op(t);
        assert!(!c.commit_ready(t, 2));
        c.resolve_op(t);
        assert!(c.commit_ready(t, 2));
        assert!(!c.commit_doomed(t));
    }

    #[test]
    fn notification_plan_is_sorted_and_skips_committer() {
        let mut c = core(Algorithm::NoWait { notify: true });
        c.note_shipped(ClientId(3), page(1));
        c.note_shipped(ClientId(0), page(1));
        c.note_shipped(ClientId(1), page(2));
        let plan = c.notification_plan(ClientId(0), &[page(1), page(2)]);
        assert_eq!(
            plan,
            vec![(ClientId(1), vec![page(2)]), (ClientId(3), vec![page(1)]),]
        );
        assert!(c.should_push_updates(&[page(1)]));
        assert!(!c.should_push_updates(&[]));
    }

    /// The dense directory against a map built from the same shipments:
    /// 70 clients, so each page's mask spans two words. The committer is
    /// left out, clients come out ascending, and each client's pages stay
    /// in `dirty` order.
    #[test]
    fn notification_plan_matches_a_map_directory_across_mask_words() {
        use std::collections::BTreeMap;
        let n_clients = 70;
        let mut c = ServerCore::new(
            Algorithm::NoWait { notify: true },
            Tuning::default(),
            true,
            n_clients,
            1,
            ccdb_model::table5_database(),
        );
        let mut shipped: BTreeMap<PageId, BTreeSet<ClientId>> = BTreeMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let client = ClientId((state >> 33) as u32 % n_clients);
            let p = page((state >> 17) as u32 % 40);
            c.note_shipped(client, p);
            shipped.entry(p).or_default().insert(client);
        }
        // Out of page order, with pages nobody was shipped.
        let dirty: Vec<PageId> = [31, 2, 17, 45, 0, 39, 8, 47].map(page).to_vec();
        for committer in [ClientId(0), ClientId(63), ClientId(64), ClientId(69)] {
            let mut want: BTreeMap<ClientId, Vec<PageId>> = BTreeMap::new();
            for &p in &dirty {
                for &client in shipped.get(&p).into_iter().flatten() {
                    if client != committer {
                        want.entry(client).or_default().push(p);
                    }
                }
            }
            let want: Vec<(ClientId, Vec<PageId>)> = want.into_iter().collect();
            assert!(want.iter().any(|(c, _)| c.0 >= 64), "second word in use");
            assert_eq!(c.notification_plan(committer, &dirty), want);
        }
    }
}
