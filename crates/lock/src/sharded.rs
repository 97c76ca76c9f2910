//! A sharded lock table behind the [`LockManager`] API.
//!
//! Pages are hash-partitioned across `N` independent [`LockManager`]
//! shards by a deterministic, seed-free hash, so lock-table state — and
//! therefore per-shard wait/deadlock/callback statistics — decomposes by
//! shard. Each shard sits behind its own [`RefCell`], so the facade takes
//! `&self` everywhere: mutating one shard never requires exclusive access
//! to the whole table, and callers (the simulated server, which hands out
//! shared references to itself) never need a table-wide `&mut`. Borrows
//! are statement-scoped — every shard method returns owned data — so a
//! cross-shard walk (deadlock detection, stats) can immutably visit all
//! shards right after mutating one. Two things cannot be per-shard and
//! are handled by the facade:
//!
//! * **Deadlock detection** runs over the *union* of the shards' wait-for
//!   edges, so cross-shard cycles are found and the victim (the requester,
//!   exactly as in the single-table manager) is identical for every shard
//!   count.
//! * **Release ordering**: a committing transaction's pages are gathered
//!   across shards and released in *global* page order, so the grants
//!   (wakes) a release produces — and therefore simulation event order —
//!   are byte-identical to the single-table manager.
//!
//! With `shards = 1` every call delegates to one `LockManager` in the
//! exact same sequence of internal steps as the unsharded code path.

use ccdb_model::FxHashSet as HashSet;
use std::cell::RefCell;

use ccdb_model::PageId;

use crate::manager::{
    ClientId, EnqueueOutcome, LockManager, LockStats, Mode, RequestOutcome, RetainPolicy, TxnId,
    Wake,
};

/// SplitMix64 finalizer over the page's (class, atom) key: deterministic,
/// seed-free, and well-mixed so shards stay balanced.
fn page_hash(page: PageId) -> u64 {
    let key = ((page.class.0 as u64) << 32) | page.atom as u64;
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard `page` maps to among `shards` hash partitions.
///
/// This is the repo-wide page→shard discipline: every sharded structure
/// keyed by page (the lock table here, the real server's sharded page
/// stores) uses the same deterministic, seed-free mapping, so "same
/// page, same shard" holds across subsystems and shard assignments can
/// be recomputed anywhere (e.g. by `ccdb replay` when checking a
/// sharded wire trace).
pub fn page_shard(page: PageId, shards: u32) -> u32 {
    assert!(shards > 0, "page_shard needs at least one shard");
    (page_hash(page) % shards as u64) as u32
}

/// `N` hash-partitioned [`LockManager`] shards presenting the single-table
/// API. See the module docs for the equivalence argument.
#[derive(Debug)]
pub struct ShardedLockManager {
    shards: Vec<RefCell<LockManager>>,
}

impl Default for ShardedLockManager {
    fn default() -> Self {
        ShardedLockManager::new(1)
    }
}

impl ShardedLockManager {
    /// A lock manager with `shards` hash partitions (at least one).
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "lock manager needs at least one shard");
        ShardedLockManager {
            shards: (0..shards)
                .map(|_| RefCell::new(LockManager::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard `page` is partitioned to.
    pub fn shard_of(&self, page: PageId) -> u32 {
        page_shard(page, self.shards.len() as u32)
    }

    /// Summed statistics across shards (the single-table view).
    pub fn stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for s in &self.shards {
            let st = s.borrow().stats();
            total.requests += st.requests;
            total.blocks += st.blocks;
            total.deadlocks += st.deadlocks;
            total.callbacks += st.callbacks;
        }
        total
    }

    /// Per-shard statistics, indexed by shard.
    pub fn per_shard_stats(&self) -> Vec<LockStats> {
        self.shards.iter().map(|s| s.borrow().stats()).collect()
    }

    /// Mode held by `txn` on `page`, if any.
    pub fn holds(&self, txn: TxnId, page: PageId) -> Option<Mode> {
        self.shard(page).borrow().holds(txn, page)
    }

    /// Mode of the lock `client` retains on `page`, if any.
    pub fn retained_mode(&self, client: ClientId, page: PageId) -> Option<Mode> {
        self.shard(page).borrow().retained_mode(client, page)
    }

    /// True if `client` retains a read lock on `page`.
    pub fn has_retained(&self, client: ClientId, page: PageId) -> bool {
        self.shard(page).borrow().has_retained(client, page)
    }

    /// Number of pages with any lock state, summed across shards.
    pub fn table_len(&self) -> usize {
        self.shards.iter().map(|s| s.borrow().table_len()).sum()
    }

    /// Distinct transactions blocked on at least one lock (a transaction
    /// queued in two shards counts once).
    pub fn blocked_txn_count(&self) -> usize {
        let mut txns: HashSet<TxnId> = HashSet::default();
        for s in &self.shards {
            txns.extend(s.borrow().blocked_txns());
        }
        txns.len()
    }

    /// Pages retained by a client, in page order across shards.
    pub fn retained_pages(&self, client: ClientId) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .shards
            .iter()
            .flat_map(|s| s.borrow().retained_pages(client))
            .collect();
        pages.sort();
        pages
    }

    /// Retained holders of a page.
    pub fn retained_holders(&self, page: PageId) -> Vec<ClientId> {
        self.shard(page).borrow().retained_holders(page)
    }

    /// Request `mode` on `page` for transaction `txn` of `client`. Same
    /// contract as [`LockManager::request`]; the deadlock check runs over
    /// the union of every shard's wait-for edges.
    pub fn request(
        &self,
        txn: TxnId,
        client: ClientId,
        page: PageId,
        mode: Mode,
    ) -> RequestOutcome {
        let k = self.shard_of(page) as usize;
        // The enqueue borrow ends before the cycle walk visits every shard.
        let outcome = self.shards[k]
            .borrow_mut()
            .enqueue_request(txn, client, page, mode);
        match outcome {
            EnqueueOutcome::Granted => RequestOutcome::Granted,
            EnqueueOutcome::Queued { upgrade } => {
                if self.wait_cycle_through(txn) {
                    self.shards[k]
                        .borrow_mut()
                        .withdraw_just_queued(txn, page, upgrade);
                    return RequestOutcome::Deadlock;
                }
                RequestOutcome::Blocked {
                    callbacks: self.shards[k]
                        .borrow_mut()
                        .blocked_callbacks(page, client, mode),
                }
            }
        }
    }

    /// Release every lock of `txn`, optionally retaining them as client
    /// read locks. Same contract as [`LockManager::release_all`].
    pub fn release_all(
        &self,
        txn: TxnId,
        retain_for: Option<ClientId>,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let policy = match retain_for {
            Some(c) => RetainPolicy::Read(c),
            None => RetainPolicy::Drop,
        };
        self.release_all_policy(txn, policy)
    }

    /// [`ShardedLockManager::release_all`] with an explicit retention
    /// policy. Pages are released in global page order so the grant
    /// sequence matches the single-table manager exactly.
    pub fn release_all_policy(
        &self,
        txn: TxnId,
        policy: RetainPolicy,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let mut pages: Vec<(PageId, usize)> = Vec::new();
        for (k, s) in self.shards.iter().enumerate() {
            pages.extend(s.borrow_mut().take_held(txn).into_iter().map(|p| (p, k)));
        }
        pages.sort_by_key(|&(p, _)| p);
        if !pages.is_empty() {
            // The single-table manager clears deferred edges pointing at a
            // terminating lock-holding txn over its whole table; mirror
            // that across every shard, not just the ones holding pages.
            for s in &self.shards {
                s.borrow_mut().clear_deferred_of(txn);
            }
        }
        let mut wakes = Vec::new();
        let mut callbacks = Vec::new();
        for (page, k) in pages {
            let (w, cb) = self.shards[k]
                .borrow_mut()
                .release_one_page(txn, page, policy);
            wakes.extend(w);
            callbacks.extend(cb);
        }
        (wakes, callbacks)
    }

    /// Abort `txn`: drop held locks (no retention) and queued requests.
    pub fn abort(&self, txn: TxnId) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        for s in &self.shards {
            s.borrow_mut().withdraw_queued_requests(txn);
        }
        self.release_all(txn, None)
    }

    /// A client released a retained read lock. Same contract as
    /// [`LockManager::release_retained`].
    pub fn release_retained(
        &self,
        client: ClientId,
        page: PageId,
    ) -> (Vec<Wake>, Vec<(ClientId, PageId)>) {
        let k = self.shard_of(page) as usize;
        self.shards[k].borrow_mut().release_retained(client, page)
    }

    /// A client answered a callback with "in use by my current transaction
    /// `blocker`". Same contract as [`LockManager::callback_deferred`];
    /// the cycle check spans every shard.
    pub fn callback_deferred(
        &self,
        page: PageId,
        client: ClientId,
        blocker: TxnId,
    ) -> Option<TxnId> {
        let k = self.shard_of(page) as usize;
        self.shards[k]
            .borrow_mut()
            .insert_deferred(page, client, blocker);
        let waiters = self.shards[k].borrow().page_waiters(page);
        waiters.into_iter().find(|&w| self.wait_cycle_through(w))
    }

    /// True if `start` is on a wait-for cycle in the global graph (the
    /// union of every shard's edges).
    fn wait_cycle_through(&self, start: TxnId) -> bool {
        let mut stack = self.wait_targets(start);
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

    fn wait_targets(&self, txn: TxnId) -> Vec<TxnId> {
        self.shards
            .iter()
            .flat_map(|s| s.borrow().wait_targets(txn))
            .collect()
    }

    /// Drop `txn`'s record of requested pages in every shard, asserting
    /// first under `check` that it left no lock state behind. Same contract
    /// as [`LockManager::forget_txn`].
    pub fn forget_txn(&self, txn: TxnId, check: bool) {
        for s in &self.shards {
            s.borrow_mut().forget_txn(txn, check);
        }
    }

    /// Consistency check across every shard.
    pub fn assert_consistent(&self) {
        for s in &self.shards {
            s.borrow().assert_consistent();
        }
    }

    /// Human-readable dump of one page's lock entry (diagnostics).
    pub fn debug_entry(&self, page: PageId) -> String {
        self.shard(page).borrow().debug_entry(page)
    }

    fn shard(&self, page: PageId) -> &RefCell<LockManager> {
        &self.shards[self.shard_of(page) as usize]
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
    fn sharding_is_deterministic_and_covers_all_shards() {
        let lm = ShardedLockManager::new(4);
        let lm2 = ShardedLockManager::new(4);
        let mut seen = HashSet::default();
        for n in 0..256 {
            let k = lm.shard_of(page(n));
            assert!(k < 4);
            assert_eq!(k, lm2.shard_of(page(n)), "hash must be seed-free");
            seen.insert(k);
        }
        assert_eq!(seen.len(), 4, "256 pages must touch every shard");
    }

    #[test]
    fn cross_shard_deadlock_is_detected() {
        // Find two pages in different shards, build the classic 2-txn
        // cycle across them.
        let lm = ShardedLockManager::new(4);
        let a = page(0);
        let b = (1..64)
            .map(page)
            .find(|&p| lm.shard_of(p) != lm.shard_of(a))
            .expect("some page lands in another shard");
        assert_eq!(
            lm.request(TxnId(1), ClientId(1), a, Mode::X),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(TxnId(2), ClientId(2), b, Mode::X),
            RequestOutcome::Granted
        );
        assert!(matches!(
            lm.request(TxnId(1), ClientId(1), b, Mode::X),
            RequestOutcome::Blocked { .. }
        ));
        // Txn 2 → a → txn 1 → b → txn 2: a cycle spanning two shards.
        assert_eq!(
            lm.request(TxnId(2), ClientId(2), a, Mode::X),
            RequestOutcome::Deadlock
        );
        // The victim (requester) aborts; txn 1's wait resolves.
        let (wakes, _) = lm.abort(TxnId(2));
        assert_eq!(
            wakes,
            vec![Wake {
                txn: TxnId(1),
                page: b
            }]
        );
        lm.assert_consistent();
    }

    #[test]
    fn release_wakes_follow_global_page_order() {
        // One txn holds X on many pages spread over shards; one waiter per
        // page. Wakes must come back in page order, not shard order.
        let lm = ShardedLockManager::new(4);
        let pages: Vec<PageId> = (0..8).map(page).collect();
        for &p in &pages {
            assert_eq!(
                lm.request(TxnId(1), ClientId(1), p, Mode::X),
                RequestOutcome::Granted
            );
        }
        for (i, &p) in pages.iter().enumerate() {
            let t = TxnId(10 + i as u64);
            assert!(matches!(
                lm.request(t, ClientId(10 + i as u32), p, Mode::S),
                RequestOutcome::Blocked { .. }
            ));
        }
        let (wakes, _) = lm.release_all(TxnId(1), None);
        let woken: Vec<PageId> = wakes.iter().map(|w| w.page).collect();
        assert_eq!(woken, pages, "wakes must be in global page order");
    }

    #[test]
    fn stats_sum_and_split_by_shard() {
        let lm = ShardedLockManager::new(2);
        for n in 0..16 {
            lm.request(TxnId(n as u64), ClientId(n), page(n), Mode::X);
        }
        let total = lm.stats();
        assert_eq!(total.requests, 16);
        let per: Vec<LockStats> = lm.per_shard_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per.iter().map(|s| s.requests).sum::<u64>(), 16);
        assert!(per.iter().all(|s| s.requests > 0), "both shards used");
    }

    #[test]
    fn shared_reference_suffices_for_mutation() {
        // The facade's whole point: a `&ShardedLockManager` can request
        // and release without a table-wide exclusive borrow.
        let lm = ShardedLockManager::new(2);
        let alias: &ShardedLockManager = &lm;
        assert_eq!(
            alias.request(TxnId(1), ClientId(1), page(0), Mode::X),
            RequestOutcome::Granted
        );
        let (wakes, _) = alias.release_all(TxnId(1), None);
        assert!(wakes.is_empty());
        alias.assert_consistent();
    }
}
