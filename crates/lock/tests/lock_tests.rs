//! Behavioural tests of the lock manager, covering every protocol path the
//! algorithms rely on.

use ccdb_lock::{ClientId, LockManager, Mode, RequestOutcome, ShardedLockManager, TxnId};
use ccdb_model::{ClassId, PageId};

fn page(n: u32) -> PageId {
    PageId {
        class: ClassId(0),
        atom: n,
    }
}

fn granted(o: &RequestOutcome) -> bool {
    matches!(o, RequestOutcome::Granted)
}

fn blocked(o: &RequestOutcome) -> bool {
    matches!(o, RequestOutcome::Blocked { .. })
}

#[test]
fn shared_locks_coexist() {
    let mut lm = LockManager::new();
    for i in 0..5 {
        let o = lm.request(TxnId(i), ClientId(i as u32), page(1), Mode::S);
        assert!(granted(&o));
    }
    lm.assert_consistent();
}

#[test]
fn exclusive_conflicts_with_shared() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    let o = lm.request(TxnId(2), ClientId(2), page(1), Mode::X);
    assert!(blocked(&o));
    lm.assert_consistent();
}

#[test]
fn release_grants_waiter_fcfs() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(3),
        ClientId(3),
        page(1),
        Mode::X
    )));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(2));
    let (wakes, _) = lm.release_all(TxnId(2), None);
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(3));
}

#[test]
fn shared_batch_granted_together() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    assert!(blocked(&lm.request(
        TxnId(3),
        ClientId(3),
        page(1),
        Mode::S
    )));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    let woken: Vec<TxnId> = wakes.iter().map(|w| w.txn).collect();
    assert_eq!(woken, vec![TxnId(2), TxnId(3)]);
    lm.assert_consistent();
}

#[test]
fn no_barging_past_x_waiter() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::X
    )));
    // A new S request must queue behind the X waiter even though it is
    // compatible with the current holder.
    assert!(blocked(&lm.request(
        TxnId(3),
        ClientId(3),
        page(1),
        Mode::S
    )));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    assert_eq!(wakes[0].txn, TxnId(2));
}

#[test]
fn reentrant_requests_are_granted() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
    // S after X is covered by X.
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
}

#[test]
fn upgrade_when_sole_holder() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert_eq!(lm.holds(TxnId(1), page(1)), Some(Mode::X));
}

#[test]
fn upgrade_waits_for_other_readers_and_jumps_queue() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    // Another writer queues first.
    assert!(blocked(&lm.request(
        TxnId(3),
        ClientId(3),
        page(1),
        Mode::X
    )));
    // Upgrader goes to the front of the queue.
    assert!(blocked(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    let (wakes, _) = lm.release_all(TxnId(2), None);
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(1), "upgrader granted before writer");
    assert_eq!(lm.holds(TxnId(1), page(1)), Some(Mode::X));
}

#[test]
fn upgrade_deadlock_detected() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    assert!(blocked(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    // Second upgrader closes the cycle.
    let o = lm.request(TxnId(2), ClientId(2), page(1), Mode::X);
    assert_eq!(o, RequestOutcome::Deadlock);
    assert_eq!(lm.stats().deadlocks, 1);
}

#[test]
fn two_page_deadlock_detected() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(2),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
    let o = lm.request(TxnId(2), ClientId(2), page(1), Mode::X);
    assert_eq!(o, RequestOutcome::Deadlock);
    // Victim aborts; waiter 1 gets page 2.
    let (wakes, _) = lm.abort(TxnId(2));
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(1));
}

#[test]
fn three_txn_cycle_detected() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(2),
        Mode::X
    )));
    assert!(granted(&lm.request(
        TxnId(3),
        ClientId(3),
        page(3),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(3),
        Mode::X
    )));
    let o = lm.request(TxnId(3), ClientId(3), page(1), Mode::X);
    assert_eq!(o, RequestOutcome::Deadlock);
}

#[test]
fn abort_withdraws_queued_request() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(3),
        ClientId(3),
        page(1),
        Mode::X
    )));
    lm.abort(TxnId(2));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(3));
}

#[test]
fn commit_retains_read_locks() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
    let (wakes, callbacks) = lm.release_all(TxnId(1), Some(ClientId(1)));
    assert!(wakes.is_empty() && callbacks.is_empty());
    assert!(lm.has_retained(ClientId(1), page(1)));
    // X lock demoted to retained S.
    assert!(lm.has_retained(ClientId(1), page(2)));
    assert_eq!(lm.holds(TxnId(1), page(1)), None);
    lm.assert_consistent();
}

#[test]
fn retained_lock_does_not_block_own_client() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    // Next transaction of the same client writes the page: granted, and
    // the retained lock is absorbed.
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(!lm.has_retained(ClientId(1), page(1)));
    lm.assert_consistent();
}

#[test]
fn retained_lock_blocks_other_writer_with_callback() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    let o = lm.request(TxnId(2), ClientId(2), page(1), Mode::X);
    match o {
        RequestOutcome::Blocked { callbacks } => assert_eq!(callbacks, vec![ClientId(1)]),
        other => panic!("expected blocked-with-callback, got {other:?}"),
    }
    // Client 1 releases (idle, so immediately): writer granted.
    let (wakes, _) = lm.release_retained(ClientId(1), page(1));
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(2));
}

#[test]
fn retained_lock_allows_other_readers() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    lm.assert_consistent();
}

#[test]
fn callback_sent_once_per_client() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    match lm.request(TxnId(2), ClientId(2), page(1), Mode::X) {
        RequestOutcome::Blocked { callbacks } => assert_eq!(callbacks.len(), 1),
        o => panic!("unexpected {o:?}"),
    }
    // A second writer queues; no duplicate callback.
    match lm.request(TxnId(3), ClientId(3), page(1), Mode::X) {
        RequestOutcome::Blocked { callbacks } => assert!(callbacks.is_empty()),
        o => panic!("unexpected {o:?}"),
    }
    assert_eq!(lm.stats().callbacks, 1);
}

#[test]
fn demotion_behind_waiter_triggers_callback() {
    let mut lm = LockManager::new();
    // Txn 1 (client 1) holds X; txn 2 queues for X.
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::X
    )));
    // Txn 1 commits retaining its lock as a read lock: txn 2 still blocked,
    // and client 1 must now be called back.
    let (wakes, callbacks) = lm.release_all(TxnId(1), Some(ClientId(1)));
    assert!(wakes.is_empty());
    assert_eq!(callbacks, vec![(ClientId(1), page(1))]);
    let (wakes, _) = lm.release_retained(ClientId(1), page(1));
    assert_eq!(wakes.len(), 1);
    assert_eq!(wakes[0].txn, TxnId(2));
}

#[test]
fn deferred_callback_creates_deadlock_edge() {
    let mut lm = LockManager::new();
    // Client 1 retains p1; client 2 retains p2.
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(2),
        Mode::S
    )));
    lm.release_all(TxnId(2), Some(ClientId(2)));
    // Current txns: T11 on client 1, T12 on client 2.
    // T12 wants X on p1 (retained by client 1); T11 wants X on p2.
    assert!(blocked(&lm.request(
        TxnId(12),
        ClientId(2),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(11),
        ClientId(1),
        page(2),
        Mode::X
    )));
    // Client 1's current txn T11 uses p1 -> deferred; no cycle yet
    // (T12 -> T11, T11 waits on p2 retained by client 2, not yet deferred).
    assert_eq!(lm.callback_deferred(page(1), ClientId(1), TxnId(11)), None);
    // Client 2's current txn T12 uses p2 -> deferred; now T11 -> T12 -> T11.
    let victim = lm.callback_deferred(page(2), ClientId(2), TxnId(12));
    assert!(victim == Some(TxnId(11)) || victim == Some(TxnId(12)));
}

#[test]
fn eviction_release_of_retained_lock() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    assert!(lm.has_retained(ClientId(1), page(1)));
    let (wakes, _) = lm.release_retained(ClientId(1), page(1));
    assert!(wakes.is_empty());
    assert!(!lm.has_retained(ClientId(1), page(1)));
    assert_eq!(lm.table_len(), 0, "empty entries are garbage-collected");
}

#[test]
fn retained_pages_listing() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    let mut pages = lm.retained_pages(ClientId(1));
    pages.sort_by_key(|p| p.atom);
    assert_eq!(pages, vec![page(1), page(2)]);
    assert_eq!(lm.retained_holders(page(1)), vec![ClientId(1)]);
}

#[test]
fn multiple_clients_retain_same_page() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    lm.release_all(TxnId(1), Some(ClientId(1)));
    lm.release_all(TxnId(2), Some(ClientId(2)));
    let mut holders = lm.retained_holders(page(1));
    holders.sort();
    assert_eq!(holders, vec![ClientId(1), ClientId(2)]);
    // A writer must call back both.
    match lm.request(TxnId(3), ClientId(3), page(1), Mode::X) {
        RequestOutcome::Blocked { callbacks } => {
            let mut cb = callbacks;
            cb.sort();
            assert_eq!(cb, vec![ClientId(1), ClientId(2)]);
        }
        o => panic!("unexpected {o:?}"),
    }
    // Both must release before the grant.
    let (w, _) = lm.release_retained(ClientId(1), page(1));
    assert!(w.is_empty());
    let (w, _) = lm.release_retained(ClientId(2), page(1));
    assert_eq!(w.len(), 1);
}

#[test]
fn stats_count_requests_blocks_deadlocks() {
    let mut lm = LockManager::new();
    lm.request(TxnId(1), ClientId(1), page(1), Mode::X);
    lm.request(TxnId(2), ClientId(2), page(1), Mode::X);
    let s = lm.stats();
    assert_eq!(s.requests, 2);
    assert_eq!(s.blocks, 1);
    assert_eq!(s.deadlocks, 0);
}

#[test]
fn release_all_without_locks_is_noop() {
    let mut lm = LockManager::new();
    let (wakes, callbacks) = lm.release_all(TxnId(99), None);
    assert!(wakes.is_empty() && callbacks.is_empty());
    let (wakes, _) = lm.abort(TxnId(98));
    assert!(wakes.is_empty());
}

#[test]
fn deadlock_request_leaves_no_residue() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(granted(&lm.request(
        TxnId(2),
        ClientId(2),
        page(2),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
    assert_eq!(
        lm.request(TxnId(2), ClientId(2), page(1), Mode::X),
        RequestOutcome::Deadlock
    );
    // The refused request is fully withdrawn: releasing txn 1's locks must
    // not wake txn 2 on page 1.
    let (wakes, _) = lm.abort(TxnId(2));
    assert_eq!(wakes.len(), 1, "txn1 was waiting on page 2");
    assert_eq!(wakes[0].txn, TxnId(1));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    assert!(wakes.is_empty());
    assert_eq!(lm.table_len(), 0);
}

#[test]
fn queued_s_then_x_of_same_txn_becomes_upgrade() {
    // No-wait locking sends S and X for the same page asynchronously; both
    // can be queued behind a conflicting holder. Once the S is granted the
    // queued X must be treated as an upgrade, not self-blocked.
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::X
    )));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    // Both of txn 2's requests resolve: S granted, then X as an upgrade.
    assert_eq!(wakes.len(), 2);
    assert!(wakes.iter().all(|w| w.txn == TxnId(2)));
    assert_eq!(lm.holds(TxnId(2), page(1)), Some(Mode::X));
    lm.assert_consistent();
}

mod write_retention {
    use super::*;
    use ccdb_lock::RetainPolicy;

    #[test]
    fn read_write_policy_keeps_exclusive_mode() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.request(
            TxnId(1),
            ClientId(1),
            page(1),
            Mode::X
        )));
        assert!(granted(&lm.request(
            TxnId(1),
            ClientId(1),
            page(2),
            Mode::S
        )));
        lm.release_all_policy(TxnId(1), RetainPolicy::ReadWrite(ClientId(1)));
        assert_eq!(lm.retained_mode(ClientId(1), page(1)), Some(Mode::X));
        assert_eq!(lm.retained_mode(ClientId(1), page(2)), Some(Mode::S));
        lm.assert_consistent();
    }

    #[test]
    fn retained_x_blocks_readers_with_callback() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.request(
            TxnId(1),
            ClientId(1),
            page(1),
            Mode::X
        )));
        lm.release_all_policy(TxnId(1), RetainPolicy::ReadWrite(ClientId(1)));
        // Another client's *read* now conflicts and triggers a callback.
        match lm.request(TxnId(2), ClientId(2), page(1), Mode::S) {
            RequestOutcome::Blocked { callbacks } => {
                assert_eq!(callbacks, vec![ClientId(1)]);
            }
            o => panic!("expected blocked-with-callback, got {o:?}"),
        }
        let (wakes, _) = lm.release_retained(ClientId(1), page(1));
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].txn, TxnId(2));
    }

    #[test]
    fn retained_x_does_not_block_own_client() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.request(
            TxnId(1),
            ClientId(1),
            page(1),
            Mode::X
        )));
        lm.release_all_policy(TxnId(1), RetainPolicy::ReadWrite(ClientId(1)));
        // The owning client's next transaction absorbs its retained X.
        assert!(granted(&lm.request(
            TxnId(2),
            ClientId(1),
            page(1),
            Mode::X
        )));
        assert_eq!(lm.retained_mode(ClientId(1), page(1)), None);
        lm.assert_consistent();
    }

    #[test]
    fn demotion_to_read_under_default_policy() {
        let mut lm = LockManager::new();
        assert!(granted(&lm.request(
            TxnId(1),
            ClientId(1),
            page(1),
            Mode::X
        )));
        lm.release_all_policy(TxnId(1), RetainPolicy::Read(ClientId(1)));
        assert_eq!(lm.retained_mode(ClientId(1), page(1)), Some(Mode::S));
        // Readers from other clients are now fine.
        assert!(granted(&lm.request(
            TxnId(2),
            ClientId(2),
            page(1),
            Mode::S
        )));
    }
}

// ---- The oracle's lock-leak check at transaction end -------------------
//
// `forget_txn(txn, true)` scans only the pages `txn` requested and must
// still catch every leak, in release builds as well (the full-table scan
// is a debug-only cross-check), so these also run under
// `cargo test --release`.

#[test]
fn forget_txn_passes_once_everything_is_released() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    lm.abort(TxnId(2));
    lm.forget_txn(TxnId(2), true);
    lm.release_all(TxnId(1), Some(ClientId(1)));
    lm.forget_txn(TxnId(1), true);
}

#[test]
#[should_panic(expected = "queue leak: TxnId(2) still queued")]
fn forget_txn_catches_a_queued_request_left_behind() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::X
    )));
    lm.forget_txn(TxnId(2), true);
}

#[test]
#[should_panic(expected = "lock leak: TxnId(1) still holds S")]
fn forget_txn_catches_a_holder_left_behind() {
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::S
    )));
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(2),
        Mode::X
    )));
    lm.forget_txn(TxnId(1), true);
}

#[test]
#[should_panic(expected = "lock leak: TxnId(2) still holds S")]
fn forget_txn_catches_a_holder_granted_from_the_queue() {
    // The holder was installed by a grant from the queue, not by the
    // request itself: the request's page record must cover it.
    let mut lm = LockManager::new();
    assert!(granted(&lm.request(
        TxnId(1),
        ClientId(1),
        page(1),
        Mode::X
    )));
    assert!(blocked(&lm.request(
        TxnId(2),
        ClientId(2),
        page(1),
        Mode::S
    )));
    let (wakes, _) = lm.release_all(TxnId(1), None);
    assert_eq!(wakes.len(), 1);
    lm.forget_txn(TxnId(2), true);
}

#[test]
#[should_panic(expected = "lock leak: TxnId(1) still holds X")]
fn sharded_forget_txn_catches_a_holder_left_behind() {
    let lm = ShardedLockManager::new(4);
    for n in 0..8 {
        assert!(granted(&lm.request(
            TxnId(1),
            ClientId(1),
            page(n),
            Mode::X
        )));
    }
    lm.forget_txn(TxnId(1), true);
}
