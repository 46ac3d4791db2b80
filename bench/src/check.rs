//! The answer checker: every reply is held to the expectation its op
//! was generated with. A wrong, refused or missing answer is a failed
//! op; nothing is retried.

use crate::gen::{mix64, Base, Expect};
use rma_db::{Op, Reply};

/// What one client thread saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged inserts and successful removes, for the final
    /// `len` check.
    pub inserted: u64,
    pub removed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.inserted += other.inserted;
        self.removed += other.removed;
    }

    /// A whole frame that got no usable answer (I/O error, short reply).
    pub fn fail_frame(&mut self, ops: usize) {
        self.attempted += ops as u64;
        self.failed += ops as u64;
    }

    /// Checks one frame's replies, after the frame's timed window.
    pub fn check_frame(&mut self, ops: &[Op], expect: &[Expect], replies: &[Reply], base: &Base) {
        if replies.len() != ops.len() {
            self.fail_frame(ops.len());
            return;
        }
        for ((op, ex), reply) in ops.iter().zip(expect).zip(replies) {
            self.check(op, *ex, reply, base);
        }
    }

    pub fn check(&mut self, op: &Op, ex: Expect, reply: &Reply, base: &Base) {
        self.attempted += 1;
        if reply_ok(op, ex, reply, base) {
            match reply {
                Reply::Inserted => self.inserted += 1,
                Reply::Removed(Some(_)) => self.removed += 1,
                _ => {}
            }
        } else {
            self.failed += 1;
        }
    }
}

pub fn reply_ok(op: &Op, ex: Expect, reply: &Reply, base: &Base) -> bool {
    match (*op, ex, reply) {
        (Op::Get(k), Expect::Hit, Reply::Found(Some(v))) => *v == mix64(k),
        (Op::Get(_), Expect::Miss, Reply::Found(None)) => true,
        (Op::Insert(..), Expect::Inserted, Reply::Inserted) => true,
        (Op::Remove(k), Expect::RemovedOwn, Reply::Removed(Some(v))) => *v == mix64(k),
        (Op::SumRange { count, .. }, Expect::SumCount, Reply::Sum { visited, .. }) => {
            *visited == count
        }
        (Op::SumRange { count, .. }, Expect::SumExact(want), Reply::Sum { visited, sum }) => {
            *visited == count && *sum == want
        }
        (Op::Scan { count, .. }, Expect::ScanExact(rank), Reply::Entries(es)) => {
            // Equal to the sorted preload from `rank` on: so sorted,
            // `>= start`, of the right length, every value `mix64(key)`.
            es.len() == count && es[..] == base.pairs[rank as usize..rank as usize + count]
        }
        _ => false,
    }
}

/// The reply a correct store gives, for timing the response codec
/// offline on the workload's own frames (sums the checker cannot
/// predict are encoded as 0: the codec's cost does not depend on it).
pub fn expected_reply(op: &Op, ex: Expect, base: &Base) -> Reply {
    match (*op, ex) {
        (Op::Get(k), Expect::Hit) => Reply::Found(Some(mix64(k))),
        (Op::Get(_), _) => Reply::Found(None),
        (Op::Insert(..), _) => Reply::Inserted,
        (Op::Remove(k), _) => Reply::Removed(Some(mix64(k))),
        (Op::SumRange { count, .. }, Expect::SumExact(sum)) => Reply::Sum {
            visited: count,
            sum,
        },
        (Op::SumRange { count, .. }, _) => Reply::Sum {
            visited: count,
            sum: 0,
        },
        (Op::Scan { count, .. }, Expect::ScanExact(rank)) => {
            Reply::Entries(base.pairs[rank as usize..rank as usize + count].to_vec())
        }
        (Op::Scan { .. }, _) => Reply::Entries(Vec::new()),
        (Op::FirstGe(_), _) => Reply::Entry(None),
    }
}
