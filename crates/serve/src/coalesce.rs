//! The greedy micro-batch coalescer.
//!
//! One joint-prediction protocol round can answer any number of queued
//! queries, but each round pays fixed costs — model dispatch, defense
//! application, and in a real deployment the secure-computation round
//! trip itself. The coalescer drains the server's request queue into one
//! round: the first job, plus everything already queued behind it, up
//! to a row budget ([`Coalescer::max_rows`]).
//!
//! It never waits for traffic that has not arrived. A closed-loop
//! client has one request in flight, so a round that waited for more
//! rows would wait for rows no client can send; the queue fills on its
//! own while the previous round runs, which is where concurrent load
//! gets its batching. `max_rows = 1` is one job per round.
//!
//! The row cap is strict: a job that would overflow the round is
//! *carried* into the next round instead of packed (see
//! [`Coalescer::drain`]), so `rows ≤ max_rows` holds for every round
//! with more than one job and arrival order is preserved across rounds.

use std::sync::mpsc::Receiver;

/// Anything the coalescer can pack into a round: a queued job knows how
/// many query rows it contributes.
pub trait Coalescible {
    /// Query rows this job adds to the round.
    fn rows(&self) -> usize;
}

/// Queue-draining policy for one prediction round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalescer {
    /// Close the round once it holds at least this many rows.
    pub max_rows: usize,
}

impl Coalescer {
    /// A coalescing policy of up to `max_rows` rows per round (at least
    /// one).
    pub fn new(max_rows: usize) -> Self {
        Coalescer {
            max_rows: max_rows.max(1),
        }
    }

    /// Drains `rx` into one round starting from `first` (which the
    /// caller already received): `first` plus whatever is already
    /// queued, in arrival order. Never blocks.
    ///
    /// The row cap is *strict*: a job that would push the round past
    /// `max_rows` is not packed — it is parked in `carry`, closes the
    /// round, and must be fed back as the next round's `first` (the
    /// batcher loop does this), so arrival order is preserved across
    /// rounds. The single exception is a lone job whose own row count
    /// exceeds the cap: it forms a round of one, because splitting a
    /// request across protocol rounds would change what the defense
    /// pipeline sees released together. The resulting invariant, which
    /// the property sweep pins: every round satisfies
    /// `rows ≤ max_rows || jobs.len() == 1`.
    ///
    /// `carry` must be `None` on entry; the caller owns the parked job
    /// between rounds.
    pub fn drain<T: Coalescible>(
        &self,
        rx: &Receiver<T>,
        first: T,
        carry: &mut Option<T>,
    ) -> Vec<T> {
        debug_assert!(carry.is_none(), "previous round's carry was not consumed");
        let mut rows = first.rows();
        let mut jobs = vec![first];
        while rows < self.max_rows {
            let Ok(job) = rx.try_recv() else {
                break;
            };
            if rows + job.rows() > self.max_rows {
                *carry = Some(job);
                break;
            }
            rows += job.rows();
            jobs.push(job);
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    struct Job(usize);
    impl Coalescible for Job {
        fn rows(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn cap_of_one_never_merges() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        tx.send(Job(1)).unwrap();
        let mut carry = None;
        let round = Coalescer::new(1).drain(&rx, Job(1), &mut carry);
        assert_eq!(round.len(), 1);
        assert!(carry.is_none());
        // The queued jobs are untouched for the next rounds.
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn greedy_drain_takes_everything_queued() {
        let (tx, rx) = mpsc::channel();
        for _ in 0..5 {
            tx.send(Job(1)).unwrap();
        }
        let mut carry = None;
        let round = Coalescer::new(64).drain(&rx, Job(1), &mut carry);
        assert_eq!(round.len(), 6);
        assert!(carry.is_none());
    }

    #[test]
    fn row_budget_is_a_strict_cap() {
        let (tx, rx) = mpsc::channel();
        for _ in 0..10 {
            tx.send(Job(2)).unwrap();
        }
        let mut carry = None;
        let round = Coalescer::new(5).drain(&rx, Job(2), &mut carry);
        // 2 + 2 = 4; a third job would make 6 > 5, so it is carried to
        // the next round rather than packed past the cap.
        assert_eq!(round.len(), 2);
        assert_eq!(round.iter().map(Coalescible::rows).sum::<usize>(), 4);
        assert_eq!(carry.take().map(|j| j.rows()), Some(2));
        assert_eq!(rx.try_iter().count(), 8);
    }

    #[test]
    fn oversized_lone_job_still_forms_a_round() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        let mut carry = None;
        let round = Coalescer::new(4).drain(&rx, Job(9), &mut carry);
        // A single job above the cap runs alone; nothing else joins it.
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].rows(), 9);
        assert!(carry.is_none());
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn first_job_at_budget_returns_immediately() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        let mut carry = None;
        let round = Coalescer::new(4).drain(&rx, Job(4), &mut carry);
        assert_eq!(round.len(), 1);
        assert!(carry.is_none());
        assert_eq!(rx.try_iter().count(), 1);
    }
}
