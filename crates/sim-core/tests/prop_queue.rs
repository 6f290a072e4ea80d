//! Property tests for the event queue: whatever mix of time-ordered runs,
//! pushes behind the lane's tail and equal times it sees, it pops exactly
//! in `(time, insertion order)` order.

use proptest::prelude::*;
use sim_core::{EventQueue, SimTime};

#[derive(Debug, Clone)]
enum Op {
    /// One push at an arbitrary time (often behind the lane's tail).
    Push(u64),
    /// `len` pushes in non-decreasing time order from `from`, stepping by
    /// `0..=step` (0 gives runs of equal times).
    Run {
        from: u64,
        len: usize,
        step: u64,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40).prop_map(Op::Push),
        ((0u64..40), (1usize..16), (0u64..4)).prop_map(|(from, len, step)| Op::Run {
            from,
            len,
            step
        }),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// The reference queue: `(time, seq)` pairs popped by a linear minimum.
#[derive(Default)]
struct Reference {
    pending: Vec<(SimTime, u64)>,
    seq: u64,
}

impl Reference {
    fn push(&mut self, time: SimTime) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.pending.push((time, seq));
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (i, _) = self.pending.iter().enumerate().min_by_key(|&(_, e)| *e)?;
        Some(self.pending.swap_remove(i))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.iter().min().map(|&(t, _)| t)
    }
}

fn assert_same(q: &EventQueue<u64>, reference: &Reference) {
    assert_eq!(q.peek_time(), reference.peek_time());
    assert_eq!(q.len(), reference.pending.len());
    assert_eq!(q.is_empty(), reference.pending.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pops_in_time_then_insertion_order(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut q = EventQueue::new();
        let mut reference = Reference::default();
        for op in ops {
            match op {
                Op::Push(t) => {
                    let t = SimTime::from_micros(t);
                    q.push(t, reference.push(t));
                }
                Op::Run { from, len, step } => {
                    for k in 0..len as u64 {
                        let t = SimTime::from_micros(from + k * step);
                        q.push(t, reference.push(t));
                    }
                }
                Op::Pop => prop_assert_eq!(q.pop(), reference.pop()),
            }
            assert_same(&q, &reference);
        }
        while let Some(expected) = reference.pop() {
            prop_assert_eq!(q.pop(), Some(expected));
            assert_same(&q, &reference);
        }
        prop_assert_eq!(q.pop(), None);
    }
}
