//! Criterion benches for the segmented [`kvcache::BlockManager`] hot
//! paths the elastic memory ledger exercises: extent grow/shrink on every
//! drop/restore, whole-extent reclaim on every donation hand-back, and
//! the allocate/append/free cycle that runs once per engine iteration.
//! Pool-resize regressions (e.g. an accidental O(extents × blocks) scan)
//! show up here before they show up in end-to-end wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kvcache::{BlockManager, ExtentTag, Loan, SeqKey};
use std::hint::black_box;

/// A whole-copy loan of an 8-layer lender, for benchmark purposes.
fn loan(lender: u32) -> Loan {
    Loan {
        lender,
        layer_start: 0,
        layer_end: 8,
    }
}

/// One drop/restore round trip: grow the remap extent, lend a borrowed
/// extent, reclaim it, shrink back — the exact sequence a KunServe
/// drop → donate → reclaim → restore cycle drives.
fn bench_grow_shrink_reclaim(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_pool_resize_cycle");
    for &seqs in &[0usize, 64, 1024] {
        let mut m = BlockManager::new(64 * 1024, 64);
        for i in 0..seqs {
            m.allocate(SeqKey(i as u64), 640).expect("fits");
        }
        g.bench_with_input(BenchmarkId::from_parameter(seqs), &seqs, |b, _| {
            b.iter(|| {
                m.grow_extent(ExtentTag::Remap, 4096);
                m.grow_extent(ExtentTag::Borrowed(loan(1)), 2048);
                let got = m
                    .reclaim_extent(ExtentTag::Borrowed(loan(1)))
                    .expect("free");
                m.shrink_extent(ExtentTag::Remap, 4096).expect("free");
                black_box(got)
            })
        });
    }
    g.finish();
}

/// The per-iteration allocator cycle at realistic pool occupancy:
/// admit a prompt, grow it through decode, free it.
fn bench_alloc_append_free(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_pool_alloc_cycle");
    for &resident in &[64usize, 1024, 8192] {
        let mut m = BlockManager::new(256 * 1024, 64);
        for i in 0..resident {
            m.allocate(SeqKey(i as u64), 640).expect("fits");
        }
        let probe = SeqKey(u64::MAX);
        g.bench_with_input(BenchmarkId::from_parameter(resident), &resident, |b, _| {
            b.iter(|| {
                m.allocate(probe, 512).expect("fits");
                for _ in 0..8 {
                    m.append_tokens(probe, 64).expect("fits");
                }
                black_box(m.free(probe).expect("live"))
            })
        });
    }
    g.finish();
}

/// Accounting reads the engine hits on every admission decision.
fn bench_accounting_reads(c: &mut Criterion) {
    let mut m = BlockManager::new(64 * 1024, 64);
    m.grow_extent(ExtentTag::Remap, 4096);
    m.grow_extent(ExtentTag::Borrowed(loan(1)), 2048);
    m.grow_extent(ExtentTag::Borrowed(loan(2)), 2048);
    for i in 0..4096u64 {
        m.allocate(SeqKey(i), 640).expect("fits");
    }
    c.bench_function("block_pool_accounting_reads", |b| {
        b.iter(|| {
            black_box((
                m.capacity_blocks(),
                m.free_blocks(),
                m.native_capacity_blocks(),
                m.borrowed_blocks(),
                m.can_allocate(4096),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_grow_shrink_reclaim,
    bench_alloc_append_free,
    bench_accounting_reads
);
criterion_main!(benches);
