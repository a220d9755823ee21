//! The zero-allocation contract of a training step: once a
//! [`nn::TrainWorkspace`] has seen its largest batch, a step (batch
//! gather, forward, loss, backward, Adam) and the validation pass perform
//! no heap allocation.
//!
//! This file is its own test binary so that its counting global allocator
//! sees only this test's allocations. The counter is thread-local, so the
//! harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nn::{Adam, Dataset, Matrix, Mlp, TrainConfig, TrainWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A seeded dataset with the IL policy's shape: 21 features, 8 targets.
fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 2001) as f32 / 1000.0 - 1.0
    };
    let x = Matrix::from_flat(rows, 21, (0..rows * 21).map(|_| next()).collect());
    let y = Matrix::from_flat(rows, 8, (0..rows * 8).map(|_| next()).collect());
    Dataset::new(x, y)
}

#[test]
fn warmed_up_training_steps_do_not_allocate() {
    let train = dataset(300, 1);
    let val = dataset(75, 2);
    let mut mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(7));
    let mut adam = Adam::new(&mlp);
    // Weight decay and clipping on, so their passes are counted too.
    let config = TrainConfig {
        weight_decay: 1e-4,
        grad_clip: 5.0,
        ..TrainConfig::default()
    };
    let mut workspace = TrainWorkspace::new(&mlp);
    // Batches of 64 and a last one of 44, as an epoch over 300 rows runs.
    let order: Vec<usize> = (0..train.len()).rev().collect();
    let epoch = |mlp: &mut Mlp, adam: &mut Adam, workspace: &mut TrainWorkspace| {
        let mut loss = 0.0;
        for batch in order.chunks(config.batch_size) {
            loss += workspace.step(mlp, adam, &train, batch, 1e-3, &config);
        }
        loss + workspace.loss(mlp, &val)
    };
    let cold = allocations();
    epoch(&mut mlp, &mut adam, &mut workspace);
    assert!(
        allocations() > cold,
        "the counter must see the first epoch size the buffers"
    );

    let before = allocations();
    let mut loss = 0.0;
    for _ in 0..3 {
        loss += epoch(&mut mlp, &mut adam, &mut workspace);
    }
    let allocated = allocations() - before;

    assert!(loss.is_finite(), "training diverged: {loss}");
    assert_eq!(adam.steps(), 4 * 5, "every step must have run");
    assert_eq!(
        allocated, 0,
        "training allocated {allocated} times over 15 warmed-up steps and 3 validation passes"
    );
}
