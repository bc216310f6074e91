//! Zero-allocation gates for the scheduled MTTKRP kernels.
//!
//! The perf contract of the scheduling work: once a backend has built its
//! sorted views / CSF trees, its per-(tensor, mode) `ModeSchedule`, and
//! warmed its `Workspace`, a steady-state kernel call performs **zero**
//! heap allocations on the sequential path, and the dimension-tree
//! engine's scatter stays within its pooled buffers. Asserted with a
//! counting global allocator, which is why this lives in its own test
//! binary. The counter is process-global, so every test holds
//! [`serial`] for its whole body: a test running on another thread
//! would otherwise add its set-up allocations to the count.

// A `GlobalAlloc` impl is unavoidably `unsafe impl`; this file is one of
// the two sanctioned exceptions to the workspace-wide `deny(unsafe_code)`
// (the other is the bench driver's identical shim).
#![allow(unsafe_code)]

use adatm_dtree::{DtreeEngine, TreeShape};
use adatm_linalg::Mat;
use adatm_tensor::csf::CsfTensor;
use adatm_tensor::gen::zipf_tensor;
use adatm_tensor::mttkrp::{mttkrp_par_into, schedule_for_view};
use adatm_tensor::schedule::Workspace;
use adatm_tensor::{SortedModeView, SparseTensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests of this binary (a failed test poisons the lock;
/// the others still run).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocation events during one call of `f`, after the caller has warmed
/// every cache the call touches.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    f();
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

fn test_tensor() -> SparseTensor {
    zipf_tensor(&[60, 80, 50], 4000, &[0.3, 0.9, 0.6], 7)
}

fn factors_for(t: &SparseTensor, rank: usize) -> Vec<Mat> {
    t.dims()
        .iter()
        .enumerate()
        .map(|(d, &n)| {
            let mut m = Mat::zeros(n, rank);
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 31 + d * 17) % 23) as f64 * 0.1 - 1.0;
            }
            m
        })
        .collect()
}

#[test]
fn coo_scheduled_kernel_is_alloc_free_after_warmup() {
    let _serial = serial();
    let t = test_tensor();
    let factors = factors_for(&t, 8);
    for mode in 0..t.ndim() {
        let view = SortedModeView::build(&t, mode);
        // threads=1 => single Owned task => the inline sequential path.
        let sched = schedule_for_view(&view, 1);
        let mut ws = Workspace::new();
        let mut out = Mat::zeros(t.dims()[mode], 8);
        mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
        let n = allocs_during(|| {
            mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
        });
        assert_eq!(n, 0, "mode {mode}: {n} steady-state allocation(s)");
    }
}

#[test]
fn csf_scheduled_kernel_is_alloc_free_after_warmup() {
    let _serial = serial();
    let t = test_tensor();
    let factors = factors_for(&t, 8);
    for mode in 0..t.ndim() {
        let csf = CsfTensor::for_mode(&t, mode);
        let sched = csf.root_schedule(1);
        let mut ws = Workspace::new();
        let mut out = Mat::zeros(t.dims()[mode], 8);
        csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
        let n = allocs_during(|| {
            csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
        });
        assert_eq!(n, 0, "mode {mode}: {n} steady-state allocation(s)");
    }
}

#[test]
fn parallel_path_allocations_stay_bounded() {
    let _serial = serial();
    // The parallel path allocates O(tasks) bookkeeping (the task-context
    // vector plus the thread shim's dispatch) but must never grow with
    // the number of groups.
    let t = test_tensor();
    let factors = factors_for(&t, 8);
    let mode = 1;
    let view = SortedModeView::build(&t, mode);
    let sched = schedule_for_view(&view, 8);
    let mut ws = Workspace::new();
    let mut out = Mat::zeros(t.dims()[mode], 8);
    mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
    let n = allocs_during(|| {
        mttkrp_par_into(&t, &factors, mode, &view, &sched, &mut ws, &mut out);
    });
    assert!(n <= 16 * sched.num_tasks() as u64 + 64, "parallel path made {n} allocations");
}

#[test]
fn dtree_scatter_reuses_pooled_buffers() {
    let _serial = serial();
    // The dimension-tree engine recycles node buffers through its pool;
    // a steady-state recompute+scatter must stay within a small constant
    // of bookkeeping allocations rather than reallocating intermediates.
    let t = test_tensor();
    let rank = 8;
    let factors = factors_for(&t, rank);
    let shape = TreeShape::balanced_binary(t.ndim());
    let mut engine = DtreeEngine::new(&t, &shape, rank);
    let mut out = Mat::zeros(t.dims()[1], rank);
    for _ in 0..2 {
        engine.invalidate_all();
        engine.mttkrp_into(&t, &factors, 1, &mut out);
    }
    engine.invalidate_all();
    let n = allocs_during(|| {
        engine.mttkrp_into(&t, &factors, 1, &mut out);
    });
    assert!(n <= 256, "dtree steady-state recompute made {n} allocations");
}
