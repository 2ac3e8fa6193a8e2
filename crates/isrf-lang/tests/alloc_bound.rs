//! Heap allocations of a cold admission's front end, counted: parsing a
//! kernel allocates a constant number of times per op it lowers to (the
//! operand list of each op, one box per binary expression, the statement
//! and token lists as they grow), and scheduling it a constant number of
//! times whatever its size. The front end this replaced cloned every
//! identifier twice and keyed three maps by `String` (851 allocations for
//! the benchmark family's mean kernel of 228 ops); its scheduler allocated a
//! `Vec` per reservation-table probe (2 900, and 28 809 for 1 288 ops).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use isrf_core::config::{ConfigName, MachineConfig};
use isrf_kernel::sched::{schedule, SchedParams};
use isrf_lang::parse_kernel;

mod family;
use family::source;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor runs
// after thread-local teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller's for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn parse_and_schedule_allocate_in_proportion_to_the_kernel() {
    let params = SchedParams::from_machine(&MachineConfig::preset(ConfigName::Isrf4));
    let shapes = [
        ("fir", 8),
        ("fir", 64),
        ("fir", 256),
        ("lut", 1),
        ("lut", 6),
        ("ladder", 4),
        ("ladder", 64),
    ];
    for (template, size) in shapes {
        let src = source(template, size);
        let (kernel, parsing) = counted(|| parse_kernel(&src).unwrap());
        let ops = kernel.ops.len() as u64;
        if (template, size) == ("fir", 256) {
            assert_eq!(ops, 1288);
        }
        assert!(
            parsing <= 2 * ops + 16,
            "{template}-{size}: {parsing} allocations to parse {ops} ops"
        );
        let (sched, scheduling) = counted(|| schedule(&kernel, &params).unwrap());
        assert!(sched.ii >= 1);
        assert!(
            scheduling <= 32,
            "{template}-{size}: {scheduling} allocations to schedule {ops} ops"
        );
    }
}
