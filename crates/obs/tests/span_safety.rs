//! Span panic safety: a panicking job still records its spans. Guards are
//! RAII, so unwinding closes every open span with the time accrued up to
//! the panic, and later spans record normally.

use ebird_obs::{ManualClock, Registry, TimeSource};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

#[test]
fn a_panicking_job_still_records_its_spans() {
    let clock = Arc::new(ManualClock::new());
    let reg = Registry::with_time(Arc::clone(&clock) as Arc<dyn TimeSource>);

    let result = catch_unwind(AssertUnwindSafe(|| {
        let _outer = reg.span("job");
        clock.advance(10);
        let _inner = reg.span("job.phase");
        clock.advance(5);
        panic!("job blew up mid-span");
    }));
    assert!(result.is_err(), "the job must actually panic");

    // Unwinding closed both spans, with the durations accrued up to the
    // panic …
    let snap = reg.snapshot();
    let (job, phase) = (
        snap.histogram("span.job.ns"),
        snap.histogram("span.job.phase.ns"),
    );
    assert_eq!((job.count(), job.total()), (1, 15));
    assert_eq!((phase.count(), phase.total()), (1, 5));

    // … and a later span records normally.
    {
        let _next = reg.span("job");
        clock.advance(7);
    }
    let job = reg.snapshot().histogram("span.job.ns");
    assert_eq!((job.count(), job.total()), (2, 22));
}

#[test]
fn panic_inside_worker_thread_does_not_poison_the_registry() {
    let reg = Arc::new(Registry::wall());
    let reg2 = Arc::clone(&reg);
    let handle = std::thread::spawn(move || {
        let _span = reg2.span("worker");
        panic!("worker died");
    });
    assert!(handle.join().is_err());
    // The registry still snapshots and records after the dead thread.
    reg.counter("after").incr();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("after"), 1);
    assert_eq!(snap.histogram("span.worker.ns").count(), 1);
}
