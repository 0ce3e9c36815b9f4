//! Trace persistence across crates: live and synthetic traces must survive
//! JSON, CSV and binary round-trips with analysis results intact, and the
//! three readers must survive whatever bytes they are handed — `Ok` with a
//! trace whose every accessor is in range, or a typed `CoreError`.

use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::apps::{MiniFe, MiniFeParams};
use early_bird::cluster::{run_real_campaign, JobConfig, SyntheticApp};
use early_bird::core::{io, CoreError, ThreadSample, TimingTrace, TraceShape};
use proptest::prelude::*;

#[test]
fn synthetic_trace_json_roundtrip_preserves_analysis() {
    let trace = SyntheticApp::minimd().generate(&JobConfig::ci_scale(), 9);
    let mut buf = Vec::new();
    io::write_json(&trace, &mut buf).unwrap();
    let back = io::read_json(&buf[..]).unwrap();
    assert_eq!(trace, back);
    // Analysis results are identical on the round-tripped trace.
    let m1 = reclaim_metrics(&trace);
    let m2 = reclaim_metrics(&back);
    assert_eq!(m1, m2);
}

#[test]
fn synthetic_trace_csv_roundtrip() {
    let trace = SyntheticApp::miniqmc().generate(&JobConfig::new(1, 2, 4, 6), 10);
    let mut buf = Vec::new();
    io::write_csv(&trace, &mut buf).unwrap();
    let back = io::read_csv(&buf[..]).unwrap();
    assert_eq!(trace, back);
}

#[test]
fn live_trace_file_roundtrip() {
    let cfg = JobConfig::new(1, 1, 3, 2);
    let trace = run_real_campaign(&cfg, |_, _| {
        Box::new(MiniFe::new(MiniFeParams::test_scale()))
    })
    .unwrap();
    let dir = std::env::temp_dir().join("early_bird_io_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.json");
    io::save_json(&trace, &path).unwrap();
    let back = io::load_json(&path).unwrap();
    assert_eq!(trace, back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_and_json_roundtrips_agree_on_synthetic_traces() {
    // Same trace through both persistence formats: identical results, and
    // identical analysis downstream.
    let trace = SyntheticApp::miniqmc().generate(&JobConfig::ci_scale(), 21);
    let mut json = Vec::new();
    io::write_json(&trace, &mut json).unwrap();
    let mut bin = Vec::new();
    io::write_binary(&trace, &mut bin).unwrap();
    let from_json = io::read_json(&json[..]).unwrap();
    let from_bin = io::read_binary(&bin[..]).unwrap();
    assert_eq!(from_json, from_bin);
    assert_eq!(reclaim_metrics(&from_json), reclaim_metrics(&from_bin));
}

#[test]
fn binary_json_roundtrip_preserves_unset_sentinel() {
    // What the collector's `u64::MAX` "unset" sentinel means now that a
    // sample is its compute time: a slot nobody stamped drains as a zero
    // sample, the same zero a stamp pair that went backwards saturates to,
    // and that zero survives binary → JSON → binary unchanged.
    use early_bird::core::IterationCollector;
    let unset = ThreadSample::new(u64::MAX, u64::MAX);
    assert_eq!(unset, ThreadSample::default());
    // `new` debug-asserts `exit ≥ enter`; where that is compiled out, the
    // pair stores zero.
    #[cfg(not(debug_assertions))]
    assert_eq!(ThreadSample::new(5, 1), unset);

    let collector = IterationCollector::new(3, 4);
    for iteration in 0..3 {
        for thread in [1, 3] {
            collector.record_enter(iteration, thread, iteration as u64);
            collector.record_exit(iteration, thread, iteration as u64 + 1_000_000);
        }
    }
    let mut trace = TimingTrace::new("sentinel", TraceShape::new(1, 2, 3, 4).unwrap());
    collector.drain_into(&mut trace, 0, 1).unwrap();
    let unit = trace.process_iteration(0, 1, 2).unwrap();
    assert_eq!(
        unit,
        [
            unset,
            ThreadSample::new(2, 1_000_002),
            unset,
            ThreadSample::new(0, 1_000_000)
        ]
    );

    let mut bin = Vec::new();
    io::write_binary(&trace, &mut bin).unwrap();
    let from_bin = io::read_binary(&bin[..]).unwrap();
    let mut json = Vec::new();
    io::write_json(&from_bin, &mut json).unwrap();
    let from_json = io::read_json(&json[..]).unwrap();
    let mut bin2 = Vec::new();
    io::write_binary(&from_json, &mut bin2).unwrap();
    assert_eq!(trace, from_json);
    assert_eq!(bin, bin2, "byte-exact after a JSON detour");
}

#[test]
fn binary_file_roundtrip_of_live_trace() {
    let cfg = JobConfig::new(1, 1, 3, 2);
    let trace = run_real_campaign(&cfg, |_, _| {
        Box::new(MiniFe::new(MiniFeParams::test_scale()))
    })
    .unwrap();
    let dir = std::env::temp_dir().join("early_bird_io_bin_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.bin");
    io::save_binary(&trace, &path).unwrap();
    let back = io::load_binary(&path).unwrap();
    assert_eq!(trace, back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_and_json_agree() {
    let trace = SyntheticApp::minife().generate(&JobConfig::new(1, 1, 3, 4), 11);
    let mut json = Vec::new();
    io::write_json(&trace, &mut json).unwrap();
    let mut csv = Vec::new();
    io::write_csv(&trace, &mut csv).unwrap();
    let from_json = io::read_json(&json[..]).unwrap();
    let from_csv = io::read_csv(&csv[..]).unwrap();
    assert_eq!(from_json, from_csv);
}

#[test]
fn trials_can_be_merged_after_separate_runs() {
    // The paper ran 10 separate trials; merging per-trial traces must equal a
    // single campaign of the combined trial count.
    let app = SyntheticApp::minife();
    let whole = app.generate(&JobConfig::new(2, 2, 5, 8), 12);
    // Each trial regenerated independently (hierarchical seeding) …
    let cfg1 = JobConfig::new(1, 2, 5, 8);
    let mut t0 = app.generate(&cfg1, 12);
    // … with trial index 1's data produced by generating the 2-trial campaign
    // and slicing: regenerate via process_iteration_ms for trial 1.
    let mut t1 = TimingTrace::new(app.name(), cfg1.shape());
    for rank in 0..2 {
        for iter in 0..5 {
            let ms = app.process_iteration_ms(12, 1, rank, iter, 8);
            let dst = t1.process_iteration_mut(0, rank, iter).unwrap();
            for (slot, v) in dst.iter_mut().zip(&ms) {
                *slot = ThreadSample::new(0, (v * 1.0e6).round() as u64);
            }
        }
    }
    t0.append_trials(&t1).unwrap();
    assert_eq!(t0, whole);
}

/// One reader and one writer per format.
type Reader = fn(&[u8]) -> Result<TimingTrace, CoreError>;
type Writer = fn(&TimingTrace, &mut Vec<u8>) -> Result<(), CoreError>;
const FORMATS: [(&str, Writer, Reader); 3] = [
    (
        "binary",
        |t, w| io::write_binary(t, w),
        |b| io::read_binary(b),
    ),
    ("csv", |t, w| io::write_csv(t, w), |b| io::read_csv(b)),
    ("json", |t, w| io::write_json(t, w), |b| io::read_json(b)),
];

/// A trace of the given shape whose compute times cycle through `picks`,
/// every fourth pick replaced by one of the extremes 0, 1 and `u64::MAX`.
fn trace_from_picks(dims: [usize; 4], picks: &[u64]) -> TimingTrace {
    let shape = TraceShape::new(dims[0], dims[1], dims[2], dims[3]).unwrap();
    let samples = (0..shape.total_samples())
        .map(|flat| {
            let pick = picks[flat % picks.len()];
            ThreadSample::new(0, [0, 1, u64::MAX, pick][(pick % 4) as usize])
        })
        .collect();
    TimingTrace::from_samples("fuzz", shape, samples).unwrap()
}

/// Runs one reader; what it returns is either an error value or a trace
/// that can be walked end to end (a panic anywhere fails the test).
fn read_and_walk(read: Reader, bytes: &[u8]) -> Result<TimingTrace, CoreError> {
    let trace = read(bytes)?;
    assert_eq!(trace.samples().len(), trace.shape().total_samples());
    let walked: usize = trace
        .iter_process_iterations()
        .map(|(_, _, _, unit)| unit.len())
        .sum();
    assert_eq!(walked, trace.samples().len());
    Ok(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn write_read_write_is_byte_exact_in_every_format(
        trials in 1usize..3, ranks in 1usize..3, iterations in 1usize..4, threads in 1usize..6,
        picks in proptest::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let trace = trace_from_picks([trials, ranks, iterations, threads], &picks);
        for (format, write, read) in FORMATS {
            let mut first = Vec::new();
            write(&trace, &mut first).unwrap();
            let back = read_and_walk(read, &first).unwrap();
            prop_assert_eq!(&back, &trace, "{} changed the trace", format);
            let mut second = Vec::new();
            write(&back, &mut second).unwrap();
            prop_assert_eq!(first, second, "{} is not byte-exact", format);
        }
    }

    #[test]
    fn readers_survive_arbitrary_bytes(
        noise in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..200),
    ) {
        // Bare, and behind each format's opening bytes so the noise reaches
        // the fields past the header checks.
        let mut binary = io::BINARY_MAGIC.to_vec();
        binary.extend_from_slice(&io::BINARY_VERSION.to_le_bytes());
        let csv = format!("{}\nfuzz,", io::CSV_HEADER).into_bytes();
        let json = b"{\"app\":\"fuzz\",\"shape\":".to_vec();
        // The same noise folded onto the bytes the text formats are made of,
        // so that it parses far enough to be a number, a row or a nesting.
        let alphabet = b"0123456789,\n-.e:\"[]{} ";
        let textual: Vec<u8> = noise.iter().map(|&b| alphabet[b as usize % alphabet.len()]).collect();
        for ((_, _, read), opening) in FORMATS.into_iter().zip([binary, csv, json]) {
            for body in [&noise, &textual] {
                let _ = read_and_walk(read, body);
                let _ = read_and_walk(read, &[&opening[..], &body[..]].concat());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn readers_survive_one_flipped_byte_and_truncation_at_every_offset(
        ranks in 1usize..3, iterations in 1usize..3, threads in 1usize..4,
        picks in proptest::collection::vec(0u64..u64::MAX, 1..12),
        shift in 0usize..8,
    ) {
        let trace = trace_from_picks([1, ranks, iterations, threads], &picks);
        for (format, write, read) in FORMATS {
            let mut file = Vec::new();
            write(&trace, &mut file).unwrap();
            for at in 0..file.len() {
                let truncated = read_and_walk(read, &file[..at]);
                // Every byte of a binary file is accounted for by its header.
                prop_assert!(
                    format != "binary" || truncated.is_err(),
                    "binary file cut at {} of {} still loaded", at, file.len()
                );
                let mut flipped = file.clone();
                flipped[at] ^= 1 << ((at + shift) % 8);
                let _ = read_and_walk(read, &flipped);
            }
        }
    }
}
