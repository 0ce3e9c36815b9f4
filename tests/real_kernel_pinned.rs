//! Metered real-kernel traces cannot move.
//!
//! A `RealKernel` workload's trace is a pure function of its kernel, its
//! parameters and its seed: the work-metered clock charges each thread its
//! operation count, so the same cell yields the same bytes on any host, and
//! the campaign service caches the rows priced from it forever. These
//! hashes were recorded before the live-kernel path was reduced to one
//! timed pool entry, one campaign runner and one kernel factory; a seed,
//! size or arithmetic slip in any of the three kernels changes its hash.
//! (`scenario_rows_pinned` sees only MiniFE's metered kernel.)
//!
//! Three iterations are not enough to see a seed: MiniMD's neighbor counts
//! first depend on its seeded velocities at the rebuild after step 20, and
//! MiniQMC's metered work (electron moves proposed) never depends on it. So
//! MiniMD is also pinned past that rebuild, where the two seeds differ.

use early_bird::cluster::{JobConfig, RealKernelParams, Workload, WorkloadSpec};
use early_bird::core::TimingTrace;
use early_bird::runtime::Pool;
use early_bird::serve::ContentKey;

/// `ContentKey` hex of each trace's samples, written as the lowercase hex
/// text of their little-endian `u64` nanosecond words in trace order, at
/// `JobConfig::new(2, 2, 3, 4)`.
const PINNED: [(&str, u64, &str); 6] = [
    ("MiniFE", 20230421, "d114abba5938cb300c84edb30ea6925d"),
    ("MiniMD", 20230421, "b535e03cb5cb19dc99fb1b7304e35d4d"),
    ("MiniQMC", 20230421, "6dca84e76cd80ebee8a208d27521f5ed"),
    ("MiniFE", 7, "d114abba5938cb300c84edb30ea6925d"),
    ("MiniMD", 7, "b535e03cb5cb19dc99fb1b7304e35d4d"),
    ("MiniQMC", 7, "6dca84e76cd80ebee8a208d27521f5ed"),
];

/// MiniMD at `JobConfig::new(1, 2, 22, 3)`: past the first post-melt
/// neighbor rebuild.
const MELTED_MINIMD: [(u64, &str); 2] = [
    (20230421, "2fc4ebc2b0d819fa3a0e5af820b81ec9"),
    (7, "2e3710a790b41605bc56e87dbe92c6c9"),
];

fn sample_words_hex(trace: &TimingTrace) -> String {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(trace.samples().len() * 16);
    for sample in trace.samples() {
        for byte in sample.compute_time_ns().to_le_bytes() {
            let _ = write!(text, "{byte:02x}");
        }
    }
    text
}

fn metered_hex(app: &str, cfg: &JobConfig, seed: u64) -> String {
    let workload = WorkloadSpec::RealKernel {
        app: app.to_string(),
        params: RealKernelParams::default(),
    }
    .resolve()
    .unwrap();
    let trace = workload
        .generate_trace_parallel(cfg, seed, &Pool::new(1))
        .unwrap();
    assert_eq!(trace.app(), format!("real({app})"));
    assert_eq!(trace.shape(), cfg.shape());
    assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
    ContentKey::of(sample_words_hex(&trace)).hex()
}

#[test]
fn metered_real_kernel_traces_are_the_ones_recorded() {
    let cfg = JobConfig::new(2, 2, 3, 4);
    for (app, seed, hex) in PINNED {
        assert_eq!(metered_hex(app, &cfg, seed), hex, "{app} at seed {seed}");
    }
    let melted = JobConfig::new(1, 2, 22, 3);
    for (seed, hex) in MELTED_MINIMD {
        assert_eq!(metered_hex("MiniMD", &melted, seed), hex, "seed {seed}");
    }
}
