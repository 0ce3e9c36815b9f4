//! The paper's feasibility argument, executed: thread-arrival measurements
//! feed the early-bird delivery simulator, and the simulated outcomes must
//! reproduce the Discussion section's qualitative conclusions.

use early_bird::analysis::engine::{
    delivery_sweep_parallel_with_arenas, generate_campaign_parallel, EngineArenas,
};
use early_bird::analysis::laggard::{ArrivalClass, ClassifiedIteration};
use early_bird::analysis::scan::trace_scan_parallel_with_arenas;
use early_bird::cluster::calibration::{LAGGARD_THRESHOLD_MS, MINIMD_PHASE_BOUNDARY};
use early_bird::cluster::{JobConfig, SyntheticApp, Workload};
use early_bird::partcomm::{
    link_by_name, run_delivery, DeliveryOutcome, LinkModel, SerialLink, SimScratch, Strategy,
};
use early_bird::runtime::Pool;

/// One strategy for one sender over a fresh link.
fn simulate(
    arrivals_ms: &[f64],
    bytes_total: usize,
    link: &LinkModel,
    strategy: Strategy,
) -> DeliveryOutcome {
    run_delivery(
        &mut SerialLink::new(*link),
        &[arrivals_ms],
        bytes_total,
        strategy,
        &mut SimScratch::new(),
    )
}

const BUF: usize = 8_000_000;

fn arrivals(app: &SyntheticApp, iteration: usize) -> Vec<f64> {
    app.generate(&JobConfig::new(1, 1, iteration + 1, 48), 11)
        .process_iteration_ms(0, 0, iteration)
        .unwrap()
}

#[test]
fn miniqmc_benefits_most_from_early_bird() {
    // §5: "applications with workloads similar to MiniQMC would significantly
    // benefit from … fine-grain early-bird communication".
    let link = LinkModel::omni_path();
    let mut savings = Vec::new();
    for app in SyntheticApp::all() {
        let a = arrivals(&app, 30);
        let bulk = simulate(&a, BUF, &link, Strategy::Bulk);
        let eb = simulate(&a, BUF, &link, Strategy::EarlyBird);
        savings.push((
            app.name().to_string(),
            bulk.completion_ms - eb.completion_ms,
            bulk.exposed_ms() - eb.exposed_ms(),
        ));
    }
    // Every app saves something on a low-α link…
    for (name, saved, exposed_saved) in &savings {
        assert!(*saved >= 0.0, "{name} lost {saved} ms");
        assert!(
            *exposed_saved >= 0.0,
            "{name} exposed more: {exposed_saved}"
        );
    }
    // …and MiniQMC's wide arrivals hide at least as much as the others.
    let fe = savings[0].1;
    let qmc = savings[2].1;
    assert!(
        qmc >= fe * 0.9,
        "QMC saving {qmc} should rival/beat FE {fe}"
    );
}

#[test]
fn tight_arrivals_with_high_alpha_penalize_early_bird() {
    // §2: "If the thread arrival times are too similar, we expect applications
    // to see a negative performance impact from moving to partitioned
    // communication." MiniMD's steady phase is the tight case.
    let link = link_by_name("high-latency").expect("a named link");
    // Build a steady, laggard-free MiniMD iteration by scanning a few.
    let app = SyntheticApp::minimd();
    let tr = app.generate(&JobConfig::new(1, 1, 60, 48), 3);
    let mut tight: Option<Vec<f64>> = None;
    for i in 19..60 {
        let ms = tr.process_iteration_ms(0, 0, i).unwrap();
        let max = ms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let med = early_bird::stats::median(&ms).unwrap();
        if max - med < 0.5 {
            tight = Some(ms);
            break;
        }
    }
    let tight = tight.expect("steady MiniMD iterations are mostly laggard-free");
    let bulk = simulate(&tight, BUF, &link, Strategy::Bulk);
    let eb = simulate(&tight, BUF, &link, Strategy::EarlyBird);
    assert!(
        eb.completion_ms > bulk.completion_ms,
        "48·α should overwhelm the tiny overlap: eb {} vs bulk {}",
        eb.completion_ms,
        bulk.completion_ms
    );
}

#[test]
fn timeout_flush_recovers_most_of_the_laggard_win_for_minife() {
    // §5 proposes a timeout-based flush for MiniFE's pattern (laggards in
    // ~22% of iterations): it must capture most of early-bird's win at a
    // fraction of the messages.
    let link = LinkModel::omni_path();
    let app = SyntheticApp::minife();
    let tr = app.generate(&JobConfig::new(1, 1, 200, 48), 17);
    // Find a laggard iteration (max − median > 1 ms).
    let mut laggard: Option<Vec<f64>> = None;
    for i in 0..200 {
        let ms = tr.process_iteration_ms(0, 0, i).unwrap();
        let max = ms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let med = early_bird::stats::median(&ms).unwrap();
        if max - med > 1.0 {
            laggard = Some(ms);
            break;
        }
    }
    let arrivals = laggard.expect("~22% of MiniFE iterations have laggards");
    let bulk = simulate(&arrivals, BUF, &link, Strategy::Bulk);
    let eb = simulate(&arrivals, BUF, &link, Strategy::EarlyBird);
    let flush = simulate(
        &arrivals,
        BUF,
        &link,
        Strategy::TimeoutFlush { timeout_ms: 0.5 },
    );
    let eb_win = bulk.completion_ms - eb.completion_ms;
    let flush_win = bulk.completion_ms - flush.completion_ms;
    assert!(eb_win > 0.0);
    assert!(
        flush_win > 0.5 * eb_win,
        "timeout flush win {flush_win} should be most of early-bird's {eb_win}"
    );
    assert!(
        flush.messages < eb.messages / 2,
        "aggregation must reduce message count: {} vs {}",
        flush.messages,
        eb.messages
    );
}

#[test]
fn binned_aggregation_scales_between_extremes() {
    let link = link_by_name("high-latency").expect("a named link");
    let a = arrivals(&SyntheticApp::miniqmc(), 10);
    let mut completions = Vec::new();
    for bins in [1, 2, 4, 8, 16, 48] {
        let o = simulate(&a, BUF, &link, Strategy::Binned { bins });
        completions.push(o.completion_ms);
    }
    // 1 bin ≡ bulk; 48 bins ≡ early-bird; intermediate values must stay
    // within the envelope of the two extremes.
    let lo = completions.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = completions
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(completions[0] == hi || completions[5] == hi || completions[0] == lo);
    for c in &completions {
        assert!(*c >= lo && *c <= hi);
    }
}

#[test]
fn reclaimable_time_bounds_the_overlap_win() {
    // The overlap any strategy can exploit is bounded by the idle time the
    // measurement pipeline reports: completion can never drop below
    // last_arrival, so the win over bulk is at most bulk's exposed transfer.
    let link = LinkModel::omni_path();
    for app in SyntheticApp::all() {
        let a = arrivals(&app, 25);
        let bulk = simulate(&a, BUF, &link, Strategy::Bulk);
        for strat in [
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: 1.0 },
            Strategy::Binned { bins: 8 },
        ] {
            let o = simulate(&a, BUF, &link, strat);
            let win = bulk.completion_ms - o.completion_ms;
            assert!(
                win <= bulk.exposed_ms() + 1e-9,
                "{}: win {win} exceeds exposed {}",
                app.name(),
                bulk.exposed_ms()
            );
            assert!(o.completion_ms >= o.last_arrival_ms);
        }
    }
}

#[test]
fn across_the_campaign_early_bird_suits_miniqmc_and_minife_but_rarely_minimd() {
    // The paper's macro-level conclusion ("across all threads across all
    // runs"): MiniFE and MiniQMC suit early-bird delivery, MiniMD's steady
    // state mostly does not. Priced by the engine's delivery stage on every
    // process-iteration of a 2 × 2 × 60 × 48 campaign over a link whose
    // start-up cost makes 48 messages dearer than one.
    let link = link_by_name("high-latency").expect("a named link");
    let cfg = JobConfig::new(2, 2, 60, 48);
    let apps = SyntheticApp::all();
    let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
    let analyse = |workers: usize| {
        let pool = Pool::new(workers);
        let mut arenas = EngineArenas::new(workers);
        let traces = generate_campaign_parallel(&workloads, &cfg, 11, &pool).unwrap();
        traces
            .iter()
            .map(|tr| {
                let scan =
                    trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, &pool, &mut arenas);
                let outcomes = delivery_sweep_parallel_with_arenas(
                    tr,
                    BUF,
                    || SerialLink::new(link),
                    &pool,
                    &mut arenas,
                );
                (scan.census.iterations, outcomes)
            })
            .collect::<Vec<_>>()
    };
    let analysed = analyse(1);
    assert_eq!(analysed, analyse(3), "pool size must not change a bit");

    // Share of the process-iterations `keep` selects whose early-bird
    // exposed cost is below bulk's (outcome rows are [bulk, early-bird, ..]).
    // Records are in trace order, so `keep` reads a unit's iteration off
    // the campaign's shape.
    let share = |app: usize, keep: &dyn Fn(usize, &ClassifiedIteration) -> bool| {
        let (census, outcomes) = &analysed[app];
        let kept: Vec<_> = census
            .iter()
            .zip(outcomes)
            .enumerate()
            .filter(|(unit, (c, _))| keep(cfg.shape().unit_coords(*unit).2, c))
            .map(|(_, pair)| pair)
            .collect();
        let wins = kept
            .iter()
            .filter(|(_, row)| row[1].exposed_ms() < row[0].exposed_ms())
            .count();
        wins as f64 / kept.len() as f64
    };
    let fe = share(0, &|_, _| true);
    let md = share(1, &|iteration, _| iteration >= MINIMD_PHASE_BOUNDARY);
    let qmc = share(2, &|_, _| true);
    assert!(
        md < fe && fe < qmc,
        "MiniMD {md} < MiniFE {fe} < MiniQMC {qmc}"
    );
    assert!(md < 0.10 && qmc > 0.95, "MiniMD {md}, MiniQMC {qmc}");
    // What early-bird hides behind is a laggard: MiniFE's win is its
    // laggard-containing process-iterations, not its laggard-free ones.
    let with_laggard = share(0, &|_, c| c.class == ArrivalClass::Laggard);
    let without = share(0, &|_, c| c.class == ArrivalClass::NoLaggard);
    assert!(
        with_laggard > 0.5 && without < 0.05,
        "MiniFE: {with_laggard} with a laggard vs {without} without"
    );
}
