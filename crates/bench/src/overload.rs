//! The `overload` experiment: graceful degradation past saturation.
//!
//! Every other experiment measures the datapath at an offered load it
//! can absorb. This one sweeps a heavy-tailed multi-tenant mix *past*
//! saturation and measures what the serving layer does about it: the
//! token buckets, the weighted-DRR tenant-fair scheduler, priority
//! shedding, and bounded retry from `farview_core::serve`. The
//! graceful-degradation invariants are asserted on every run, not just
//! reported:
//!
//! * goodput past saturation stays within 20 % of its peak (bounded
//!   queues — no congestion collapse),
//! * the attempt-level rejection rate (`rejected / offered`) never
//!   falls as offered load rises,
//! * p99 for the gold class stays bounded by the deadline,
//! * no tenant is starved at any swept load point (the weighted DRR
//!   plus the per-class shed floor),
//! * weight-normalized fairness never falls across the sweep — the mix
//!   plants over-demanders (arrival rate 4× contracted share), who soak
//!   up slack at low load but are pulled back to contract by the
//!   weighted DRR and shedding once the tier saturates.
//!
//! `figures overload` renders the sweep **and** writes the
//! machine-readable `BENCH_PR10.json`.

use farview_core::{
    FarviewCluster, FarviewConfig, ServeClass, ServeConfig, ServeEngine, ServeReport, ServeTenant,
    SingleNodeBackend,
};
use fv_sim::SimDuration;
use fv_workload::{MixClass, TableGen, TenantMix, TenantMixGen};

use crate::experiments::tenant_query_spec;
use crate::figure::Figure;

/// Default seed for the full-size run (`figures overload`).
pub const OVERLOAD_BENCH_SEED: u64 = 0x0BE5_5ED1;

/// Load multipliers the full run sweeps (1.0 = calibration point;
/// saturation sits in the middle of the sweep by design).
pub const OVERLOAD_LOADS: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Map the workload generator's class onto the serving layer's.
pub fn serve_class(c: MixClass) -> ServeClass {
    match c {
        MixClass::Gold => ServeClass::Gold,
        MixClass::Silver => ServeClass::Silver,
        MixClass::Bronze => ServeClass::Bronze,
    }
}

/// Lower a generated [`TenantMix`] onto engine-level serving tenants
/// (queries compiled to pipeline specs).
pub fn serve_tenants(mix: &TenantMix) -> Vec<ServeTenant> {
    mix.tenants
        .iter()
        .map(|t| ServeTenant {
            id: t.id as u32,
            class: serve_class(t.class),
            weight: t.weight,
            demand: t.demand,
            queries: t.queries.iter().map(tenant_query_spec).collect(),
        })
        .collect()
}

/// A fresh single-node backend for one load point: one cluster, one
/// queue pair, one equally-sized table per tenant. Per-query cost is
/// deliberately weight-independent — a tenant's contracted share shows
/// up as its *arrival rate* and its weighted-DRR service share, so
/// weight-normalized completion counts are the fairness signal rather
/// than an artifact of elephants scanning more bytes per query.
/// Column 1 is selectivity-calibrated, column 0 carries the groups,
/// column 2 the aggregation values.
pub fn overload_backend(mix: &TenantMix, rows_per_tenant: usize, seed: u64) -> SingleNodeBackend {
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let qp = cluster.connect().expect("a free region");
    let mut backend = SingleNodeBackend::new(qp);
    for t in &mix.tenants {
        let table = TableGen::new(8, rows_per_tenant)
            .seed(seed ^ (t.id as u64).wrapping_mul(0x9E37_79B9))
            .distinct_column(0, 32)
            .selectivity_column(1, 0.5)
            .sequential_column(2)
            .build();
        let (ft, _) = backend.load_table(&table).expect("buffer pool space");
        backend.bind_tenant(t.id as u32, ft, table.byte_len() as u64);
    }
    backend
}

/// The median and tail latency of `class` in `r`, µs.
fn class_p(r: &ServeReport, class: ServeClass) -> (f64, f64) {
    r.classes
        .iter()
        .find(|c| c.class == class)
        .map_or((0.0, 0.0), |c| (c.p50_us, c.p99_us))
}

/// The full overload measurement: what `BENCH_PR10.json` records.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Seed driving the mix, tables, and think-time jitter.
    pub seed: u64,
    /// Tenants in the mix.
    pub tenants: usize,
    /// Table rows per tenant (weight-independent by design).
    pub rows_per_tenant: usize,
    /// Pipeline servers behind the front end.
    pub servers: usize,
    /// Global admission queue capacity.
    pub queue_capacity: usize,
    /// Per-query deadline, µs.
    pub deadline_us: u64,
    /// Virtual horizon per load point, µs.
    pub horizon_us: u64,
    /// The sweep's reports, in ascending load order.
    pub points: Vec<ServeReport>,
}

/// Attempt-level rejections per offered query: the token bucket's and the
/// full queue's pushback, counted per attempt even when a retry lands the
/// query later. (`ServeReport::failure_rate` counts the queries that
/// ended in a typed failure instead.)
fn rejection_rate(p: &ServeReport) -> f64 {
    if p.offered > 0 {
        p.rejected as f64 / p.offered as f64
    } else {
        0.0
    }
}

impl OverloadReport {
    /// Serialize as pretty JSON (hand-rolled — the offline build has no
    /// `serde_json`). One point object per line, grep-friendly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"overload\",\n");
        out.push_str(
            "  \"units\": {\"latency\": \"us (simulated first-submit to completion)\", \"goodput\": \"completions per second of virtual time\"},\n",
        );
        out.push_str("  \"invariant\": \"past saturation goodput stays within 20% of peak, rejected / offered never falls as load rises, gold p99 bounded by the deadline, no tenant starved\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"tenants\": {},\n", self.tenants));
        out.push_str(&format!(
            "  \"rows_per_tenant\": {},\n",
            self.rows_per_tenant
        ));
        out.push_str(&format!("  \"servers\": {},\n", self.servers));
        out.push_str(&format!("  \"queue_capacity\": {},\n", self.queue_capacity));
        out.push_str(&format!("  \"deadline_us\": {},\n", self.deadline_us));
        out.push_str(&format!("  \"horizon_us\": {},\n", self.horizon_us));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let (gold_p50, gold_p99) = class_p(p, ServeClass::Gold);
            out.push_str(&format!(
                "    {{\"load\": {}, \"offered\": {}, \"completed\": {}, \"rejected\": {}, \"shed\": {}, \"deadline_missed\": {}, \"abandoned\": {}, \"goodput_qps\": {:.1}, \"rejection_rate\": {:.4}, \"failure_rate\": {:.4}, \"fairness_index\": {:.4}, \"min_completed\": {}, \"gold_p50_us\": {:.1}, \"gold_p99_us\": {:.1}, \"silver_p99_us\": {:.1}, \"bronze_p99_us\": {:.1}}}{}\n",
                p.load,
                p.offered,
                p.completed,
                p.rejected,
                p.shed,
                p.deadline_missed,
                p.abandoned,
                p.goodput_qps,
                rejection_rate(p),
                p.failure_rate,
                p.fairness_index,
                p.min_completed,
                gold_p50,
                gold_p99,
                class_p(p, ServeClass::Silver).1,
                class_p(p, ServeClass::Bronze).1,
                if i + 1 == self.points.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render as a [`Figure`]: x = offered-load multiplier.
    pub fn to_figure(&self) -> Figure {
        let mut f = Figure::new(
            "overload",
            &format!(
                "Graceful degradation past saturation ({} tenants, {} servers, queue {})",
                self.tenants, self.servers, self.queue_capacity
            ),
            "offered load multiplier",
            "goodput [queries/s] · rejection [%] · fairness · latency [us]",
        );
        f.push_series(
            "goodput [queries/s]",
            self.points
                .iter()
                .map(|p| (p.load, p.goodput_qps))
                .collect(),
        );
        f.push_series(
            "rejection rate [%]",
            self.points
                .iter()
                .map(|p| (p.load, rejection_rate(p) * 100.0))
                .collect(),
        );
        f.push_series(
            "fairness [Jain]",
            self.points
                .iter()
                .map(|p| (p.load, p.fairness_index))
                .collect(),
        );
        f.push_series(
            "gold p99 [us]",
            self.points
                .iter()
                .map(|p| (p.load, class_p(p, ServeClass::Gold).1))
                .collect(),
        );
        f.push_series(
            "bronze p99 [us]",
            self.points
                .iter()
                .map(|p| (p.load, class_p(p, ServeClass::Bronze).1))
                .collect(),
        );
        f
    }
}

/// Run the sweep at the given scale, asserting the graceful-degradation
/// invariants at every point.
pub(crate) fn overload_report_at(
    n_tenants: usize,
    rows_per_tenant: usize,
    horizon: SimDuration,
    loads: &[f64],
    seed: u64,
) -> OverloadReport {
    // Every third tenant is an over-demander asking for 4× its
    // contracted share — the adversarial ingredient that keeps
    // shedding and the DRR enforcement honest. At low load the
    // work-conserving scheduler hands them the spare capacity (the
    // weight-normalized fairness index is low); past saturation the
    // weighted DRR and shedding pull every tenant back to
    // its contracted share and the index climbs toward 1.
    let mix = TenantMixGen::new(n_tenants)
        .queries_per_tenant(6)
        .overdemand(3, 4)
        .seed(seed)
        .build();
    let tenants = serve_tenants(&mix);
    // A deliberately small serving tier: two pipeline servers behind an
    // eight-slot admission queue, with the per-tenant token buckets
    // opened wide enough that the queue capacity (not the buckets) is
    // what the sweep drives past saturation.
    let template = ServeConfig {
        horizon,
        servers: 2,
        queue_capacity: 8,
        bucket_qps_per_weight: 100_000.0,
        ..ServeConfig::default()
    };
    let mut points = Vec::with_capacity(loads.len());
    for &load in loads {
        let backend = overload_backend(&mix, rows_per_tenant, seed);
        let config = ServeConfig {
            load,
            seed: seed ^ load.to_bits(),
            ..template.clone()
        };
        let report = ServeEngine::new(&tenants, config, backend)
            .expect("a runnable serving config")
            .run();
        // The per-point invariants: no tenant starved, gold tail
        // bounded by the deadline (plus one service time of slack).
        assert!(
            report.min_completed > 0,
            "starved tenant at load {load}: {report:?}"
        );
        let deadline_us = template.deadline.as_micros_f64();
        let worst_p99 = report.classes.iter().map(|c| c.p99_us).fold(0.0, f64::max);
        assert!(
            worst_p99 <= deadline_us * 1.5,
            "tail latency {worst_p99}us broke the deadline bound at load {load}"
        );
        // The weighted DRR's unfairness floor, on weight-normalized
        // per-tenant goodput. 0.5 is the property bound, far above the
        // 1/n of a starved mix; measured, the index starts near the
        // work-conserving low (over-demanders soak up slack) and climbs
        // past 0.9 once saturation forces contracted shares.
        assert!(
            report.fairness_index >= 0.5,
            "fairness index {} broke the DRR bound at load {load}",
            report.fairness_index
        );
        points.push(report);
    }
    // Sweep-level invariants. Saturation is wherever goodput peaks;
    // graceful degradation means every point past it holds within 20 %
    // of that peak (bounded queues — no congestion collapse).
    let peak_idx = points
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.goodput_qps.total_cmp(&b.goodput_qps))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let peak = points.get(peak_idx).map(|p| p.goodput_qps).unwrap_or(0.0);
    for p in points.iter().skip(peak_idx + 1) {
        assert!(
            p.goodput_qps >= peak * 0.8,
            "goodput collapsed past saturation: {} of peak {peak} at load {}",
            p.goodput_qps,
            p.load
        );
    }
    for w in points.windows(2) {
        if let [a, b] = w {
            assert!(
                rejection_rate(b) >= rejection_rate(a),
                "rejection rate fell from {} (load {}) to {} (load {})",
                rejection_rate(a),
                a.load,
                rejection_rate(b),
                b.load
            );
        }
    }
    // Admission control must engage harder at the top of the sweep than
    // at the bottom (attempt-level rejections count bucket + full-queue
    // pushback even when bounded retry ultimately lands the query), and
    // enforcement must not *lose* fairness as load climbs: past
    // saturation the weighted DRR pulls over-demanders back to their
    // contracted share, so the weight-normalized index ends no lower
    // than it started (small tolerance for percentile noise).
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        assert!(
            last.rejected >= first.rejected,
            "admission pushback fell across the sweep: {} at load {} vs {} at load {}",
            first.rejected,
            first.load,
            last.rejected,
            last.load
        );
        assert!(
            last.fairness_index >= first.fairness_index - 0.05,
            "fairness fell across the sweep: {} at load {} vs {} at load {}",
            first.fairness_index,
            first.load,
            last.fairness_index,
            last.load
        );
    }
    OverloadReport {
        seed,
        tenants: n_tenants,
        rows_per_tenant,
        servers: template.servers,
        queue_capacity: template.queue_capacity,
        deadline_us: (template.deadline.as_micros_f64()) as u64,
        horizon_us: horizon.as_micros_f64() as u64,
        points,
    }
}

/// The full-size overload measurement (what `figures overload` runs
/// and records into `BENCH_PR10.json`).
pub fn overload_report() -> OverloadReport {
    overload_report_at(
        12,
        1024,
        SimDuration::from_millis(20),
        &OVERLOAD_LOADS,
        OVERLOAD_BENCH_SEED,
    )
}

/// `overload` as a figure.
pub fn overload() -> Figure {
    overload_report().to_figure()
}

/// [`overload`] at its smallest config (the `figures smoke` gate — all
/// degradation invariants asserted, percentiles at token scale).
pub fn overload_smoke() -> Figure {
    overload_report_at(
        12,
        1024,
        SimDuration::from_millis(6),
        &[0.5, 4.0, 16.0],
        OVERLOAD_BENCH_SEED,
    )
    .to_figure()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural shape of a small sweep: every point carries the full
    /// stat set, the invariant assertions inside `overload_report_at`
    /// all passed, and the JSON names every field the smoke gate greps.
    #[test]
    fn overload_report_is_complete() {
        let r = overload_report_at(12, 256, SimDuration::from_millis(3), &[0.5, 8.0], 11);
        assert_eq!(r.points.len(), 2);
        let calm = &r.points[0];
        let storm = &r.points[1];
        assert!(storm.offered > calm.offered, "load knob does nothing");
        assert!(calm.completed > 0 && storm.completed > 0);
        assert!(
            rejection_rate(storm) >= rejection_rate(calm),
            "overload must not reject less"
        );
        for p in &r.points {
            assert!(p.min_completed > 0, "starved tenant at load {}", p.load);
            assert!(p.fairness_index > 0.0 && p.fairness_index <= 1.0 + 1e-9);
        }
        let json = r.to_json();
        for needle in [
            "\"bench\": \"overload\"",
            "\"invariant\"",
            "\"load\": 8",
            "\"goodput_qps\":",
            "\"rejection_rate\":",
            "\"failure_rate\":",
            "\"fairness_index\":",
            "\"min_completed\":",
            "\"gold_p99_us\":",
        ] {
            assert!(json.contains(needle), "JSON missing {needle}");
        }
        let fig = r.to_figure();
        for series in [
            "goodput [queries/s]",
            "rejection rate [%]",
            "fairness [Jain]",
            "gold p99 [us]",
            "bronze p99 [us]",
        ] {
            assert!(fig.series(series).is_some(), "figure missing {series}");
        }
    }

    /// The mix lowering keeps ids, classes, and weights aligned.
    #[test]
    fn serve_tenants_mirror_the_mix() {
        let mix = TenantMixGen::new(5).seed(3).build();
        let lowered = serve_tenants(&mix);
        assert_eq!(lowered.len(), 5);
        for (t, s) in mix.tenants.iter().zip(&lowered) {
            assert_eq!(t.id as u32, s.id);
            assert_eq!(t.weight, s.weight);
            assert_eq!(t.demand, s.demand);
            assert_eq!(serve_class(t.class), s.class);
            assert_eq!(t.queries.len(), s.queries.len());
        }
    }
}
