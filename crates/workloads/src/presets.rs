//! Ready-made workloads matching the paper's Table 2, at selectable scales.

use crate::linux_like::{self, LinuxLikeParams};
use crate::trace_like::{self, TraceLikeParams};
use crate::vm_like::{self, VmLikeParams};
use crate::{DatasetTrace, Scale};

/// The Linux-kernel-sources workload (Table 2 row 1, DR ≈ 8 with SC 4 KB).
pub fn linux_dataset(scale: Scale) -> DatasetTrace {
    let target = scale.target_logical_bytes();
    // With ~10 versions, each version carries ~1/10 of the logical bytes.
    let versions = 10usize;
    let per_version = target / versions as u64;
    let median_file = 8 * 1024u64;
    // Log-normal with spread 2.5 has mean ≈ median * exp(sigma^2/2) ≈ 1.5 × median.
    let files = (per_version as f64 / (median_file as f64 * 1.5)).max(16.0) as usize;
    linux_like::generate(LinuxLikeParams {
        versions,
        files_per_version: files,
        median_file_size: median_file,
        ..LinuxLikeParams::default()
    })
}

/// The VM full-backup workload (Table 2 row 2, DR ≈ 4.1 with SC 4 KB).
pub fn vm_dataset(scale: Scale) -> DatasetTrace {
    let target = scale.target_logical_bytes();
    let vm_count = 8usize;
    let generations = 2usize;
    // Image sizes ramp linearly from base to skew×base, so the total logical size is
    // vm_count × generations × base × (1 + skew) / 2.
    let size_skew = 6.0f64;
    let base = (target as f64 / (vm_count * generations) as f64 / ((1.0 + size_skew) / 2.0)) as u64;
    vm_like::generate(VmLikeParams {
        vm_count,
        generations,
        base_image_size: base.max(256 * 1024),
        size_skew,
        ..VmLikeParams::default()
    })
}

/// The FIU mail-server trace workload (Table 2 row 3, DR ≈ 10.5).
pub fn mail_dataset(scale: Scale) -> DatasetTrace {
    let chunks = scale.target_logical_bytes() / 4096;
    trace_like::generate(TraceLikeParams::mail(chunks))
}

/// The FIU web-server trace workload (Table 2 row 4, DR ≈ 1.9).
pub fn web_dataset(scale: Scale) -> DatasetTrace {
    let chunks = scale.target_logical_bytes() / 4096;
    trace_like::generate(TraceLikeParams::web(chunks))
}

/// All four paper workloads in Table 2 order.
pub fn paper_datasets(scale: Scale) -> Vec<DatasetTrace> {
    vec![
        linux_dataset(scale),
        vm_dataset(scale),
        mail_dataset(scale),
        web_dataset(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;

    #[test]
    fn four_datasets_in_table_2_order() {
        let datasets = paper_datasets(Scale::Tiny);
        let kinds: Vec<DatasetKind> = datasets.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DatasetKind::Linux,
                DatasetKind::Vm,
                DatasetKind::Mail,
                DatasetKind::Web
            ]
        );
        // File boundaries only exist for Linux and VM, like the paper's datasets.
        assert!(datasets[0].has_file_boundaries);
        assert!(datasets[1].has_file_boundaries);
        assert!(!datasets[2].has_file_boundaries);
        assert!(!datasets[3].has_file_boundaries);
    }

    #[test]
    fn logical_sizes_track_the_scale() {
        for scale in [Scale::Tiny, Scale::Small] {
            let target = scale.target_logical_bytes() as f64;
            for d in paper_datasets(scale) {
                let actual = d.logical_bytes() as f64;
                assert!(
                    actual > target * 0.4 && actual < target * 2.5,
                    "{} at {:?}: {} vs target {}",
                    d.name,
                    scale,
                    actual,
                    target
                );
            }
        }
    }

    #[test]
    fn dedup_ratios_have_the_right_ordering() {
        // The paper's DR ordering is Mail > Linux > VM > Web; the generated stand-ins
        // must preserve it (absolute values are approximate).
        let d = paper_datasets(Scale::Tiny);
        let dr: Vec<f64> = d.iter().map(|t| t.exact_dedup_ratio()).collect();
        let (linux, vm, mail, web) = (dr[0], dr[1], dr[2], dr[3]);
        assert!(mail > linux, "mail {} vs linux {}", mail, linux);
        assert!(linux > vm, "linux {} vs vm {}", linux, vm);
        assert!(vm > web, "vm {} vs web {}", vm, web);
        assert!(web > 1.2, "web {}", web);
    }
}
