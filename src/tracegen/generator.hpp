#pragma once

#include <cstdint>

#include "tracegen/trace.hpp"

namespace atm::trace {

/// Knobs of the synthetic data-center trace generator.
///
/// The generator replaces the paper's proprietary IBM trace (6K boxes, 80K+
/// VMs, 15-minute CPU/RAM utilization over 7 days). Defaults are calibrated
/// so the generated population reproduces the paper's Section II
/// characterization: ticket distribution across thresholds (Fig. 2) and the
/// four spatial-correlation CDFs (Fig. 3, medians ~0.26 / 0.24 / 0.30 /
/// 0.62 for intra-CPU / intra-RAM / inter-all / inter-pair).
///
/// Generation is deterministic: box b of a trace with seed s depends only
/// on (s, b), so sub-populations are reproducible regardless of box count.
struct TraceGenOptions {
    int num_boxes = 400;
    int num_days = 7;
    int windows_per_day = 96;
    std::uint64_t seed = 20150403;  // April 3 2015, the trace start date

    // --- consolidation -----------------------------------------------------
    /// Mean co-located VMs per box (paper: "on average 10").
    double mean_vms_per_box = 10.0;
    int min_vms_per_box = 2;
    int max_vms_per_box = 32;

    // --- hot (culprit) VMs --------------------------------------------------
    /// Fraction of boxes hosting at least one hot VM; hot VMs produce the
    /// ticket mass and make 1-2 VMs per box the "culprits" (Fig. 2c).
    double hot_box_fraction = 0.60;
    /// Probability that a hot box has a second hot VM.
    double second_hot_vm_probability = 0.4;

    // --- spatial correlation -----------------------------------------------
    /// Probability a VM's load tracks the box-shared diurnal driver; the
    /// driver-following subset creates the strongly-correlated groups that
    /// clustering discovers, while the rest keep the population median low.
    double driver_follow_probability = 0.36;
    /// CPU->RAM coupling strength kappa (inter-pair correlation target .62).
    double ram_coupling_min = 0.5;
    double ram_coupling_max = 0.9;

    // --- gaps ----------------------------------------------------------------
    /// Fraction of boxes whose series contain monitoring gaps (the paper
    /// keeps only gap-free boxes for the Section V post-hoc study).
    double gappy_box_fraction = 0.3;

    // --- capacities ----------------------------------------------------------
    /// Headroom of box virtual capacity over the sum of VM allocations;
    /// sampled uniformly in [min, max]. Abundant headroom mirrors the
    /// paper's observation that production boxes are lowly utilized.
    double capacity_headroom_min = 0.95;
    double capacity_headroom_max = 1.05;
};

/// Generates a synthetic data-center monitoring trace. Throws
/// std::invalid_argument naming the field when num_boxes < 0, num_days < 1
/// or windows_per_day < 1.
Trace generate_trace(const TraceGenOptions& options);

/// Generates a single box (box `index` of the trace with the given
/// options); used by tests and by incremental/streaming consumers.
BoxTrace generate_box(const TraceGenOptions& options, int index);

}  // namespace atm::trace
