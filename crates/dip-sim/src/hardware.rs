//! GPU hardware specifications.

use serde::{Deserialize, Serialize};

/// The GPU generations used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuGeneration {
    /// NVIDIA H800 80 GB (main 64-GPU testbed).
    H800,
    /// NVIDIA H20 96 GB (16-GPU comparison cluster for Table 4).
    H20,
    /// NVIDIA H100 80 GB (large-scale simulation, §7.5).
    H100,
}

/// Capabilities of a single GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Peak dense bf16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// HBM capacity in bytes.
    pub mem_capacity: u64,
    /// Intra-node (NVLink) bandwidth in bytes/s per GPU.
    pub nvlink_bandwidth: f64,
    /// Inter-node network bandwidth in bytes/s per GPU.
    pub net_bandwidth: f64,
}

impl GpuSpec {
    /// Preset for a GPU generation.
    pub fn preset(generation: GpuGeneration) -> Self {
        match generation {
            // H800: Hopper compute, 80 GB HBM3, 200 GB/s NVLink (paper's
            // cluster description), 8×200 Gbps RoCE per node → 25 GB/s/GPU.
            GpuGeneration::H800 => GpuSpec {
                peak_flops: 989e12,
                mem_bandwidth: 3.35e12,
                mem_capacity: 80 * (1 << 30),
                nvlink_bandwidth: 200e9,
                net_bandwidth: 25e9,
            },
            // H20: much lower compute, higher memory capacity/bandwidth.
            GpuGeneration::H20 => GpuSpec {
                peak_flops: 148e12,
                mem_bandwidth: 4.0e12,
                mem_capacity: 96 * (1 << 30),
                nvlink_bandwidth: 450e9,
                net_bandwidth: 25e9,
            },
            // H100 SXM.
            GpuGeneration::H100 => GpuSpec {
                peak_flops: 989e12,
                mem_bandwidth: 3.35e12,
                mem_capacity: 80 * (1 << 30),
                nvlink_bandwidth: 450e9,
                net_bandwidth: 50e9,
            },
        }
    }

    /// Memory capacity usable for training after reserving space for the
    /// framework, NCCL buffers and fragmentation.
    pub fn usable_memory(&self) -> u64 {
        (self.mem_capacity as f64 * 0.92) as u64
    }

    /// A stable 64-bit key identifying this *device kind* — a splitmix-style
    /// fold over all five spec fields (timing fields by `f64` bit pattern).
    /// Two `GpuSpec`s share a key exactly when they are byte-identical, so
    /// the calibration registry can match artifact entries to the devices of
    /// a [`crate::ClusterTopology`] without naming GPU generations.
    pub fn device_key(&self) -> u64 {
        let mut acc = 0x5851_F42D_4C95_7F2Du64;
        let mut mix = |value: u64| {
            let mut z = acc.wrapping_add(value).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = z ^ (z >> 31);
        };
        mix(self.peak_flops.to_bits());
        mix(self.mem_bandwidth.to_bits());
        mix(self.mem_capacity);
        mix(self.nvlink_bandwidth.to_bits());
        mix(self.net_bandwidth.to_bits());
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sensible_orderings() {
        let h800 = GpuSpec::preset(GpuGeneration::H800);
        let h20 = GpuSpec::preset(GpuGeneration::H20);
        let h100 = GpuSpec::preset(GpuGeneration::H100);
        assert!(h800.peak_flops > h20.peak_flops);
        assert!(h20.mem_capacity > h800.mem_capacity);
        assert!(h100.nvlink_bandwidth >= h800.nvlink_bandwidth);
        assert!(h800.usable_memory() < h800.mem_capacity);
    }
}
