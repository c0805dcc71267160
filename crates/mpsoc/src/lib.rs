//! Heterogeneous MPSoC hardware model for Map-and-Conquer.
//!
//! The paper evaluates on an NVIDIA Jetson AGX Xavier: one Volta GPU, two
//! deep-learning accelerators (DLAs) and a Carmel CPU cluster sharing LPDDR4
//! system memory, all with DVFS. That hardware is not available here, so
//! this crate provides an *analytic substitute* exposing exactly the
//! quantities the Map-and-Conquer optimisation consumes:
//!
//! * per-compute-unit, per-layer-slice **latency** (a roofline model with
//!   per-workload-class efficiency factors and kernel-launch overhead),
//! * per-compute-unit **power** following the paper's affine DVFS model
//!   `P_m = α + β·ϑ_m` (eq. 10), from which per-layer **energy** follows,
//! * **DVFS** frequency tables per compute unit,
//! * a shared-memory capacity model for intermediate feature storage, and
//! * an interconnect model for the inter-stage feature transfers
//!   `u_{k→i}` of eq. 8.
//!
//! The [`Platform::agx_xavier`] preset is calibrated so that the GPU-only /
//! DLA-only baseline rows of the paper's Table II (latency and energy of
//! Visformer and VGG-19) are reproduced to within a few percent; see the
//! `visformer_baselines_match_paper_within_tolerance` and
//! `vgg19_baselines_match_paper_within_tolerance` tests in `platform.rs`.
//!
//! # Example
//!
//! ```
//! use mnc_mpsoc::{Platform, CuKind, WorkloadClass};
//! use mnc_nn::models::{visformer, ModelPreset};
//!
//! let platform = Platform::agx_xavier();
//! let net = visformer(ModelPreset::cifar100());
//! let gpu = platform.compute_units().iter().find(|cu| cu.kind() == CuKind::Gpu).unwrap();
//!
//! // Latency and energy of the whole network mapped to the GPU at max DVFS.
//! let mut latency_ms = 0.0;
//! let mut energy_mj = 0.0;
//! for (id, layer) in net.iter() {
//!     let cost = layer.full_cost(&net.input_shape_of(id).unwrap()).unwrap();
//!     let sample = gpu.execute(&cost, WorkloadClass::from_layer(layer), gpu.max_dvfs());
//!     latency_ms += sample.latency_ms;
//!     energy_mj += sample.energy_mj;
//! }
//! assert!(latency_ms > 1.0 && energy_mj > 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute_unit;
pub mod dvfs;
pub mod error;
pub mod interconnect;
pub mod memory;
pub mod platform;
pub mod power;
pub mod registry;
pub mod workload;

pub use compute_unit::{
    ComputeUnit, ComputeUnitBuilder, CuId, CuKind, ExecutionCoefficients, ExecutionSample,
};
pub use dvfs::{DvfsPoint, DvfsTable};
pub use error::MpsocError;
pub use interconnect::Interconnect;
pub use memory::{MemoryBudget, SharedMemory};
pub use platform::Platform;
pub use power::PowerModel;
pub use registry::PlatformRegistry;
pub use workload::WorkloadClass;
