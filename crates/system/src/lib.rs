//! Full-system assembly: CPU-side kernel, IOMMU/ATS, GPU, DRAM and Border
//! Control wired into the five safety configurations of the paper's
//! Table 2, plus the discrete-event loop that runs workloads to
//! completion and reports the statistics every figure needs.
//!
//! The quickest way in is [`SystemConfig`] + [`System::run`]:
//!
//! ```
//! use bc_system::{System, SystemConfig, SafetyModel, GpuClass};
//!
//! let mut config = SystemConfig::table3_defaults();
//! config.safety = SafetyModel::BorderControlBcc;
//! config.gpu_class = GpuClass::ModeratelyThreaded;
//! config.workload = "nn".to_string();
//! let report = System::build(&config)?.run();
//! assert!(report.cycles > 0);
//! assert_eq!(report.violations.len(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod frontend;
mod host;
mod report;
mod safety;
mod system;
mod tenants;

pub use config::{GpuClass, SystemConfig};
pub use host::{CpuLookup, HostActivityConfig, HostCpu};
pub use report::{AbortReason, RunReport};
pub use safety::{table1, SafetyModel, Table1Row};
pub use system::{warm_key, BuildError, RestoreError, System};
pub use tenants::{MultiTenantSystem, TenantsConfig, TenantsReport};
