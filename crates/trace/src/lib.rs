//! Workload substrate: trace generation for the paper's evaluation.
//!
//! The paper drives its experiments with the Microsoft Azure VM packing
//! trace (Hadary et al., OSDI '20). That dataset is not redistributable
//! here, so this crate implements the closest synthetic equivalent (see
//! DESIGN.md, "Substitution"): an [`AzureTrace`] generator reproducing the
//! trace's documented statistical structure — a VM-type catalog with
//! heterogeneous fractional demands over five resources (CPU, memory, HDD,
//! SSD, network; SSD and HDD mutually exclusive), heavy-tailed durations
//! from seconds to 90 days, diurnal arrivals over a 12.5-day window, and
//! small-range integer priorities used as weights. [`Arrivals`] redraws an
//! instance's releases as Poisson or burst arrivals at a chosen load.
//!
//! Section 7.1's experimental protocol is implemented faithfully:
//! downsampling by a factor `f` at offsets `Delta` drawn without replacement
//! ([`AzureTrace::sample_instances`]), merging SSD/HDD into one storage
//! resource, and normalizing times by the minimum processing time.
//!
//! The crate also generates the paper's synthetic inputs: the Lemma 4.1
//! adversarial family ([`lemma41_instance`]), the Figure 7 "exercising
//! patience" scenario ([`patience_instance`]), and Figure 6's synthetic
//! resource augmentation ([`augment_resources`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod arrivals;
mod augment;
mod azure;
pub mod io;

pub use adversarial::{
    lemma41_instance, lemma41_reference_awct, patience_instance, PatienceConfig,
};
pub use arrivals::{poisson_rate_for_utilization, Arrivals};
pub use augment::augment_resources;
pub use azure::{AzureTrace, AzureTraceConfig, VmCatalog, VmType};
pub use io::{
    instance_to_csv, parse_instance_csv, read_instance_csv, write_instance_csv, TraceError,
};
