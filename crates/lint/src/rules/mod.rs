//! The rule families. Each pass takes prepared [`FileAnalysis`] values
//! and the [`Config`] and appends [`Finding`]s.
//!
//! [`FileAnalysis`]: crate::scan::FileAnalysis
//! [`Config`]: crate::config::Config
//! [`Finding`]: crate::Finding

pub mod constant_time;
pub mod enclave_boundary;
