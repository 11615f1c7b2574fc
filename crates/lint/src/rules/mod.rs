//! The rules. Each lists the files it checks by exact repo-relative
//! path (`FILES`) and appends a [`Finding`] per violation in them.
//!
//! [`Finding`]: crate::Finding

pub mod constant_time;
pub mod enclave_boundary;

/// Each rule's id and the files it lists.
pub(crate) const LISTS: [(&str, &[&str]); 2] = [
    (enclave_boundary::ID, &enclave_boundary::FILES),
    (constant_time::ID, &constant_time::FILES),
];
