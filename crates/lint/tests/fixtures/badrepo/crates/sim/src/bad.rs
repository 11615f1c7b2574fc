//! A miniature repo tree whose only source file spends a panic site
//! with no baseline to cover it, used to assert the CLI's non-zero exit.

pub fn first(v: &[u64]) -> u64 {
    *v.first().unwrap()
}
