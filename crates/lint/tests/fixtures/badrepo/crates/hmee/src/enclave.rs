//! A miniature repo tree whose only source file is enclave-side HMEE code
//! that reads the host file system directly (EB001), used to assert the
//! CLI's non-zero exit.

pub fn load_key(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}
