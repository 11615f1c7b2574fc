//! Composition: a key holder whose key field is a registered zeroizing
//! type wipes through that field and needs no `Drop` of its own.

#[derive(Clone)]
pub struct PreparedKey {
    state: [u32; 8],
}

impl std::fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PreparedKey(<redacted>)")
    }
}

impl Drop for PreparedKey {
    fn drop(&mut self) {
        self.state.zeroize();
    }
}

#[derive(Clone)]
pub struct IntegrityContext {
    key: PreparedKey,
    count: u32,
}

impl std::fmt::Debug for IntegrityContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityContext")
            .field("key", &"<redacted>")
            .finish()
    }
}
