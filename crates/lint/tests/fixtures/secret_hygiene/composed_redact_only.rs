//! A key holder whose keyed field is a redact-only type: the field hides
//! its state from `Debug` but never wipes it, so the holder still does
//! not zeroize on drop.

#[derive(Clone)]
pub struct KeyedHasher {
    state: [u32; 8],
}

impl std::fmt::Debug for KeyedHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyedHasher(<redacted>)")
    }
}

#[derive(Clone)]
pub struct IntegrityContext {
    inner: KeyedHasher,
    count: u32,
}

impl std::fmt::Debug for IntegrityContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrityContext")
            .field("inner", &"<redacted>")
            .finish()
    }
}
