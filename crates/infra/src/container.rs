//! Containers: inspectable process memory, optional shielded payload.
//!
//! A container's *plain* memory models everything outside the enclave —
//! process heap, environment, config files. Paper §III: containers "do
//! not offer sufficient isolation"; an attacker with engine privileges
//! reads this memory byte-for-byte. When a container is GSC-deployed, its
//! sensitive state lives in the enclave vault instead, and introspection
//! yields ciphertext.

use shield5g_libos::libos::GramineLibos;
use std::collections::BTreeMap;

/// Lifecycle of a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerState {
    /// Created but not started.
    Created,
    /// Running.
    Running,
    /// Stopped (memory retained until removal — data-lifecycle KI 5).
    Stopped,
}

/// Plain (non-enclave) process memory: named slots of bytes.
#[derive(Clone, Debug, Default)]
pub struct PlainMemory {
    slots: BTreeMap<String, Vec<u8>>,
}

impl PlainMemory {
    /// Empty memory.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Writes a named slot in place: an existing slot's bytes are
    /// overwritten in its buffer, and only a slot's first write allocates.
    pub fn write(&mut self, slot: &str, bytes: &[u8]) {
        match self.slots.get_mut(slot) {
            Some(v) => {
                v.clear();
                v.extend_from_slice(bytes);
            }
            None => {
                self.slots.insert(slot.to_owned(), bytes.to_vec());
            }
        }
    }

    /// Reads a named slot.
    #[must_use]
    pub fn read(&self, slot: &str) -> Option<&[u8]> {
        self.slots.get(slot).map(Vec::as_slice)
    }

    /// The slot names, in order.
    pub fn slots(&self) -> impl Iterator<Item = &str> {
        self.slots.keys().map(String::as_str)
    }

    /// Clears all slots (what a compliant runtime does on teardown, KI 5).
    pub(crate) fn wipe(&mut self) {
        self.slots.clear();
    }

    /// Whether any slot contains `needle` (introspection primitive).
    #[must_use]
    pub fn contains(&self, needle: &[u8]) -> bool {
        !needle.is_empty()
            && self
                .slots
                .values()
                .any(|v| v.windows(needle.len()).any(|w| w == needle))
    }

    /// Overwrites one byte in a slot (tampering primitive). Returns whether
    /// the target existed.
    pub(crate) fn tamper(&mut self, slot: &str, index: usize, value: u8) -> bool {
        match self.slots.get_mut(slot) {
            Some(v) if index < v.len() => {
                v[index] = value;
                true
            }
            _ => false,
        }
    }
}

/// A container instance on a host.
pub struct Container {
    /// Container name (unique per host).
    pub name: String,
    /// Source image name.
    pub image: String,
    /// Lifecycle state.
    pub state: ContainerState,
    /// Non-enclave process memory.
    pub plain_memory: PlainMemory,
    /// GSC payload when deployed shielded.
    pub shielded: Option<GramineLibos>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("name", &self.name)
            .field("image", &self.image)
            .field("state", &self.state)
            .field("shielded", &self.shielded.is_some())
            .finish()
    }
}

impl Container {
    /// Creates a plain (unshielded) container.
    #[must_use]
    pub(crate) fn plain(name: impl Into<String>, image: impl Into<String>) -> Self {
        Container {
            name: name.into(),
            image: image.into(),
            state: ContainerState::Created,
            plain_memory: PlainMemory::new(),
            shielded: None,
        }
    }

    /// Creates a shielded container wrapping a booted LibOS.
    #[must_use]
    pub(crate) fn shielded(
        name: impl Into<String>,
        image: impl Into<String>,
        libos: GramineLibos,
    ) -> Self {
        Container {
            name: name.into(),
            image: image.into(),
            state: ContainerState::Created,
            plain_memory: PlainMemory::new(),
            shielded: Some(libos),
        }
    }

    /// Whether the container's sensitive state lives in an enclave.
    #[must_use]
    pub(crate) fn is_shielded(&self) -> bool {
        self.shielded.is_some()
    }

    /// Marks the container running.
    pub(crate) fn start(&mut self) {
        self.state = ContainerState::Running;
    }

    /// Marks the container stopped (memory retained).
    pub(crate) fn stop(&mut self) {
        self.state = ContainerState::Stopped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_memory_read_write_wipe() {
        let mut m = PlainMemory::new();
        m.write("kausf", b"secret-key");
        assert_eq!(m.read("kausf").unwrap(), b"secret-key");
        assert!(m.contains(b"secret"));
        assert!(!m.contains(b"missing"));
        assert!(!m.contains(b""));
        m.wipe();
        assert!(m.read("kausf").is_none());
        assert!(m.slots.is_empty());
    }

    #[test]
    fn a_write_reuses_the_slot_buffer() {
        let mut m = PlainMemory::new();
        m.write("kausf", &[1; 32]);
        let buffer = m.read("kausf").unwrap().as_ptr();
        m.write("kausf", &[2; 16]);
        assert_eq!(m.read("kausf").unwrap(), &[2; 16]);
        m.write("kausf", &[3; 32]);
        assert_eq!(m.read("kausf").unwrap(), &[3; 32]);
        assert_eq!(m.read("kausf").unwrap().as_ptr(), buffer);
        assert!(!m.contains(&[1; 32]));
        assert!(m.slots.keys().eq(["kausf"]));
    }

    #[test]
    fn tamper_respects_bounds() {
        let mut m = PlainMemory::new();
        m.write("x", &[1, 2, 3]);
        assert!(m.tamper("x", 1, 9));
        assert_eq!(m.read("x").unwrap(), &[1, 9, 3]);
        assert!(!m.tamper("x", 10, 0));
        assert!(!m.tamper("ghost", 0, 0));
    }

    #[test]
    fn container_lifecycle() {
        let mut c = Container::plain("udm", "oai/udm");
        assert_eq!(c.state, ContainerState::Created);
        c.start();
        assert_eq!(c.state, ContainerState::Running);
        c.stop();
        assert_eq!(c.state, ContainerState::Stopped);
        assert!(!c.is_shielded());
    }

    #[test]
    fn stopped_container_retains_memory() {
        // The data-lifecycle issue of KI 5: stopping without wiping leaves
        // secrets behind.
        let mut c = Container::plain("udm", "oai/udm");
        c.plain_memory.write("key", b"leftover");
        c.stop();
        assert!(c.plain_memory.contains(b"leftover"));
    }
}
