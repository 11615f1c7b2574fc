//! Structured event log.
//!
//! Records what happened on the virtual timeline — AKA steps, enclave
//! transitions, attacker actions — for debugging, assertions in tests, and
//! the narrative output of the examples.

use crate::time::SimTime;
use std::fmt;

/// One logged event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event happened on the virtual timeline.
    pub at: SimTime,
    /// Component category, e.g. `"aka"`, `"enclave"`, `"attacker"`.
    pub category: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// An append-only event log with an on/off switch.
///
/// Logging defaults to enabled; mass experiments disable it to avoid
/// allocating millions of strings.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<Event>,
    disabled: bool,
}

impl EventLog {
    /// Creates an empty, enabled log.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stops recording (already-recorded events are kept).
    pub fn disable(&mut self) {
        self.disabled = true;
    }

    /// Records an event; while disabled, a no-op that never renders `message`.
    pub fn record(&mut self, at: SimTime, category: &'static str, message: fmt::Arguments<'_>) {
        if !self.disabled {
            self.events.push(Event {
                at,
                category,
                message: fmt::format(message),
            });
        }
    }

    /// All recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events in a given category.
    pub(crate) fn in_category<'a>(
        &'a self,
        category: &'a str,
    ) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Whether any event message in `category` contains `needle`.
    #[must_use]
    pub fn contains(&self, category: &str, needle: &str) -> bool {
        self.in_category(category)
            .any(|e| e.message.contains(needle))
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::Cell;

    #[test]
    fn records_in_order() {
        let mut log = EventLog::new();
        log.record(SimTime::from_nanos(1), "aka", format_args!("start"));
        log.record(SimTime::from_nanos(2), "aka", format_args!("finish"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].message, "start");
    }

    #[test]
    fn category_filter() {
        let mut log = EventLog::new();
        log.record(SimTime::ZERO, "aka", format_args!("challenge"));
        log.record(SimTime::ZERO, "enclave", format_args!("eenter"));
        assert_eq!(log.in_category("enclave").count(), 1);
        assert!(log.contains("aka", "chall"));
        assert!(!log.contains("aka", "eenter"));
    }

    #[test]
    fn disable_suppresses_recording() {
        let mut log = EventLog::new();
        log.record(SimTime::ZERO, "a", format_args!("kept"));
        log.disable();
        log.record(SimTime::ZERO, "a", format_args!("dropped"));
        assert_eq!(log.len(), 1);
        log.disabled = false;
        log.record(SimTime::ZERO, "a", format_args!("kept2"));
        assert_eq!(log.len(), 2);
    }

    /// Counts how often it is formatted.
    struct Counted(Cell<u32>);

    impl fmt::Display for Counted {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("counted")
        }
    }

    #[test]
    fn a_disabled_log_formats_nothing() {
        let (mut log, counted) = (EventLog::new(), Counted(Cell::new(0)));
        log.disable();
        log.record(SimTime::ZERO, "a", format_args!("{counted} once"));
        assert_eq!((counted.0.get(), log.len()), (0, 0));
        log.disabled = false;
        log.record(SimTime::ZERO, "a", format_args!("{counted} once"));
        assert_eq!(counted.0.get(), 1);
        assert_eq!(log.events()[0].message, "counted once");
    }

    #[test]
    fn empty_log() {
        assert!(EventLog::new().is_empty());
    }
}
