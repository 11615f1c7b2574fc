//! [`IdTable`]: per-request state keyed by an id that grows with each
//! request (an engine context or leg, an open-loop tag, a `ran_ue_id`, a
//! TMSI) and leaves roughly oldest-first. A `BTreeMap` under that churn
//! splits a leaf at its right edge and frees one at its left every few
//! requests, at any steady size.

use std::collections::VecDeque;

/// `(id, value)` entries in ascending id order, in one [`VecDeque`]. An
/// insert past the last id appends; any other id is found by binary
/// search, and an insert or remove there shifts the shorter side. The
/// capacity is reused, so a table at steady size allocates nothing. A
/// walk or a [`IdTable::retain`] visits ids in ascending order, as a
/// `BTreeMap`'s would.
#[derive(Clone, Debug, Default)]
pub struct IdTable<T> {
    entries: VecDeque<(u64, T)>,
}

impl<T> IdTable<T> {
    /// An empty table.
    #[must_use]
    pub const fn new() -> Self {
        IdTable {
            entries: VecDeque::new(),
        }
    }

    /// Where `id` is, or where it would go.
    fn find(&self, id: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |&(at, _)| at)
    }

    /// Stores `value` under `id`, returning what was there.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.entries.back().is_none_or(|&(last, _)| last < id) {
            self.entries.push_back((id, value));
            return None;
        }
        match self.find(id) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (id, value));
                None
            }
        }
    }

    /// Removes and returns the value under `id`, if any.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let at = self.find(id).ok()?;
        self.entries.remove(at).map(|(_, value)| value)
    }

    /// The value under `id`.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.find(id).ok().map(|at| &self.entries[at].1)
    }

    /// The value under `id`, in place.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.find(id).ok().map(|at| &mut self.entries[at].1)
    }

    /// The value under `id`, first stored as `make()` if there was none.
    pub fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> &mut T {
        let at = match self.find(id) {
            Ok(at) => at,
            Err(at) => {
                self.entries.insert(at, (id, make()));
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Entries stored now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().map(|(id, value)| (*id, value))
    }

    /// Keeps the entries `keep` accepts, visited in ascending id order.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        self.entries.retain_mut(|(id, value)| keep(*id, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The table against a `BTreeMap` model, step by step.
    fn agrees(table: &IdTable<u64>, model: &BTreeMap<u64, u64>) -> Result<(), String> {
        let walked: Vec<(u64, u64)> = table.iter().map(|(id, v)| (id, *v)).collect();
        let expected: Vec<(u64, u64)> = model.iter().map(|(id, v)| (*id, *v)).collect();
        if table.len() != model.len() || walked != expected {
            return Err(format!("table {walked:?} != model {expected:?}"));
        }
        for id in 0..ID_SPAN + 2 {
            if table.get(id) != model.get(&id) {
                return Err(format!("lookup of {id} differs"));
            }
        }
        Ok(())
    }

    /// Ids drawn for out-of-order steps fall below this.
    const ID_SPAN: u64 = 48;

    #[test]
    fn an_append_past_the_last_id_keeps_the_order() {
        let mut table = IdTable::new();
        for id in [3, 5, 9] {
            assert_eq!(table.insert(id, id * 10), None);
        }
        assert_eq!(table.insert(4, 40), None);
        assert_eq!(table.insert(9, 91), Some(90));
        assert_eq!(table.remove(5), Some(50));
        assert_eq!(table.remove(5), None);
        let walked: Vec<(u64, u64)> = table.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(walked, [(3, 30), (4, 40), (9, 91)]);
    }

    proptest::proptest! {
        #[test]
        fn the_table_is_a_btree_map(steps in proptest::collection::vec(0u64.., 0..400)) {
            let mut table = IdTable::new();
            let mut model = BTreeMap::new();
            let mut next = 0;
            for step in steps {
                let id = (step >> 8) % ID_SPAN;
                let value = step >> 16;
                match step % 8 {
                    // In order: past every id so far (the common case).
                    0 | 1 => {
                        next = next.max(id) + 1;
                        proptest::prop_assert_eq!(
                            table.insert(next, value),
                            model.insert(next, value)
                        );
                    }
                    // Out of order, or a re-insert of a live id.
                    2 => proptest::prop_assert_eq!(table.insert(id, value), model.insert(id, value)),
                    // Removes of present and absent ids; the oldest.
                    3 => proptest::prop_assert_eq!(table.remove(id), model.remove(&id)),
                    4 => {
                        let oldest = model.keys().next().copied().unwrap_or(id);
                        proptest::prop_assert_eq!(table.remove(oldest), model.remove(&oldest));
                    }
                    5 => {
                        if let (Some(t), Some(m)) = (table.get_mut(id), model.get_mut(&id)) {
                            *t += value;
                            *m += value;
                        }
                    }
                    6 => {
                        let made = *table.get_or_insert_with(id, || value);
                        proptest::prop_assert_eq!(made, *model.entry(id).or_insert(value));
                    }
                    _ => {
                        let mut seen = Vec::new();
                        table.retain(|id, v| {
                            seen.push(id);
                            (id + *v + value) % 3 != 0
                        });
                        let mut expected = Vec::new();
                        model.retain(|id, v| {
                            expected.push(*id);
                            (*id + *v + value) % 3 != 0
                        });
                        proptest::prop_assert_eq!(seen, expected);
                    }
                }
                if let Err(why) = agrees(&table, &model) {
                    proptest::prop_assert!(false, "{}", why);
                }
            }
        }
    }
}
