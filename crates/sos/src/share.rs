//! [`WeakMemo`]: process-wide sharing of values derived from equal inputs,
//! which every system that derives an equal value holds as one `Arc`.

use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Values of type `V`, each kept under the key it was made from and held
/// weakly: a value lives exactly as long as some holder outside the memo
/// keeps it, and a later request with an equal key gets it back while it
/// does. Declare one as a `static` next to the function that derives `V`.
///
/// Keys are compared by whatever the caller's predicate checks, so a key
/// must hold everything the value was derived from, compared by value or
/// by a pointer that identifies the input. A key that leaves out an input
/// hands a system a value derived from another system's state.
pub(crate) struct WeakMemo<K, V> {
    entries: Mutex<Vec<(K, Weak<V>)>>,
}

impl<K, V> WeakMemo<K, V> {
    /// An empty memo.
    pub(crate) const fn new() -> WeakMemo<K, V> {
        WeakMemo { entries: Mutex::new(Vec::new()) }
    }

    /// The live value whose key `same` accepts; failing that, the value
    /// `make` derives, kept under the key it returns with it. `make` may
    /// decline (`None`), which keeps nothing.
    ///
    /// The lock is held while `make` runs, so concurrent requests for one
    /// key derive one value. `make` must not use this same memo.
    pub(crate) fn share(
        &self,
        same: impl Fn(&K) -> bool,
        make: impl FnOnce() -> Option<(K, V)>,
    ) -> Option<Arc<V>> {
        // A panicking `make` leaves the list untouched (the push comes
        // after it), so a poisoned lock still guards a valid list.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|(_, value)| value.strong_count() > 0);
        if let Some(value) =
            entries.iter().filter(|(key, _)| same(key)).find_map(|(_, v)| v.upgrade())
        {
            return Some(value);
        }
        let (key, value) = make()?;
        let value = Arc::new(value);
        entries.push((key, Arc::downgrade(&value)));
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_share_a_value_while_it_lives() {
        let memo: WeakMemo<u32, String> = WeakMemo::new();
        let made = |k: u32| move || Some((k, format!("v{k}")));
        let a = memo.share(|&k| k == 1, made(1)).unwrap();
        let b = memo.share(|&k| k == 1, made(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "an equal key shares the live value");
        let c = memo.share(|&k| k == 2, made(2)).unwrap();
        assert_eq!((a.as_str(), c.as_str()), ("v1", "v2"));
        let weak = Arc::downgrade(&a);
        drop((a, b));
        assert!(weak.upgrade().is_none(), "the memo keeps no value alive");
        let again = memo.share(|&k| k == 1, made(1)).unwrap();
        assert_eq!(*again, "v1", "a freed value is derived again");
        assert!(memo.share(|&k| k == 3, || None).is_none(), "a declined value is not kept");
        assert_eq!(memo.entries.lock().unwrap().len(), 2, "dead entries are swept");
    }
}
