//! Process-wide memo of values derived from one run-time layout.
//!
//! A generated run-time is a pure function of `(SfiLayout, origin)`, and so
//! is every table derived from it (the verifiers' stub allow-lists and role
//! maps). Admission, loading and system builds all ask for the same few
//! layouts over and over; [`LayoutMemo`] lets each of them build its value
//! once per process and share it behind an [`Arc`].

use crate::layout::SfiLayout;
use std::sync::{Arc, Mutex, PoisonError};

/// Values of type `T`, built at most once per `(SfiLayout, origin)`.
///
/// Declare one as a `static` next to the constructor it memoises (see
/// [`crate::SfiRuntime::shared`]).
#[derive(Debug)]
pub struct LayoutMemo<T> {
    entries: Mutex<Vec<(SfiLayout, u32, Arc<T>)>>,
}

impl<T> LayoutMemo<T> {
    /// An empty memo.
    pub const fn new() -> LayoutMemo<T> {
        LayoutMemo { entries: Mutex::new(Vec::new()) }
    }

    /// The value for `(layout, origin)`, built by `build` on first use.
    ///
    /// The lock is held while `build` runs, so concurrent first uses of one
    /// key yield one value. `build` must not use this same memo.
    pub fn get_or_build(
        &self,
        layout: SfiLayout,
        origin: u32,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        // A panicking `build` leaves the list untouched (the push comes
        // after it), so a poisoned lock still guards a valid list.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, value)) = entries.iter().find(|(l, o, _)| *l == layout && *o == origin) {
            return Arc::clone(value);
        }
        let value = Arc::new(build());
        entries.push((layout, origin, Arc::clone(&value)));
        value
    }
}

impl<T> Default for LayoutMemo<T> {
    fn default() -> LayoutMemo<T> {
        LayoutMemo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SfiRuntime;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn same_layout_and_origin_share_one_runtime() {
        let layout = SfiLayout::default_layout();
        let a = SfiRuntime::shared(layout, 0x0040);
        let b = SfiRuntime::shared(layout, 0x0040);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn another_origin_matches_a_fresh_build() {
        let layout = SfiLayout::default_layout();
        let shared = SfiRuntime::shared(layout, 0x0300);
        let fresh = SfiRuntime::build(layout, 0x0300);
        assert!(!Arc::ptr_eq(&shared, &SfiRuntime::shared(layout, 0x0040)));
        assert_eq!(shared.stub_roles(), fresh.stub_roles());
        assert_eq!(shared.object().words(), fresh.object().words());
    }

    #[test]
    fn concurrent_first_use_builds_one_value() {
        let memo: LayoutMemo<u32> = LayoutMemo::new();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(2);
        let layout = SfiLayout::default_layout();
        let [a, b] = std::thread::scope(|s| {
            let get = || {
                start.wait();
                memo.get_or_build(layout, 0x0040, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    7
                })
            };
            let a = s.spawn(get);
            let b = s.spawn(get);
            [a.join().expect("first thread"), b.join().expect("second thread")]
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_first_use_of_a_runtime_yields_one_value() {
        let start = Barrier::new(2);
        // An origin no other test in this binary asks for: this is its
        // first use.
        let [a, b] = std::thread::scope(|s| {
            let get = || {
                start.wait();
                SfiRuntime::shared(SfiLayout::default_layout(), 0x0480)
            };
            let a = s.spawn(get);
            let b = s.spawn(get);
            [a.join().expect("first thread"), b.join().expect("second thread")]
        });
        assert!(Arc::ptr_eq(&a, &b));
    }
}
