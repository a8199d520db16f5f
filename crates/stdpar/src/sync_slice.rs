//! A `Sync` view over a mutable slice for index-disjoint parallel writes.
//!
//! The C++ parallel algorithms hand every element callable a raw view of the
//! arrays it writes ("Applications are then responsible to ensure algorithm
//! invocations do not introduce data-races", paper §II). Rust's `&mut [T]`
//! cannot be shared across parallel-backend closures, so [`SyncSlice`] provides the
//! same contract explicitly: the *caller* guarantees distinct indices are
//! written by distinct logical threads, and in exchange gets lock-free
//! indexed writes.

use std::marker::PhantomData;

/// A shareable pointer+length view of `&mut [T]`.
///
/// All accessor methods are `unsafe`: the caller promises that no index is
/// accessed concurrently from two threads (the usual stdpar data-race
/// contract). Every access is bounds-checked unconditionally — release
/// builds included — so a bad index is a deterministic panic, never a
/// silent out-of-bounds write (the same hardening as `ListsPool::slot`).
/// The check is one compare against an already-loaded length, noise next
/// to the force kernels these views feed.
#[derive(Clone, Copy)]
pub struct SyncSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'a mut [T]>,
}

// SAFETY: the type only exposes unsafe accessors whose contract forbids
// data races; with that contract upheld, sending/sharing the view is sound.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}
unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wrap a mutable slice. The borrow is held for `'a`, so the underlying
    /// storage cannot be touched elsewhere while views exist.
    #[inline]
    pub fn new(slice: &'a mut [T]) -> Self {
        Self { ptr: slice.as_mut_ptr(), len: slice.len(), _life: PhantomData }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    /// `i < len()`, and no other thread accesses index `i` concurrently.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        assert!(i < self.len, "SyncSlice::get_mut: index {i} out of bounds (len {})", self.len);
        &mut *self.ptr.add(i)
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// `i < len()`, and no other thread writes index `i` concurrently.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        assert!(i < self.len, "SyncSlice::read: index {i} out of bounds (len {})", self.len);
        *self.ptr.add(i)
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i < len()`, and no other thread accesses index `i` concurrently.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        assert!(i < self.len, "SyncSlice::write: index {i} out of bounds (len {})", self.len);
        *self.ptr.add(i) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes() {
        let mut data = vec![0usize; 10_000];
        let view = SyncSlice::new(&mut data);
        std::thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    let mut i = t;
                    while i < view.len() {
                        unsafe { view.write(i, i * 2) };
                        i += 4;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn get_mut_and_read() {
        let mut data = vec![1.0f64, 2.0, 3.0];
        let view = SyncSlice::new(&mut data);
        unsafe {
            *view.get_mut(1) += 10.0;
            assert_eq!(view.read(1), 12.0);
        }
        assert_eq!(data, vec![1.0, 12.0, 3.0]);
    }

    #[test]
    fn len_and_empty() {
        let mut v: Vec<u8> = vec![];
        let s = SyncSlice::new(&mut v);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    // Regression (pre-fix: `debug_assert!` only, so release builds walked
    // straight past the end of the slice): the bounds check must fire in
    // every build profile, for every accessor.

    #[test]
    #[should_panic(expected = "SyncSlice::write: index 3 out of bounds (len 3)")]
    fn write_out_of_bounds_panics() {
        let mut v = vec![0u32; 3];
        let s = SyncSlice::new(&mut v);
        unsafe { s.write(3, 1) };
    }

    #[test]
    #[should_panic(expected = "SyncSlice::read: index 7 out of bounds (len 2)")]
    fn read_out_of_bounds_panics() {
        let mut v = vec![0u32; 2];
        let s = SyncSlice::new(&mut v);
        unsafe {
            let _ = s.read(7);
        }
    }

    #[test]
    #[should_panic(expected = "SyncSlice::get_mut: index 0 out of bounds (len 0)")]
    fn get_mut_on_empty_panics() {
        let mut v: Vec<u64> = vec![];
        let s = SyncSlice::new(&mut v);
        unsafe {
            let _ = s.get_mut(0);
        }
    }
}
