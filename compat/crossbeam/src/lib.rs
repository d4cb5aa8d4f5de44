//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the one crossbeam facility `spgemm-simgrid` relies on, as a facade over
//! `std`: [`thread`] — scoped threads with the crossbeam builder API
//! (`scope`, `Scope::builder`, `name`, `stack_size`, spawn closures
//! receiving a `&Scope` argument) over `std::thread::scope`, which has
//! identical lifetime semantics since Rust 1.63.

pub mod thread {
    //! Scoped threads with crossbeam's builder API over `std::thread`.

    use std::any::Any;
    use std::io;

    /// Handle to a spawned scoped thread.
    pub type ScopedJoinHandle<'scope, T> = std::thread::ScopedJoinHandle<'scope, T>;

    /// A thread scope: threads spawned through it may borrow `'env` data
    /// and are all joined before [`scope`] returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Start configuring a new scoped thread.
        pub fn builder(&self) -> ScopedThreadBuilder<'scope, 'env> {
            ScopedThreadBuilder {
                scope: self.inner,
                builder: std::thread::Builder::new(),
            }
        }

        /// Spawn with default settings. The closure receives a `&Scope`
        /// so it can spawn further siblings (crossbeam convention).
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Builder mirroring `crossbeam::thread::ScopedThreadBuilder`.
    pub struct ScopedThreadBuilder<'scope, 'env: 'scope> {
        scope: &'scope std::thread::Scope<'scope, 'env>,
        builder: std::thread::Builder,
    }

    impl<'scope, 'env> ScopedThreadBuilder<'scope, 'env> {
        /// Name the thread (appears in panic messages and debuggers).
        pub fn name(mut self, name: String) -> Self {
            self.builder = self.builder.name(name);
            self
        }

        /// Set the thread's stack size in bytes.
        pub fn stack_size(mut self, size: usize) -> Self {
            self.builder = self.builder.stack_size(size);
            self
        }

        /// Spawn the configured thread; the closure receives a `&Scope`.
        pub fn spawn<F, T>(self, f: F) -> io::Result<ScopedJoinHandle<'scope, T>>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = self.scope;
            self.builder
                .spawn_scoped(scope, move || f(&Scope { inner: scope }))
        }
    }

    /// Run `f` with a scope in which borrowing threads can be spawned.
    ///
    /// All spawned threads are joined before this returns. Crossbeam
    /// returns `Err` with the panic payload if an **unjoined** thread
    /// panicked; `std::thread::scope` instead resumes the panic directly,
    /// so callers that join every handle themselves (as `spgemm-simgrid`
    /// does) observe identical behaviour, and the `Result` wrapper is kept
    /// purely for signature compatibility.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_and_borrows() {
        let counter = AtomicUsize::new(0);
        let r = super::thread::scope(|s| {
            let mut handles = Vec::new();
            for i in 0..8 {
                let h = s
                    .builder()
                    .name(format!("worker-{i}"))
                    .stack_size(128 * 1024)
                    .spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        std::thread::current().name().map(str::to_string)
                    })
                    .unwrap();
                handles.push(h);
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert!(r.contains(&"worker-0".to_string()));
    }

    #[test]
    fn join_surfaces_panics() {
        super::thread::scope(|s| {
            let h = s.spawn(|_| panic!("boom"));
            let err = h.join().unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"boom"));
        })
        .unwrap();
    }
}
