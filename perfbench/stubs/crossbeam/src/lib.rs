//! Offline stand-in for the `crossbeam` crate surface this workspace uses:
//! MPMC channels (bounded/unbounded, try/timeout send, eviction via cloned
//! receivers), a two-receiver `select!` with an optional `default(timeout)`
//! arm, and scoped threads mapped onto `std::thread::scope`.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        buf: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        st: Mutex<State<T>>,
        cap: Option<usize>,
        recv_cv: Condvar,
        send_cv: Condvar,
    }

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            st: Mutex::new(State {
                buf: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    pub struct SendError<T>(pub T);
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }
    pub enum SendTimeoutError<T> {
        Timeout(T),
        Disconnected(T),
    }
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }
    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("Timeout(..)"),
                SendTimeoutError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.st.lock().unwrap().senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.st.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.inner.recv_cv.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.st.lock().unwrap().receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.st.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.inner.send_cv.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn len(&self) -> usize {
            self.inner.st.lock().unwrap().buf.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn capacity(&self) -> Option<usize> {
            self.inner.cap
        }

        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.st.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = matches!(self.inner.cap, Some(cap) if st.buf.len() >= cap);
                if !full {
                    st.buf.push_back(value);
                    drop(st);
                    self.inner.recv_cv.notify_one();
                    return Ok(());
                }
                st = self.inner.send_cv.wait(st).unwrap();
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.inner.st.lock().unwrap();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.inner.cap {
                if st.buf.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            st.buf.push_back(value);
            drop(st);
            self.inner.recv_cv.notify_one();
            Ok(())
        }

        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.st.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                let full = matches!(self.inner.cap, Some(cap) if st.buf.len() >= cap);
                if !full {
                    st.buf.push_back(value);
                    drop(st);
                    self.inner.recv_cv.notify_one();
                    return Ok(());
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(SendTimeoutError::Timeout(value));
                }
                let (guard, _) = self
                    .inner
                    .send_cv
                    .wait_timeout(st, deadline - now)
                    .unwrap();
                st = guard;
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn len(&self) -> usize {
            self.inner.st.lock().unwrap().buf.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.st.lock().unwrap();
            loop {
                if let Some(v) = st.buf.pop_front() {
                    drop(st);
                    self.inner.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.inner.recv_cv.wait(st).unwrap();
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.st.lock().unwrap();
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.inner.send_cv.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.st.lock().unwrap();
            loop {
                if let Some(v) = st.buf.pop_front() {
                    drop(st);
                    self.inner.send_cv.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .inner
                    .recv_cv
                    .wait_timeout(st, deadline - now)
                    .unwrap();
                st = guard;
            }
        }
    }

    /// Outcome of a two-receiver select (used by the `select!` macro).
    pub enum Sel2<A, B> {
        A(Result<A, RecvError>),
        B(Result<B, RecvError>),
        Timeout,
    }

    #[doc(hidden)]
    pub fn __select2<A, B>(
        a: &Receiver<A>,
        b: &Receiver<B>,
        timeout: Option<Duration>,
    ) -> Sel2<A, B> {
        let deadline = timeout.map(|d| Instant::now() + d);
        loop {
            let mut a_dead = false;
            match a.try_recv() {
                Ok(v) => return Sel2::A(Ok(v)),
                Err(TryRecvError::Disconnected) => a_dead = true,
                Err(TryRecvError::Empty) => {}
            }
            match b.try_recv() {
                Ok(v) => return Sel2::B(Ok(v)),
                Err(TryRecvError::Disconnected) => {
                    if a_dead {
                        return Sel2::A(Err(RecvError));
                    }
                    return Sel2::B(Err(RecvError));
                }
                Err(TryRecvError::Empty) => {}
            }
            if a_dead {
                return Sel2::A(Err(RecvError));
            }
            if let Some(dl) = deadline {
                if Instant::now() >= dl {
                    return Sel2::Timeout;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

#[macro_export]
macro_rules! select {
    (recv($ra:expr) -> $ma:pat => $ea:expr, recv($rb:expr) -> $mb:pat => $eb:expr $(,)?) => {
        match $crate::channel::__select2(&$ra, &$rb, ::core::option::Option::None) {
            $crate::channel::Sel2::A($ma) => $ea,
            $crate::channel::Sel2::B($mb) => $eb,
            $crate::channel::Sel2::Timeout => ::core::unreachable!(),
        }
    };
    (recv($ra:expr) -> $ma:pat => $ea:expr, recv($rb:expr) -> $mb:pat => $eb:expr, default($d:expr) => $ed:expr $(,)?) => {
        match $crate::channel::__select2(&$ra, &$rb, ::core::option::Option::Some($d)) {
            $crate::channel::Sel2::A($ma) => $ea,
            $crate::channel::Sel2::B($mb) => $eb,
            $crate::channel::Sel2::Timeout => $ed,
        }
    };
}

pub struct Scope<'scope, 'env> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<'scope, T> ScopedJoinHandle<'scope, T> {
    pub fn join(self) -> std::thread::Result<T> {
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        ScopedJoinHandle {
            inner: inner.spawn(move || f(&Scope { inner })),
        }
    }
}

/// Scoped threads; panics from joined workers propagate at the join site,
/// so the outer result is always `Ok` when the closure returns.
pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|s| f(&Scope { inner: s })))
}
