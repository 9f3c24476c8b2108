//! Offline stand-in for the `rand` crate: a xoshiro256++ core exposing the
//! method names this workspace uses (`random`, `random_range`, `random_bool`,
//! `seed_from_u64`). Streams differ from the real crate; determinism within
//! the stub is what matters.

pub mod rngs {
    pub use crate::SmallRng;
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    pub fn seed_from_u64(state: u64) -> Self {
        let mut x = state;
        Self {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        // xoshiro256++
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    #[inline]
    pub fn random<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_raw())
    }

    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(&mut || self.next_raw())
    }

    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        f64::from_u64(self.next_raw()) < p
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(state: u64) -> Self {
        SmallRng::seed_from_u64(state)
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn random<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(&mut || self.next_u64())
    }

    fn random_bool(&mut self, p: f64) -> bool {
        f64::from_u64(self.next_u64()) < p
    }
}

impl Rng for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Extension alias some call sites import instead of `Rng`; the inherent
/// methods on `SmallRng` make the distinction moot for concrete callers.
pub trait RngExt: Rng {}
impl<T: Rng + ?Sized> RngExt for T {}

/// Types producible from one uniform `u64` (the `random()` surface).
pub trait Standard {
    fn from_u64(v: u64) -> Self;
}

impl Standard for u64 {
    fn from_u64(v: u64) -> Self {
        v
    }
}
impl Standard for u32 {
    fn from_u64(v: u64) -> Self {
        (v >> 32) as u32
    }
}
impl Standard for u16 {
    fn from_u64(v: u64) -> Self {
        (v >> 48) as u16
    }
}
impl Standard for u8 {
    fn from_u64(v: u64) -> Self {
        (v >> 56) as u8
    }
}
impl Standard for usize {
    fn from_u64(v: u64) -> Self {
        v as usize
    }
}
impl Standard for i64 {
    fn from_u64(v: u64) -> Self {
        v as i64
    }
}
impl Standard for i32 {
    fn from_u64(v: u64) -> Self {
        (v >> 32) as i32
    }
}
impl Standard for bool {
    fn from_u64(v: u64) -> Self {
        v & 1 == 1
    }
}
impl Standard for f64 {
    fn from_u64(v: u64) -> Self {
        (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn from_u64(v: u64) -> Self {
        (v >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges samplable by `random_range`. One blanket impl per range shape
/// (like the real crate) so the element type unifies with the output type
/// during inference.
pub trait SampleRange<T> {
    fn sample_from(self, next: &mut dyn FnMut() -> u64) -> T;
}

pub trait SampleUniform: Copy + PartialOrd {
    fn sample_in(lo: Self, hi: Self, inclusive: bool, next: &mut dyn FnMut() -> u64) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from(self, next: &mut dyn FnMut() -> u64) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_in(self.start, self.end, false, next)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from(self, next: &mut dyn FnMut() -> u64) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_in(lo, hi, true, next)
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in(lo: Self, hi: Self, inclusive: bool, next: &mut dyn FnMut() -> u64) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + if inclusive { 1 } else { 0 };
                let v = (next() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in(lo: Self, hi: Self, _inclusive: bool, next: &mut dyn FnMut() -> u64) -> Self {
                let unit = <$t as Standard>::from_u64(next());
                lo + unit * (hi - lo)
            }
        }
    )*};
}
float_uniform!(f32, f64);
