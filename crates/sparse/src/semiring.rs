//! Semiring abstraction.
//!
//! The paper (Sec. II-A) notes that its algorithms apply over an arbitrary
//! semiring `S = (T, ⊕, ⊗, 0)` because no Strassen-like cancellation is
//! used. Every SpGEMM and merge kernel in this crate is generic over
//! [`Semiring`], so the distributed algorithms in `spgemm-core` inherit the
//! same generality. The applications exercise several instances: numeric
//! `(+, ×)` for Markov clustering, `(+, ×)` over integers for triangle
//! counting and shared-k-mer counting, `(min, +)` for path-style problems,
//! and `(∨, ∧)` for reachability.

use std::fmt::Debug;

/// A semiring over element type [`Semiring::T`].
///
/// Laws expected (and property-tested in this module's tests):
/// * `add` is associative and commutative with identity [`Semiring::zero`].
/// * `mul` is associative.
/// * `mul` distributes over `add`.
/// * `mul(zero, x) == zero` (annihilation) — required so that structural
///   zeros never produce output nonzeros.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Element type.
    type T: Copy + Send + Sync + PartialEq + Debug + 'static;

    /// Additive identity.
    fn zero() -> Self::T;

    /// Semiring addition `⊕`.
    fn add(a: Self::T, b: Self::T) -> Self::T;

    /// Semiring multiplication `⊗`.
    fn mul(a: Self::T, b: Self::T) -> Self::T;

    /// True if `t` equals the additive identity. Used to optionally drop
    /// explicit zeros after merging.
    fn is_zero(t: Self::T) -> bool {
        t == Self::zero()
    }

    /// True if `a` and `b` are the same value bit for bit: `==`, except
    /// that the float semirings compare bits, so `-0.0` differs from `0.0`
    /// and a NaN equals itself.
    fn identical(a: Self::T, b: Self::T) -> bool {
        a == b
    }
}

macro_rules! plus_times {
    ($name:ident, $t:ty, $zero:expr, $doc:expr $(, $bits:ident)?) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl Semiring for $name {
            type T = $t;
            #[inline]
            fn zero() -> $t {
                $zero
            }
            #[inline]
            fn add(a: $t, b: $t) -> $t {
                a + b
            }
            #[inline]
            fn mul(a: $t, b: $t) -> $t {
                a * b
            }
            $(fn identical(a: $t, b: $t) -> bool { a.$bits() == b.$bits() })?
        }
    };
}

plus_times!(PlusTimesF64, f64, 0.0, "Standard arithmetic `(+, ×)` over `f64`.", to_bits);
plus_times!(PlusTimesU64, u64, 0, "Arithmetic `(+, ×)` over `u64` — used for exact counting (triangles, shared k-mers).");
plus_times!(PlusTimesI64, i64, 0, "Arithmetic `(+, ×)` over `i64`.");

/// Tropical `(min, +)` semiring over `f64`; zero is `+∞`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinPlusF64;

impl Semiring for MinPlusF64 {
    type T = f64;
    #[inline]
    fn zero() -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
    fn identical(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }
}

/// `(max, min)` semiring over `f64`; zero is `-∞`. Used for bottleneck-path
/// style computations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxMinF64;

impl Semiring for MaxMinF64 {
    type T = f64;
    #[inline]
    fn zero() -> f64 {
        f64::NEG_INFINITY
    }
    #[inline]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline]
    fn mul(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    fn identical(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }
}

/// Boolean `(∨, ∧)` semiring — structural reachability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoolOrAnd;

impl Semiring for BoolOrAnd {
    type T = bool;
    #[inline]
    fn zero() -> bool {
        false
    }
    #[inline]
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
    #[inline]
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laws<S: Semiring>(samples: &[S::T]) {
        let z = S::zero();
        for &a in samples {
            assert_eq!(S::add(a, z), a, "additive identity");
            assert_eq!(S::add(z, a), a, "additive identity (left)");
            assert_eq!(S::mul(z, a), z, "annihilation left");
            assert_eq!(S::mul(a, z), z, "annihilation right");
            for &b in samples {
                assert_eq!(S::add(a, b), S::add(b, a), "commutativity");
                for &c in samples {
                    assert_eq!(
                        S::add(S::add(a, b), c),
                        S::add(a, S::add(b, c)),
                        "add associativity"
                    );
                    assert_eq!(
                        S::mul(S::mul(a, b), c),
                        S::mul(a, S::mul(b, c)),
                        "mul associativity"
                    );
                    assert_eq!(
                        S::mul(a, S::add(b, c)),
                        S::add(S::mul(a, b), S::mul(a, c)),
                        "left distributivity"
                    );
                }
            }
        }
    }

    #[test]
    fn plus_times_u64_laws() {
        check_laws::<PlusTimesU64>(&[0, 1, 2, 3, 7]);
    }

    #[test]
    fn plus_times_i64_laws() {
        check_laws::<PlusTimesI64>(&[-3, 0, 1, 5]);
    }

    #[test]
    fn min_plus_laws() {
        check_laws::<MinPlusF64>(&[0.0, 1.0, 2.5, 10.0, f64::INFINITY]);
    }

    #[test]
    fn max_min_laws() {
        check_laws::<MaxMinF64>(&[0.0, 1.0, 2.5, f64::NEG_INFINITY]);
    }

    #[test]
    fn bool_or_and_laws() {
        check_laws::<BoolOrAnd>(&[false, true]);
    }

    #[test]
    fn plus_times_f64_identities() {
        // f64 (+,×) is only approximately associative; check identities only.
        assert_eq!(PlusTimesF64::add(1.5, PlusTimesF64::zero()), 1.5);
        assert_eq!(PlusTimesF64::mul(PlusTimesF64::zero(), 7.0), 0.0);
        assert!(PlusTimesF64::is_zero(0.0));
        assert!(!PlusTimesF64::is_zero(1.0));
    }

    #[test]
    fn float_identity_is_bitwise() {
        assert!(!PlusTimesF64::identical(0.0, -0.0));
        assert!(PlusTimesF64::identical(f64::NAN, f64::NAN));
        assert!(!MinPlusF64::identical(0.0, -0.0));
        assert!(MaxMinF64::identical(f64::NAN, f64::NAN));
        assert!(PlusTimesU64::identical(3, 3) && !BoolOrAnd::identical(true, false));
    }

    #[test]
    fn min_plus_zero_is_absorbing() {
        assert_eq!(MinPlusF64::mul(MinPlusF64::zero(), 3.0), f64::INFINITY);
        assert!(MinPlusF64::is_zero(f64::INFINITY));
    }
}
