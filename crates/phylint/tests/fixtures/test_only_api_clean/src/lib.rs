//! Every public item here has a product root: an example, a bench, a
//! `perfbench/src` fn, a fn pointer, a trait impl, a live struct's
//! field, or a justified suppression.

pub fn from_example() -> u32 {
    1
}

pub fn from_bench() -> u32 {
    2
}

pub fn from_perfbench() -> u32 {
    3
}

pub fn doubled(xs: &[u32]) -> Vec<u32> {
    xs.iter().copied().map(double).collect()
}

/// Named as a fn pointer by `doubled`, never called directly.
pub fn double(x: u32) -> u32 {
    2 * x
}

pub trait Shape {
    fn area(&self) -> u32;
}

pub struct Square(pub u32);

impl Shape for Square {
    fn area(&self) -> u32 {
        side_squared(self.0)
    }
}

/// Reached only through the trait impl, which draws no call edge.
pub fn side_squared(side: u32) -> u32 {
    side * side
}

/// Used only as a field of the live `Outer`.
pub struct Inner {
    pub v: u32,
}

pub struct Outer {
    pub inner: Inner,
}

pub fn make_outer() -> Outer {
    Outer {
        inner: Inner { v: 9 },
    }
}

// phylint: allow(test_only_api) -- oracle: tests/reference.rs
pub fn reference_model() -> u32 {
    4
}
