//! A second clean module: slice access is via `.get`/iterators only.

/// Head element without indexing.
pub fn head(xs: &[i32]) -> i32 {
    xs.first().copied().unwrap_or(0)
}

/// Iterator summation, no slices indexed.
pub fn sum(xs: &[i32]) -> i64 {
    let mut acc = 0i64;
    for &x in xs {
        acc += i64::from(x);
    }
    acc
}
