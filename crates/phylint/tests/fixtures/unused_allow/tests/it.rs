//! A hot region outside crate source: the allocation model never sees
//! test files, so the region is a marker error rather than a silent
//! no-op.

// phylint: hot
pub fn scratch() -> Vec<u8> {
    vec![0; 4]
}
// phylint: end-hot
