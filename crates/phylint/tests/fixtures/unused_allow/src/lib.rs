//! Deliberately dirty: marker-syntax errors — a stale suppression, two
//! unknown directives (one a retired marker), a suppression with no
//! justification, and justified suppressions of three retired rules.

// phylint: allow(unsafe_safety) -- nothing on the next line is unsafe, so this is stale
pub fn fine() -> u8 {
    7
}

// phylint: frobnicate
pub fn also_fine() {}

// phylint: datapath
pub fn retired() {}

// phylint: allow(hot_transitive)
pub fn third() {}

// phylint: allow(alloc_hot) -- hot_transitive checks hot regions now
// phylint: allow(panic_path) -- clippy's panic lints audit crate source now
// phylint: allow(wire_format) -- mimo_transport's unit test checks the wire tables now
pub fn fourth() {}
