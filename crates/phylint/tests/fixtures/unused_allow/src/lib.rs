//! Deliberately dirty: marker-syntax errors — a stale suppression, two
//! unknown directives (one a retired marker), a suppression with no
//! justification, and a justified suppression of a retired rule.

// phylint: allow(panic_path) -- nothing on the next line panics, so this is stale
pub fn fine() -> u8 {
    7
}

// phylint: frobnicate
pub fn also_fine() {}

// phylint: datapath
pub fn retired() {}

// phylint: allow(panic_path)
pub fn third() {}

// phylint: allow(alloc_hot) -- hot_transitive checks hot regions now
pub fn fourth() {}
