//! Deliberately dirty: marker-syntax errors — a stale suppression, two
//! unknown directives (one a retired marker), and a suppression with
//! no justification.

// phylint: allow(panic_path) -- nothing on the next line panics, so this is stale
pub fn fine() -> u8 {
    7
}

// phylint: frobnicate
pub fn also_fine() {}

// phylint: datapath
pub fn retired() {}

// phylint: allow(alloc_hot)
pub fn third() {}
