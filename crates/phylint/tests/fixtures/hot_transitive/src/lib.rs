//! Deliberately dirty: a helper two calls away from the hot region
//! allocates. The literal region text of `hot_entry` is clean, so only
//! the call graph can see it. `pure_leaf` proves reachable-but-clean
//! functions stay silent. `hot_inner` allocates inside a region and is
//! also reached from one: one finding, not two. `suppressed` holds a
//! justified in-region allocation. The item-level `thread_local!` and
//! the unit-test module allocate in the region outside any modelled
//! fn body; both count.

pub fn leaf_alloc(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

pub fn middle(n: usize) -> Vec<u8> {
    leaf_alloc(n)
}

pub fn pure_leaf(x: u32) -> u32 {
    x.wrapping_add(1)
}

// phylint: hot
pub fn hot_entry(x: u32) -> u32 {
    let v = middle(4);
    pure_leaf(x).wrapping_add(v.len() as u32) + hot_inner(x)
}

pub fn hot_inner(x: u32) -> u32 {
    let scratch = vec![x; 2];
    scratch.iter().sum()
}

pub fn suppressed(x: u32) -> u32 {
    // phylint: allow(hot_transitive) -- fixture pins an honoured in-region suppression
    let once = vec![x];
    once.len() as u32
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u8>> = std::cell::RefCell::new(Vec::new());
}

#[cfg(test)]
mod tests {
    #[test]
    fn hot_entry_adds() {
        assert_eq!(super::hot_entry(1), format!("{}", 12).len() as u32);
    }
}
// phylint: end-hot
