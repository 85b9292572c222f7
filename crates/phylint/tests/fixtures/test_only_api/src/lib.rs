//! Deliberately dirty: public items no product root reaches. The one
//! example calls `live`; everything else here is reached only from
//! `tests/`, a doc-test, a unit test, or not at all.

pub fn live() -> u32 {
    7
}

pub fn only_from_tests() -> u32 {
    1
}

/// ```
/// assert_eq!(fixture_test_only_api::only_from_doctest(), 2);
/// ```
pub fn only_from_doctest() -> u32 {
    2
}

pub fn dead_head() -> u32 {
    dead_tail() + 1
}

pub fn dead_tail() -> u32 {
    3
}

pub struct OnlyItsOwnImpl {
    x: u32,
}

impl OnlyItsOwnImpl {
    fn build() -> Self {
        OnlyItsOwnImpl { x: 4 }
    }
}

// phylint: allow(test_only_api) -- kept for later
pub fn badly_justified() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_test_is_not_a_root() {
        assert_eq!(super::only_from_tests(), 1);
        assert_eq!(super::OnlyItsOwnImpl::build().x, 4);
    }
}
