//! Deliberately dirty: naked panic paths in crate source.

pub fn naked_unwrap(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn naked_expect(v: Option<u8>) -> u8 {
    v.expect("boom")
}

pub fn panics() {
    panic!("bad");
}

pub fn stub() {
    todo!()
}
