//! Clean fixture: every construct in this tree is legal under every
//! rule, including the lexer traps — denied names inside strings,
//! comments, raw strings and nested block comments of a hot region
//! must not fire.

/// Char literals and lifetimes must not confuse the lexer.
pub fn lifetimes<'a>(s: &'a str) -> (&'a str, char) {
    (s, '\'')
}

#[cfg(feature = "turbo")]
pub fn gated() {}

// phylint: hot
/// Strings are not code: the denied names below are literal text.
pub const DOC: &str = "call vec![] or format! — this is a string";
/// Raw strings with embedded quotes are one token.
pub const RAW: &str = r#"raw string with "quotes" and .to_string()"#;
/// Byte strings too.
pub const BYTES: &[u8] = b"bytes with Box::new(0)";

// A line comment mentioning .collect(), vec! and format! is just prose.
/* block comment: Vec::new()
   /* nested block comment: .to_vec() */
   String::new() in prose */

/// Steady-state loop: slices, arithmetic, no allocation.
pub fn accumulate(xs: &[i32], out: &mut [i32]) {
    for (o, x) in out.iter_mut().zip(xs) {
        *o += *x;
    }
}

/// A justified suppression: trailing form covers its own line.
pub fn justified() -> Vec<i32> {
    Vec::new() // phylint: allow(hot_transitive) -- fixture pins the trailing-suppression form
}
// phylint: end-hot

/// Allocation outside the hot region is fine.
pub fn allocate(xs: &[i32]) -> Vec<i32> {
    let mut v = vec![1, 2, 3];
    v.extend(xs.iter().map(|x| x + 1));
    v.iter().map(|x| x * 2).collect()
}

/// SAFETY: `p` is non-null, aligned and points to a live `i32` per
/// the caller contract stated on the function.
pub unsafe fn read_raw(p: *const i32) -> i32 {
    unsafe { *p } // SAFETY: caller contract upheld, see above
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_unit_tests_is_fine() {
        let v: Option<u8> = Some(3);
        assert_eq!(v.unwrap(), 3);
        let w: Vec<u8> = Vec::new();
        assert!(w.is_empty());
    }
}

/// A `;` inside the signature's brackets does not end the test item.
#[cfg(test)]
fn first_of(x: [u8; 4]) -> u8 {
    x.first().copied().unwrap()
}

#[cfg(not(test))]
pub fn compiled_outside_tests() {}
