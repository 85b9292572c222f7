//! Deliberately dirty: one unguarded call to a `#[target_feature]`
//! kernel, one call guarded only by the kernel's own CPU probe, and one
//! kernel that hides its precondition by not being `unsafe`. The
//! dispatch on a CPU tier query is the negative case.

/// Stand-in for the workspace's CPU tier.
#[derive(Clone, Copy)]
pub struct Isa(u8);

impl Isa {
    pub fn avx2(self) -> bool {
        self.0 >= 1
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: caller must prove AVX2 support at runtime.
pub unsafe fn kernel(xs: &mut [u32]) {
    for x in xs.iter_mut() {
        *x = x.wrapping_mul(3);
    }
}

#[target_feature(enable = "avx2")]
pub fn sneaky_kernel(xs: &mut [u32]) {
    for x in xs.iter_mut() {
        *x = x.wrapping_add(7);
    }
}

pub fn dispatch(isa: Isa, xs: &mut [u32]) {
    if isa.avx2() {
        // SAFETY: the tier above answers for AVX2.
        unsafe { kernel(xs) }
    }
}

pub fn self_probing(xs: &mut [u32]) {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: none — a kernel's own probe is no tier query.
        unsafe { kernel(&mut xs[1..]) };
    }
}

pub fn unguarded(xs: &mut [u32]) {
    // SAFETY: none — this is the planted violation.
    unsafe { kernel(xs) };
}
