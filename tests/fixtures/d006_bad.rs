pub fn read(p: &u32) -> u32 {
    unsafe { *(p as *const u32) }
}
