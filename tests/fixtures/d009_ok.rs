pub fn scoped(n: usize) {
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| {});
        }
    });
}
