pub fn home() -> Option<String> {
    std::env::var("HOME").ok()
}

pub fn dynamic(name: &str) -> Option<std::ffi::OsString> {
    std::env::var_os(name)
}
