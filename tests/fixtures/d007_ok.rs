#[expect(clippy::disallowed_methods, reason = "one sender, one receiver")]
pub fn chan() -> (std::sync::mpsc::SyncSender<u32>, std::sync::mpsc::Receiver<u32>) {
    std::sync::mpsc::sync_channel(1)
}
