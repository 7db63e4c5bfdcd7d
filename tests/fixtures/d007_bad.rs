pub fn chan() -> (std::sync::mpsc::Sender<u32>, std::sync::mpsc::Receiver<u32>) {
    std::sync::mpsc::channel()
}
