//! Fixture obs crate: the target of `trace`'s forbidden whole-crate
//! import.
pub struct Recorder;
