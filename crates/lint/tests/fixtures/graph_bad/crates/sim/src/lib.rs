//! Fixture sim crate: declares the `time` module so wire-marked files in
//! other crates can import the sanctioned vocabulary, and re-exports
//! `ClockModel` from the quarantined `clock` module, so importer
//! attribution must resolve through the re-export map.
pub mod clock;
pub mod time;

pub use clock::ClockModel;
