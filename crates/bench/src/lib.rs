//! # cfx-bench
//!
//! Shared harness utilities for the table/figure regenerators in
//! `src/bin/` and the Criterion benches in `benches/`.

#![warn(missing_docs)]

pub mod harness;
pub mod stamp;

pub use harness::*;
