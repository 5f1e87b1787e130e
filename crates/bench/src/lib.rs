//! Benchmark + reproduction crate. The library surface is empty; see the
//! `repro` and `servectl` binaries.
