//! Low-level substrates shared by every crate in the theme-communities
//! workspace.
//!
//! This crate deliberately has no dependencies beyond the vendored
//! `tc-model` interleaving checker (which itself has none, and whose
//! instrumentation compiles in only under `--cfg tc_check_model`). It
//! provides:
//!
//! * [`hash`] — an Fx-style non-cryptographic hasher plus [`FxHashMap`] /
//!   [`FxHashSet`] aliases. Hot maps in the miners are keyed by small
//!   integers and integer pairs, where SipHash is measurably slower.
//! * [`bitset`] — a fixed-capacity bitset with popcount-based intersection,
//!   the backbone of the *vertical* transaction representation used to
//!   compute pattern frequencies.
//! * [`bytes`] — little-endian encode helpers and a bounds-checked cursor,
//!   the byte-layout substrate of the `tc-store` segment format.
//! * [`mod@crc32`] — CRC-32 (IEEE polynomial), the per-page integrity
//!   checksum of the segment format and of the WAL and shard-map frames:
//!   a carry-less-multiply fold on `x86_64` CPUs with PCLMULQDQ, chosen at
//!   run time, and a slicing-by-8 table everywhere else and for short
//!   inputs — the same value from either.
//! * [`error`] — the [`LoadError`] shared by every persistence format
//!   (text networks, text trees, binary segments).
//! * [`float`] — helpers for working with cohesion values: a total-ordered
//!   wrapper and an epsilon used to keep peeling decisions stable under
//!   floating-point noise.
//! * [`heapsize`] — a trait reporting the heap footprint of a value, used to
//!   reproduce the "Memory" column of Table 3.
//! * [`json`] — a total (never-panicking) recursive-descent JSON reader,
//!   shared by the bench-telemetry gate and the `tc-serve` HTTP front-end.
//! * [`steal`] — the work-stealing task executor behind the parallel
//!   miners and the parallel TC-Tree builders: per-worker deques,
//!   steal-half balancing, dynamic task spawning, deterministic
//!   per-worker state reduction.
//! * [`sync`] — the synchronization facade the concurrency core builds
//!   on: non-poisoning `Mutex`/`Condvar`, `Arc`, atomics and thread
//!   shims that swap to the `tc-model` deterministic scheduler under
//!   `--cfg tc_check_model` (see `docs/CONCURRENCY.md`).
//! * [`sorted`] — intersection and common-count of ascending slices, the
//!   one linear merge behind truss intersection (Proposition 5.3), item-list
//!   joins and community overlap.
//! * [`timer`] — a tiny stopwatch behind the miners' and builders'
//!   elapsed-time counters.

pub mod bitset;
pub mod bytes;
pub mod crc32;
pub mod error;
pub mod float;
pub mod hash;
pub mod heapsize;
pub mod json;
pub mod sorted;
pub mod steal;
pub mod sync;
pub mod timer;

pub use bitset::BitSet;
pub use bytes::ByteReader;
pub use crc32::{crc32, Crc32};
pub use error::LoadError;
pub use float::{approx_eq, OrdF64, COHESION_EPS};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use heapsize::HeapSize;
pub use steal::{Executor, Worker};
pub use timer::Stopwatch;
