//! Deterministic discrete-event simulation engine for the Border Control
//! reproduction.
//!
//! This crate is the timing substrate shared by every other crate in the
//! workspace. It deliberately contains no knowledge of memory systems or
//! accelerators; it provides five building blocks:
//!
//! * [`Cycle`] — a strongly typed instant on the simulated clock, plus
//!   frequency-domain conversion helpers ([`Frequency`]).
//! * [`EventQueue`] — a deterministic min-heap of timestamped events with
//!   FIFO tie-breaking, the heart of the discrete-event loop.
//! * [`stats`] — counters, hit/miss ratios and histograms used by every
//!   simulated component, and a [`stats::StatsTable`] for building the
//!   reports the experiment harness prints.
//! * [`rng::SimRng`] — a from-scratch, seedable xoshiro256** generator so
//!   that simulations are bit-for-bit reproducible across runs and hosts.
//! * [`resource`] — contended-resource helpers ([`resource::Port`],
//!   [`resource::Channels`]) used to model bandwidth-limited structures
//!   such as DRAM channels and IOMMU page-walkers.
//! * [`shard`] — a conservative-lookahead sharded executor running one
//!   [`EventQueue`] per logical component across worker threads, with a
//!   `(cycle, src, seq)` total order that makes the schedule identical
//!   at any shard count.
//! * [`sha256`] and [`store`] — the digest and the race-free publish
//!   that every on-disk content-addressed store shares.
//!
//! # Example
//!
//! ```
//! use bc_sim::{Cycle, EventQueue};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle::new(10), Ev::Pong);
//! q.push(Cycle::new(5), Ev::Ping);
//! assert_eq!(q.pop(), Some((Cycle::new(5), Ev::Ping)));
//! assert_eq!(q.pop(), Some((Cycle::new(10), Ev::Pong)));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod cycle;
mod event;
pub mod fxmap;
pub mod resource;
pub mod rng;
pub mod sha256;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod trace;

pub use cycle::{Cycle, Frequency};
pub use event::EventQueue;
pub use rng::SimRng;
