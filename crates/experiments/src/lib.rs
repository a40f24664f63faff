//! # pcn-experiments
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§2.2 measurement study, §4 simulation, §5 testbed), each
//! regenerating the corresponding series. The `flash-repro` binary runs
//! them and writes markdown/CSV artifacts; EXPERIMENTS.md records
//! paper-vs-measured for every figure.
//!
//! Every experiment takes an [`Effort`] knob: [`Effort::Quick`] runs a
//! scaled-down configuration (small topology, short trace, one seed) for
//! CI and tests; [`Effort::Paper`] runs the paper-scale configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod figures;
pub mod harness;
pub mod report;

pub use harness::{Effort, Topo};
pub use report::{FigureResult, Series};
