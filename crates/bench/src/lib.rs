#![warn(missing_docs)]

//! # mqo-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 7). The library provides the shared machinery; the
//! binaries in `src/bin/` regenerate the individual artifacts:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `topology` | Figures 1–3 (Chimera cell, TRIAD patterns, clustered pattern) |
//! | `table1`   | Table 1 (ms until LIN-MQO finds the optimum) |
//! | `anytime`  | Figures 4 and 5 (cost vs. optimization time, six competitors), and Figure 6 (quantum speedup vs. qubits per variable) from the same runs |
//! | `capacity` | Figure 7 (representable problem dimensions per qubit budget) |
//!
//! Every binary accepts `--help`; defaults run a scaled-down protocol that
//! finishes in minutes, `--full` switches to the paper's exact protocol
//! (20 instances, 100 s classical budgets, the 1097-qubit machine).
//! Criterion micro-benchmarks live in `benches/`.

pub mod algorithms;
pub mod cli;
pub mod harness;
pub mod report;
