//! `stackbench`: one op stream per workload, driven from a
//! `WireClient` down to a segment write in `rma-core`, with the cost
//! of every layer it crosses measured from outside the program. See
//! the README beside this package.

pub mod check;
pub mod frontdoor;
pub mod gen;
pub mod host;
pub mod ladder;
pub mod metrics;
pub mod report;
pub mod run;
pub mod span;
pub mod spec;
pub mod suite;
