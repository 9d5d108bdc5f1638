//! The clanbft repository benchmark (see `README.md` in this directory).

pub mod adapter;
pub mod calibrate;
pub mod gate;
pub mod ledger;
pub mod outcome;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
