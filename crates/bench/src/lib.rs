//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each `figN` module reproduces one evaluation artifact (see DESIGN.md's
//! experiment index); the `experiments` binary drives them and prints the
//! same rows/series the paper reports. The [`harness`] module holds shared
//! infrastructure: model training at two effort levels, pre-trained RL
//! tables, and simulation helpers.

#![warn(missing_docs)]

pub mod ablations;
pub mod csv;
pub mod error;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod harness;
pub mod model_eval;
pub mod oracle_gap;
pub mod robustness;
pub mod sensitivity;
pub mod sweep;
pub mod traces;
