//! The characterization suite: the paper's primary contribution.
//!
//! Every table and figure in the paper's evaluation has a module under
//! [`figs`] that (a) computes the figure's data from a completed
//! [`rpclens_fleet::driver::FleetRun`] (or, for Fig. 1, from the growth
//! model), (b) renders it as text, and (c) emits
//! [`check::Expectation`]s comparing the measured shape against the
//! paper's published anchors.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`figs::fig01`] | Fig. 1 — RPS/CPU growth over 700 days |
//! | [`figs::fig02`] | Fig. 2 — per-method completion-time heatmap/CDF |
//! | [`figs::fig03`] | Fig. 3 — per-method popularity |
//! | [`figs::fig04`] | Fig. 4 — descendants per method |
//! | [`figs::fig05`] | Fig. 5 — ancestors per method |
//! | [`figs::fig06`] | Fig. 6 — request sizes |
//! | [`figs::fig07`] | Fig. 7 — response/request ratio |
//! | [`figs::fig08`] | Fig. 8 — service shares (calls/bytes/cycles) |
//! | [`figs::fig10`] | Fig. 10 — fleet latency-tax breakdown |
//! | [`figs::fig11`] | Fig. 11 — per-method tax ratio |
//! | [`figs::fig12`] | Fig. 12 — network + stack latency |
//! | [`figs::fig13`] | Fig. 13 — queueing latency |
//! | [`figs::fig14`] | Fig. 14 — per-service component CDFs |
//! | [`figs::fig15`] | Fig. 15 — what-if tail analysis |
//! | [`figs::fig16`] | Fig. 16 — per-cluster tail breakdowns |
//! | [`figs::fig17`] | Fig. 17 — exogenous variables vs latency |
//! | [`figs::fig18`] | Fig. 18 — 24-hour covariation |
//! | [`figs::fig19`] | Fig. 19 — Spanner cross-cluster latency |
//! | [`figs::fig20`] | Fig. 20 — RPC cycle tax |
//! | [`figs::fig21`] | Fig. 21 — per-method CPU cycles |
//! | [`figs::fig22`] | Fig. 22 — load-balancing CPU usage |
//! | [`figs::fig23`] | Fig. 23 — error types |
//! | [`figs::table1`] | Table 1 — the eight studied services |
//! | [`figs::table2`] | Table 2 — exogenous variables |
//! | [`figs::compare`] | §2.4 — tree shapes vs other studies |
//!
//! Fig. 9 is the component diagram; it is definitional and implemented by
//! `rpclens_rpcstack::component::LatencyComponent`.

pub mod check;
pub mod common;
pub mod figs;
pub mod render;
pub mod whatif;

pub use check::{Expectation, ExpectationSet};
