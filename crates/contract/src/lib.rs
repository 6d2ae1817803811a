//! # grads-contract — performance contracts and the contract monitor
//!
//! Performance contracts *"specify an agreement between application demands
//! and resource capabilities"*; the contract monitor compares sensor
//! reports against predictions, decides with a fuzzy-logic engine
//! ([`fuzzy`], after Autopilot) whether the contract is violated, adapts
//! its tolerance limits when the rescheduler declines to act, and
//! renegotiates when predictions prove pessimistic ([`contract`]).
//! [`monitor`] packages the periodic in-simulation monitoring loop.
//!
//! Paper map: contracts and violation detection are §3's rescheduling
//! substrate; the fuzzy-logic violation decision follows the Autopilot
//! approach the paper builds on. [`run_contract_monitor`] takes a
//! `grads-obs` handle: an enabled one records the decision events that
//! make the monitor → detect → decide → actuate path measurable, and a
//! disabled one records nothing.

#![warn(missing_docs)]

pub mod actuator;
pub mod contract;
pub mod fuzzy;
pub mod monitor;
pub mod viewer;

pub use actuator::{poll_period_controller, ActuatorBus, FuzzyController};
pub use contract::{Contract, ContractMonitor, Outcome, Violation};
pub use fuzzy::{violation_engine, FuzzyEngine, Membership};
pub use monitor::{run_contract_monitor, DonePredicate, Response, ViolationHandler};
pub use viewer::{control_events, render_timeline, TimelineEvent};
