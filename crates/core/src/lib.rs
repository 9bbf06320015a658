#![warn(missing_docs)]

//! # matchcatcher
//!
//! A debugger for **blocking accuracy** in entity matching — a from-scratch
//! reproduction of *"MatchCatcher: A Debugger for Blocking in Entity
//! Matching"* (Li et al., EDBT 2018).
//!
//! Given two tables `A`, `B` and the output `C` of an arbitrary blocker,
//! MatchCatcher surfaces plausible **killed-off matches** — true matches in
//! `D = A × B − C` — so the user can judge whether the blocker loses too
//! much recall and why. The pipeline (Figure 2 of the paper):
//!
//! 1. **Config Generator** ([`config`]) — picks promising attributes and
//!    builds a *config tree* of attribute subsets, balancing missing
//!    values, uniqueness (the e-score of Definition 3.1) and long string
//!    attributes (Theorem 3.5).
//! 2. **Top-k SSJs** ([`ssj`], [`joint`]) — for each config, a top-k string
//!    similarity join over the concatenated attribute strings, excluding
//!    pairs in `C`. [`ssj`] implements the TopKJoin baseline \[34\] and the
//!    paper's faster **QJoin**; [`joint`] executes all configs jointly,
//!    seeding each child config from its parent's top-k list, one config
//!    per core, and scores every pair with one exact, gated overlap
//!    kernel (the paper's overlap database `H` is not implemented).
//! 3. **Match Verifier** ([`verify`]) — aggregates the per-config top-k
//!    lists with MedRank ([`rank`]), then iteratively shows `n = 20` pairs
//!    to the user, using hybrid active/online learning on a random forest
//!    ([`features`], `mc-ml`) to bubble the remaining matches up.
//! 4. **Explanations** ([`explain`]) — per-attribute diagnoses of *why*
//!    each found match was killed off (Table 4's "blocker problems"), and
//!    [`pervasive`] — grouping candidates by problem signature to judge
//!    how widespread each problem is (the paper's §8 future work).
//!
//! The one-call entry point is [`debugger::MatchCatcher`]:
//!
//! ```
//! use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
//! use matchcatcher::oracle::GoldOracle;
//! use mc_blocking::{Blocker, KeyFunc};
//! use mc_table::{GoldMatches, Schema, Table, Tuple};
//! use std::sync::Arc;
//!
//! // Figure 1 of the paper: blocker Q1 keeps pairs with equal City.
//! let schema = Arc::new(Schema::from_names(["name", "city", "age"]));
//! let mut a = Table::new("A", Arc::clone(&schema));
//! a.push(Tuple::from_present(["Dave Smith", "Altanta", "18"]));
//! a.push(Tuple::from_present(["Daniel Smith", "LA", "18"]));
//! a.push(Tuple::from_present(["Joe Welson", "New York", "25"]));
//! a.push(Tuple::from_present(["Charles Williams", "Chicago", "45"]));
//! a.push(Tuple::from_present(["Charlie William", "Atlanta", "28"]));
//! let mut b = Table::new("B", Arc::clone(&schema));
//! b.push(Tuple::from_present(["David Smith", "Atlanta", "18"]));
//! b.push(Tuple::from_present(["Joe Wilson", "NY", "25"]));
//! b.push(Tuple::from_present(["Daniel W. Smith", "LA", "30"]));
//! b.push(Tuple::from_present(["Charles Williams", "Chicago", "45"]));
//!
//! let q1 = Blocker::Hash(KeyFunc::Attr(schema.expect_id("city")));
//! let c = q1.apply(&a, &b);
//! let gold = GoldMatches::from_pairs([(0, 0), (1, 2), (2, 1), (3, 3)]);
//!
//! let mc = MatchCatcher::new(DebuggerParams::small());
//! let mut oracle = GoldOracle::exact(&gold);
//! let report = mc.run(&a, &b, &c, &mut oracle);
//! // Q1 killed (a1,b1) and (a3,b2); the debugger recovers both.
//! assert_eq!(report.confirmed_matches.len(), 2);
//! ```

pub mod config;
pub mod debugger;
pub mod explain;
pub mod explain_batch;
pub mod features;
pub mod incr;
pub mod joint;
pub mod oracle;
pub mod pervasive;
pub mod rank;
pub mod ssj;
pub mod store_io;
pub mod verify;

pub use config::{Config, ConfigGenerator, ConfigTree};
pub use debugger::{DebugReport, DebuggerParams, MatchCatcher};
pub use explain_batch::{DiagnosisKernel, ExplainOutput};
pub use incr::{DebugSession, IncrParams};
pub use oracle::{GoldOracle, Oracle};
pub use ssj::{SsjParams, TopKList};
