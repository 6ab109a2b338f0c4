//! # flux-baselines — the hand-written comparator servers
//!
//! The paper measures Flux against hand-tuned conventional
//! implementations (§4): knot (Capriccio's threaded web server), Haboob
//! (SEDA's staged event-driven web server), CTorrent (a threaded
//! BitTorrent peer in C) and a traditional game server. This crate
//! holds architectural equivalents built on the same substrates, so
//! the Figure 3/4 comparisons measure coordination style rather than
//! substrate differences (the original C servers and their libraries
//! are not available to link against).

pub mod ctorrent;
pub mod game;
pub mod knot;
pub mod seda;

pub use ctorrent::{CtServer, CtStats};
pub use game::{GameStats, HandGameServer};
pub use knot::{KnotServer, KnotStats};
pub use seda::{SedaConfig, SedaServer, SedaStats};
