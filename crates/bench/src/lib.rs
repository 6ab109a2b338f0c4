//! # flux-bench — workload generators and the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1_loc` | Table 1 (servers and lines of code) |
//! | `fig3_web` | Figure 3 (web-server throughput and latency vs clients) |
//! | `fig4_bt` | Figure 4 (BitTorrent completions, goodput, latency vs clients) |
//! | `game_latency` | §4.4 (heartbeat stability vs players) |
//! | `fig6_sim` | Figure 6 (simulator-predicted vs observed image server) |
//! | `path_profile` | §5.2 (BitTorrent hot paths under 25/50/100 clients) |
//! | `fig7_graph` | Figure 7 (the BitTorrent program graph, as DOT) |
//! | `ablation` | extensions: constraint granularity and runtime sweeps |
//!
//! Run times scale with `FLUX_BENCH_SECS` / `FLUX_BENCH_FULL=1`.

pub mod btload;
pub mod gameload;
#[cfg(unix)]
pub mod openloop;
pub mod pubsubload;
pub mod report;
pub mod webload;
pub mod webset;
pub mod zipf;

pub use btload::{run_bt_load, BtLoadReport};
pub use gameload::{run_game_load, GameLoadReport};
#[cfg(unix)]
pub use openloop::{fd_limit, rss_mb, run_open_loop, OpenLoopConfig, OpenLoopReport};
pub use pubsubload::{run_pubsub_load, PubSubLoadReport};
pub use report::{env_or, f, ms, Table};
pub use webload::{percentile_ns, run_web_load, LoadReport};
pub use webset::WebSet;
pub use zipf::Zipf;
