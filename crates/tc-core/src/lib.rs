//! The paper's primary contribution: finding theme communities from
//! database networks.
//!
//! * [`network`] — the database network `G = (V, E, D, S)` (§3.1);
//! * [`theme`] — theme networks `G_p` induced by patterns, and
//!   [`ThemeSource`], what the enumeration code asks of a network —
//!   including its [`theme::Frame`], the triangle index the lattice walk
//!   masks for every candidate;
//! * [`peel`] / [`mptd`] — the Maximal Pattern Truss Detector
//!   (Algorithm 1) and its shared edge-peeling engine, generic over what a
//!   triangle weighs;
//! * [`truss`] — maximal pattern trusses (Definitions 3.3-3.4);
//! * [`community`] — theme communities (Definition 3.5) as connected
//!   components of trusses;
//! * [`tcs`] — the Theme Community Scanner baseline (§4.2);
//! * [`tcfa`] — Theme Community Finder Apriori (Algorithm 3);
//! * [`tcfi`] — Theme Community Finder Intersection (§5.3);
//! * [`lattice`] — the pattern-lattice walk TCFI and the TC-Tree builder
//!   share, generic over what a candidate evaluates to;
//! * [`decompose`] — truss decomposition `L_p` (§6.1), the payload of the
//!   TC-Tree index in `tc-index`;
//! * [`search`] — online theme-community search by query vertex (the
//!   §2.1 community-search operation, lifted to themes);
//! * [`edge`] — the §8 future-work extension: edge database networks. A
//!   network type, not a second engine — MPTD, decomposition, TCFI and the
//!   TC-Tree builder above serve it through [`ThemeSource`];
//! * [`oracle`] — brute-force reference implementations for testing.

pub mod community;
pub mod decompose;
pub mod edge;
pub mod lattice;
pub mod miner;
pub mod mptd;
pub mod network;
pub mod oracle;
pub mod peel;
pub mod result;
pub mod search;
pub mod tcfa;
pub mod tcfi;
pub mod tcs;
pub mod theme;
pub mod truss;

pub use community::{extract_communities, ThemeCommunity};
pub use decompose::{CountLadder, TrussDecomposition, TrussLevel};
pub use edge::{EdgeDatabaseNetwork, EdgeDatabaseNetworkBuilder};
pub use miner::Miner;
pub use mptd::maximal_pattern_truss;
pub use network::{BuildError, DatabaseNetwork, DatabaseNetworkBuilder, NetworkStats};
pub use result::{MinerStats, MiningResult};
pub use search::{community_of_vertex, theme_profile};
pub use tcfa::TcfaMiner;
pub use tcfi::{ParallelTcfiMiner, TcfiMiner};
pub use tcs::TcsMiner;
pub use theme::{Frequencies, ThemeNetwork, ThemeSource};
pub use truss::PatternTruss;
