//! The four standard evaluation datasets (Table 2 analogs), at a
//! configurable scale.
//!
//! `scale = 1.0` is laptop-sized (finishes the full experiment suite in
//! minutes); larger scales approach the paper's sizes. Every dataset is
//! deterministic for a given scale.

use tc_core::DatabaseNetwork;
use tc_data::{
    generate_checkin, generate_coauthor, generate_synthetic, CheckinConfig, CoauthorConfig,
    SynConfig,
};

/// The evaluation datasets of §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Brightkite analog (check-in, smaller).
    Bk,
    /// Gowalla analog (check-in, larger, more locations).
    Gw,
    /// AMINER analog (co-author keyword network).
    Aminer,
    /// SYN — the paper's own synthetic procedure.
    Syn,
}

impl Dataset {
    /// All four datasets in the paper's Table 2 order.
    pub const ALL: [Dataset; 4] = [Dataset::Bk, Dataset::Gw, Dataset::Aminer, Dataset::Syn];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Bk => "BK",
            Dataset::Gw => "GW",
            Dataset::Aminer => "AMINER",
            Dataset::Syn => "SYN",
        }
    }

    /// Parses a dataset name (case-insensitive).
    pub fn parse(s: &str) -> Option<Dataset> {
        match s.to_ascii_lowercase().as_str() {
            "bk" => Some(Dataset::Bk),
            "gw" => Some(Dataset::Gw),
            "aminer" => Some(Dataset::Aminer),
            "syn" => Some(Dataset::Syn),
            _ => None,
        }
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(2)
}

/// Builds a dataset at the given scale (deterministic).
pub fn build_dataset(dataset: Dataset, scale: f64) -> DatabaseNetwork {
    match dataset {
        Dataset::Bk => {
            generate_checkin(&CheckinConfig {
                users: scaled(260, scale),
                groups: scaled(24, scale),
                group_size: 9,
                locations: scaled(160, scale),
                locations_per_group: 4,
                periods: 30,
                visit_prob: 0.65,
                noise_rate: 1.0,
                friend_prob: 0.55,
                extra_edges: scaled(120, scale),
                seed: 0xB1,
            })
            .network
        }
        Dataset::Gw => {
            generate_checkin(&CheckinConfig {
                users: scaled(420, scale),
                groups: scaled(40, scale),
                group_size: 10,
                locations: scaled(320, scale),
                locations_per_group: 4,
                periods: 26,
                visit_prob: 0.6,
                noise_rate: 1.2,
                friend_prob: 0.45,
                extra_edges: scaled(260, scale),
                seed: 0x60,
            })
            .network
        }
        Dataset::Aminer => {
            generate_coauthor(&CoauthorConfig {
                groups: scaled(16, scale).min(64),
                authors_per_group: scaled(18, scale.sqrt()),
                interdisciplinary_authors: scaled(10, scale),
                papers_per_author: 22,
                keywords_per_paper: 4,
                collab_prob: 0.35,
                cross_group_edges: scaled(60, scale),
                generic_keyword_prob: 0.4,
                seed: 0xA1,
            })
            .network
        }
        Dataset::Syn => generate_synthetic(&SynConfig {
            vertices: scaled(2400, scale),
            edges_per_vertex: 5,
            seeds: scaled(24, scale),
            items: scaled(500, scale),
            mutation: 0.1,
            max_transactions: 48,
            max_transaction_len: 16,
            seed: 0x57,
        }),
    }
}

/// Minimal command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset scale multiplier (default 1.0).
    pub scale: f64,
    /// Quick mode: fewer sweep points, smaller repetition counts.
    pub quick: bool,
    /// Restrict to one dataset, if given.
    pub only: Option<Dataset>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 1.0,
            quick: false,
            only: None,
        }
    }
}

impl BenchArgs {
    /// Parses `--scale <f>`, `--quick`, `--dataset <name>` from `args`.
    /// Unknown flags abort with a usage message.
    pub fn parse(args: impl Iterator<Item = String>) -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage("--scale needs a value"));
                    out.scale = v.parse().unwrap_or_else(|_| usage("bad --scale value"));
                }
                "--quick" => out.quick = true,
                "--dataset" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--dataset needs a value"));
                    out.only = Some(Dataset::parse(&v).unwrap_or_else(|| usage("unknown dataset")));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        out
    }

    /// Parses from the process arguments.
    pub fn from_env() -> BenchArgs {
        Self::parse(std::env::args().skip(1))
    }

    /// The datasets selected by `--dataset`, or all four.
    pub fn datasets(&self) -> Vec<Dataset> {
        match self.only {
            Some(d) => vec![d],
            None => Dataset::ALL.to_vec(),
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <bin> [--scale <f64>] [--quick] [--dataset bk|gw|aminer|syn]");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parse_roundtrip() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::parse(d.name()), Some(d));
            assert_eq!(Dataset::parse(&d.name().to_lowercase()), Some(d));
        }
        assert_eq!(Dataset::parse("nope"), None);
    }

    #[test]
    fn args_parse() {
        let a = BenchArgs::parse(
            ["--scale", "0.5", "--quick", "--dataset", "bk"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.scale, 0.5);
        assert!(a.quick);
        assert_eq!(a.only, Some(Dataset::Bk));
        assert_eq!(a.datasets(), vec![Dataset::Bk]);
    }

    #[test]
    fn default_args_cover_all_datasets() {
        let a = BenchArgs::default();
        assert_eq!(a.datasets().len(), 4);
    }

    #[test]
    fn small_scale_datasets_build() {
        for d in Dataset::ALL {
            let net = build_dataset(d, 0.1);
            assert!(net.num_vertices() > 0, "{} empty", d.name());
            assert!(net.num_edges() > 0, "{} edgeless", d.name());
            let stats = net.stats();
            assert!(stats.transactions > 0);
            assert!(stats.items_unique > 0);
        }
    }

    #[test]
    fn datasets_deterministic() {
        let a = build_dataset(Dataset::Bk, 0.1);
        let b = build_dataset(Dataset::Bk, 0.1);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn scale_grows_dataset() {
        let small = build_dataset(Dataset::Bk, 0.1);
        let large = build_dataset(Dataset::Bk, 0.3);
        assert!(large.num_vertices() > small.num_vertices());
    }
}
