//! The request stream `mix-q`: 70 % QBP on an indexed pattern of length
//! ≤ 3, 30 % QBA at a threshold in the upper half of the tree's range.
//!
//! The requests of a run come from a finite pool drawn from `--seed`; the
//! load generator draws pool indices from a seeded stream. A finite pool
//! means every request's answer is known before the run (computed in
//! process from the same segment file), so every response is checked, and
//! one pass over the pool warms exactly the nodes the run will touch.

use crate::stats::Rng;
use tc_serve::{QueryResponse, TrussSummary};
use tc_store::{LoadError, SegmentTcTree};
use tc_txdb::{Item, Pattern};
use tc_util::json::JsonValue;

/// Upper bound on pool entries.
const POOL_SIZE: usize = 2048;
/// Longest QBP pattern: a user names a few keywords, not sixteen.
const MAX_PATTERN_LEN: usize = 3;
/// Queries per `POST /query` body. One size, so batch latency is unimodal.
pub const BATCH: usize = 8;

#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Qbp(Vec<u32>),
    Qba(f64),
}

impl Query {
    /// The request target on the HTTP gateways.
    pub fn http_target(&self) -> String {
        match self {
            Query::Qbp(items) => format!("/qbp?items={}", join(items)),
            Query::Qba(alpha) => format!("/qba?alpha={alpha}"),
        }
    }

    fn batch_entry(&self) -> String {
        match self {
            Query::Qbp(items) => format!("{{\"items\":[{}]}}", join(items)),
            Query::Qba(alpha) => format!("{{\"alpha\":{alpha}}}"),
        }
    }
}

fn join(items: &[u32]) -> String {
    items
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

pub struct Pool {
    pub queries: Vec<Query>,
    /// `expected[i]` answers `queries[i]`.
    pub expected: Vec<Vec<TrussSummary>>,
    pub alpha_star: f64,
}

impl Pool {
    /// Draws the pool for `seed` and answers it on `reference`, which also
    /// leaves `reference`'s cache holding exactly the run's working set.
    pub fn draw(reference: &SegmentTcTree, seed: u64) -> Result<Pool, LoadError> {
        let mut rng = Rng::new(seed ^ 0x6D69_7871);
        let mut patterns: Vec<Vec<u32>> = (1..=reference.num_nodes() as u32)
            .map(|id| reference.pattern(id))
            .filter(|p| p.len() <= MAX_PATTERN_LEN)
            .map(|p| p.iter().map(|i| i.0).collect())
            .collect();
        rng.shuffle(&mut patterns);
        patterns.truncate(POOL_SIZE * 7 / 10);
        let alpha_star = reference.alpha_upper_bound();
        let alphas = patterns.len() * 3 / 7;
        let mut queries: Vec<Query> = patterns.into_iter().map(Query::Qbp).collect();
        queries.extend((0..alphas).map(|_| Query::Qba((0.5 + 0.5 * rng.unit()) * alpha_star)));
        let expected = queries
            .iter()
            .map(|q| answer(reference, q))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pool {
            queries,
            expected,
            alpha_star,
        })
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// A `POST /query` body of the given pool entries.
    pub fn batch_body(&self, picks: &[usize]) -> String {
        let entries: Vec<String> = picks
            .iter()
            .map(|&i| self.queries[i].batch_entry())
            .collect();
        format!("[{}]", entries.join(","))
    }
}

/// The truss summaries `tree` answers `q` with — the part of a response
/// that must not depend on how it was served.
pub fn answer(tree: &SegmentTcTree, q: &Query) -> Result<Vec<TrussSummary>, LoadError> {
    let result = match q {
        Query::Qbp(items) => {
            tree.query_by_pattern(&Pattern::new(items.iter().map(|&i| Item(i)).collect()))?
        }
        Query::Qba(alpha) => tree.query_by_alpha(*alpha)?,
    };
    Ok(QueryResponse::from_result(&result).trusses)
}

/// A request stream: pool indices, uniform, from a seed of its own. A run
/// has two, the untraced slices' and the traced ones'.
pub struct Stream {
    rng: Rng,
    pool_len: usize,
}

impl Stream {
    pub fn new(seed: u64, id: usize, pool_len: usize) -> Stream {
        Stream {
            rng: Rng::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            pool_len,
        }
    }

    pub fn next(&mut self) -> usize {
        self.rng.below(self.pool_len)
    }
}

/// Reads the truss summaries out of one gateway JSON answer object;
/// `None` unless it says `"status":"ok"` and is well formed.
pub fn summaries_of_json(v: &JsonValue) -> Option<Vec<TrussSummary>> {
    if v.get("status")?.as_str()? != "ok" {
        return None;
    }
    let whole = |x: &JsonValue| x.as_num().filter(|n| n.fract() == 0.0 && *n >= 0.0);
    v.get("trusses")?
        .as_arr()?
        .iter()
        .map(|t| {
            Some(TrussSummary {
                items: t
                    .get("pattern")?
                    .as_arr()?
                    .iter()
                    .map(|i| whole(i).map(|n| n as u32))
                    .collect::<Option<_>>()?,
                vertices: whole(t.get("vertices")?)? as usize,
                edges: whole(t.get("edges")?)? as usize,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence_hash(seed: u64, id: usize) -> u32 {
        let mut s = Stream::new(seed, id, 3000);
        let bytes: Vec<u8> = (0..10_000)
            .flat_map(|_| (s.next() as u32).to_le_bytes())
            .collect();
        tc_util::crc32::crc32(&bytes)
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_id() {
        assert_eq!(sequence_hash(1, 0), sequence_hash(1, 0));
        assert_ne!(sequence_hash(1, 0), sequence_hash(1, 1));
        assert_ne!(sequence_hash(1, 0), sequence_hash(2, 0));
        let mut s = Stream::new(9, 0, 17);
        assert!((0..1000).all(|_| s.next() < 17));
    }

    #[test]
    fn wire_forms_round_trip_through_the_servers_parsers() {
        let qs = [Query::Qbp(vec![3, 17, 240]), Query::Qba(0.1 + 0.2)];
        assert_eq!(qs[0].http_target(), "/qbp?items=3,17,240");
        assert_eq!(qs[1].http_target(), "/qba?alpha=0.30000000000000004");
        let pool = Pool {
            queries: qs.to_vec(),
            expected: vec![Vec::new(); 2],
            alpha_star: 1.0,
        };
        let specs = tc_serve::http::parse_batch_specs(&pool.batch_body(&[1, 0])).unwrap();
        assert_eq!(
            specs,
            vec![
                tc_serve::QuerySpec::Qba(0.1 + 0.2),
                tc_serve::QuerySpec::Qbp(vec![3, 17, 240])
            ]
        );
    }

    #[test]
    fn json_answers_reduce_to_the_same_summaries() {
        let resp = QueryResponse {
            retrieved: 2,
            visited: 9,
            elapsed_secs: 0.25,
            trusses: vec![
                TrussSummary {
                    items: vec![4],
                    vertices: 5,
                    edges: 7,
                },
                TrussSummary {
                    items: vec![4, 9],
                    vertices: 3,
                    edges: 3,
                },
            ],
        };
        let v = tc_util::json::parse(&resp.json_object()).unwrap();
        assert_eq!(summaries_of_json(&v), Some(resp.trusses));
        let err = tc_util::json::parse("{\"status\":\"err\",\"message\":\"x\"}").unwrap();
        assert_eq!(summaries_of_json(&err), None);
    }
}
