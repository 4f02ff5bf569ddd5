//! The `tc-serve` wire protocol: line-oriented requests and responses
//! over TCP, version-stamped at connection time.
//!
//! ## Session shape
//!
//! On connect the server sends exactly one **greeting** line:
//!
//! ```text
//! TCSERVE 1 OK nodes=<N> alpha_star=<F>     admitted — requests may follow
//! TCSERVE 1 BUSY <reason>                   rejected — connection closes
//! ```
//!
//! An admitted client then sends one request per line:
//!
//! ```text
//! QBA <alpha> [JSON]              query-by-alpha  (q = S, threshold only)
//! QBP <i1,i2,…> [JSON]            query-by-pattern (alpha = 0)
//! QUERY <i1,i2,…> <alpha> [JSON]  the general (q, alpha) query
//! STATS [JSON]                    server counters
//! QUIT                            end this session
//! SHUTDOWN                        end this session and stop the daemon
//! ```
//!
//! Items are dense numeric ids joined by commas; `-` spells the empty
//! pattern. The optional trailing `JSON` token asks for the response as a
//! single JSON line instead of the default tab-separated frame.
//!
//! ## Tab-separated responses (the default)
//!
//! ```text
//! query verbs:  OK\t<count>\t<visited>\t<elapsed_secs>
//!               then <count> lines:  <i1,i2,…|->\t<vertices>\t<edges>
//! STATS:        OK\t<count>
//!               then <count> lines:  <key>\t<value>
//! QUIT/SHUTDOWN:BYE                 (connection closes)
//! any failure:  ERR\t<message>      (session continues)
//! ```
//!
//! The first tab-separated field of every response line is a status
//! token (`OK`, `BYE`, `ERR`, `BUSY`), so clients can frame a response by
//! reading the header line and then exactly `count` data lines — no
//! terminator sentinel, no ambiguity on embedded whitespace.
//!
//! ## JSON responses
//!
//! With the `JSON` token the whole response is one line:
//!
//! ```text
//! {"status":"ok","retrieved":2,"visited":5,"secs":0.0001,
//!  "trusses":[{"pattern":[3],"vertices":4,"edges":6}, …]}
//! {"status":"ok","stats":{"accepted":10, …}}
//! {"status":"err","message":"…"}
//! ```
//!
//! Floats use Rust's shortest round-trip `Display`, so a value parsed
//! back compares bit-equal to what the server measured.

use std::fmt::Write as _;
use tc_txdb::{Item, Pattern};

/// Protocol version, sent in the greeting. Bump on any wire change.
pub const PROTOCOL_VERSION: u32 = 1;

/// The greeting token opening every server line sent at connect time.
pub const GREETING_WORD: &str = "TCSERVE";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `QBA <alpha>` — query-by-alpha.
    Qba { alpha: f64, json: bool },
    /// `QBP <items>` — query-by-pattern.
    Qbp { items: Vec<u32>, json: bool },
    /// `QUERY <items> <alpha>` — the general query.
    Query {
        items: Vec<u32>,
        alpha: f64,
        json: bool,
    },
    /// `STATS` — server counters.
    Stats { json: bool },
    /// `QUIT` — end the session.
    Quit,
    /// `SHUTDOWN` — end the session and stop the daemon.
    Shutdown,
}

impl Request {
    /// The verb keyword, as counted by the server's per-verb telemetry.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Qba { .. } => "QBA",
            Request::Qbp { .. } => "QBP",
            Request::Query { .. } => "QUERY",
            Request::Stats { .. } => "STATS",
            Request::Quit => "QUIT",
            Request::Shutdown => "SHUTDOWN",
        }
    }

    /// Parses one request line (no trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        let json = tokens
            .last()
            .is_some_and(|t| t.eq_ignore_ascii_case("JSON"));
        if json {
            tokens.pop();
        }
        let (&verb, args) = tokens
            .split_first()
            .ok_or_else(|| "empty request".to_string())?;
        let arity = |want: usize| -> Result<(), String> {
            if args.len() == want {
                Ok(())
            } else {
                Err(format!(
                    "{verb} takes {want} argument(s), got {}",
                    args.len()
                ))
            }
        };
        match verb.to_ascii_uppercase().as_str() {
            "QBA" => {
                arity(1)?;
                Ok(Request::Qba {
                    alpha: parse_alpha(args[0])?,
                    json,
                })
            }
            "QBP" => {
                arity(1)?;
                Ok(Request::Qbp {
                    items: parse_items(args[0])?,
                    json,
                })
            }
            "QUERY" => {
                arity(2)?;
                Ok(Request::Query {
                    items: parse_items(args[0])?,
                    alpha: parse_alpha(args[1])?,
                    json,
                })
            }
            "STATS" => {
                arity(0)?;
                Ok(Request::Stats { json })
            }
            "QUIT" => {
                arity(0)?;
                Ok(Request::Quit)
            }
            "SHUTDOWN" => {
                arity(0)?;
                Ok(Request::Shutdown)
            }
            other => Err(format!(
                "unknown verb '{other}' (QBA, QBP, QUERY, STATS, QUIT, SHUTDOWN)"
            )),
        }
    }

    /// Renders the request as its wire line (no trailing newline) — the
    /// exact inverse of [`Request::parse`].
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let json = match self {
            Request::Qba { alpha, json } => {
                push_qba(&mut out, *alpha);
                *json
            }
            Request::Qbp { items, json } => {
                push_qbp(&mut out, items);
                *json
            }
            Request::Query { items, alpha, json } => {
                push_query(&mut out, items, *alpha);
                *json
            }
            Request::Stats { json } => {
                out.push_str("STATS");
                *json
            }
            Request::Quit => return "QUIT".to_string(),
            Request::Shutdown => return "SHUTDOWN".to_string(),
        };
        if json {
            out.push_str(" JSON");
        }
        out
    }
}

/// Appends `QBA <alpha>` to `out` — the query verbs' wire lines (no
/// newline) from borrowed parts, for callers that encode into a buffer
/// they keep ([`crate::ServeClient`], `tc-router`'s scatter).
pub fn push_qba(out: &mut String, alpha: f64) {
    let _ = write!(out, "QBA {alpha}");
}

/// Appends `QBP <items>` to `out`.
pub fn push_qbp(out: &mut String, items: &[u32]) {
    out.push_str("QBP ");
    push_items(out, items);
}

/// Appends `QUERY <items> <alpha>` to `out`.
pub fn push_query(out: &mut String, items: &[u32], alpha: f64) {
    out.push_str("QUERY ");
    push_items(out, items);
    let _ = write!(out, " {alpha}");
}

/// Parses and validates an `alpha` token: finite, non-negative.
pub fn parse_alpha(token: &str) -> Result<f64, String> {
    let alpha: f64 = token.parse().map_err(|_| format!("bad alpha '{token}'"))?;
    if !alpha.is_finite() || alpha < 0.0 {
        return Err(format!("alpha must be finite and >= 0, got '{token}'"));
    }
    Ok(alpha)
}

/// Parses an items token: `-` for the empty pattern, else dense numeric
/// ids joined by commas.
pub fn parse_items(token: &str) -> Result<Vec<u32>, String> {
    if token == "-" {
        return Ok(Vec::new());
    }
    token
        .split(',')
        .map(|t| {
            t.parse::<u32>()
                .map_err(|_| format!("bad item id '{t}' (dense numeric ids only)"))
        })
        .collect()
}

/// Appends an items token to `out`: `-` for the empty pattern, else the
/// ids joined by commas — the inverse of [`parse_items`].
pub fn push_items(out: &mut String, items: &[u32]) {
    if items.is_empty() {
        out.push('-');
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
}

/// One retrieved truss, reduced to what the wire carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrussSummary {
    /// The truss pattern's dense item ids, ascending.
    pub items: Vec<u32>,
    /// `|V*_p(alpha)|`.
    pub vertices: usize,
    /// `|E*_p(alpha)|`.
    pub edges: usize,
}

impl TrussSummary {
    /// Rebuilds the [`Pattern`] the ids spell.
    pub fn pattern(&self) -> Pattern {
        Pattern::new(self.items.iter().map(|&i| Item(i)).collect())
    }
}

/// A query response, as carried by the wire in either encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Nodes whose truss came back non-empty (`retrieved_nodes`).
    pub retrieved: usize,
    /// Nodes visited by the pruned walk (`visited_nodes`).
    pub visited: usize,
    /// Server-side wall-clock seconds for the query.
    pub elapsed_secs: f64,
    /// The retrieved trusses, in tree BFS order.
    pub trusses: Vec<TrussSummary>,
}

impl QueryResponse {
    /// Reduces a full [`tc_index::QueryResult`] to its wire form.
    pub fn from_result(r: &tc_index::QueryResult) -> QueryResponse {
        QueryResponse {
            retrieved: r.retrieved_nodes,
            visited: r.visited_nodes,
            elapsed_secs: r.elapsed_secs,
            trusses: r
                .trusses
                .iter()
                .map(|t| TrussSummary {
                    items: t.pattern.iter().map(|i| i.0).collect(),
                    vertices: t.num_vertices(),
                    edges: t.num_edges(),
                })
                .collect(),
        }
    }

    /// Renders the tab-separated frame: header line plus one line per
    /// truss, each `\n`-terminated.
    pub fn encode_tab(&self) -> String {
        let mut out = format!(
            "OK\t{}\t{}\t{}\n",
            self.trusses.len(),
            self.visited,
            self.elapsed_secs
        );
        for t in &self.trusses {
            push_items(&mut out, &t.items);
            let _ = writeln!(out, "\t{}\t{}", t.vertices, t.edges);
        }
        out
    }

    /// Renders the single-line JSON form (`\n`-terminated).
    pub fn encode_json(&self) -> String {
        let mut out = self.json_object();
        out.push('\n');
        out
    }

    /// Renders the bare JSON object, no trailing newline — the building
    /// block both the line protocol's `JSON` frames and the HTTP
    /// gateway's bodies (single and batched) are assembled from.
    pub fn json_object(&self) -> String {
        let mut out = format!(
            "{{\"status\":\"ok\",\"retrieved\":{},\"visited\":{},\"secs\":{},\"trusses\":[",
            self.retrieved, self.visited, self.elapsed_secs
        );
        for (i, t) in self.trusses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"pattern\":[{}],\"vertices\":{},\"edges\":{}}}",
                t.items
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                t.vertices,
                t.edges
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses the header line of a tab-separated frame, returning
    /// `(truss_count, visited, elapsed_secs)`.
    pub fn parse_tab_header(line: &str) -> Result<(usize, usize, f64), String> {
        let fields: Vec<&str> = line.trim_end().split('\t').collect();
        match fields.as_slice() {
            ["OK", count, visited, secs] => Ok((
                count
                    .parse()
                    .map_err(|_| format!("bad truss count '{count}'"))?,
                visited
                    .parse()
                    .map_err(|_| format!("bad visited count '{visited}'"))?,
                secs.parse().map_err(|_| format!("bad elapsed '{secs}'"))?,
            )),
            ["ERR", msg @ ..] => Err(format!("server error: {}", msg.join("\t"))),
            _ => Err(format!("malformed response header '{}'", line.trim_end())),
        }
    }

    /// Parses one truss data line of a tab-separated frame.
    pub fn parse_tab_truss(line: &str) -> Result<TrussSummary, String> {
        let fields: Vec<&str> = line.trim_end().split('\t').collect();
        let [items, vertices, edges] = fields.as_slice() else {
            return Err(format!("malformed truss line '{}'", line.trim_end()));
        };
        Ok(TrussSummary {
            items: parse_items(items)?,
            vertices: vertices
                .parse()
                .map_err(|_| format!("bad vertex count '{vertices}'"))?,
            edges: edges
                .parse()
                .map_err(|_| format!("bad edge count '{edges}'"))?,
        })
    }
}

/// Renders the admitted greeting line (`\n`-terminated).
pub fn encode_greeting_ok(nodes: usize, alpha_star: f64) -> String {
    format!("{GREETING_WORD} {PROTOCOL_VERSION} OK nodes={nodes} alpha_star={alpha_star}\n")
}

/// Renders the rejected greeting line (`\n`-terminated).
pub fn encode_greeting_busy(reason: &str) -> String {
    format!("{GREETING_WORD} {PROTOCOL_VERSION} BUSY {reason}\n")
}

/// What a greeting line said.
#[derive(Debug, Clone, PartialEq)]
pub enum Greeting {
    /// Session admitted; the directory facts advertised at connect time.
    Admitted {
        /// Protocol version the server speaks.
        version: u32,
        /// `SegmentTcTree::num_nodes()` of the served tree.
        nodes: usize,
        /// `alpha_upper_bound()` of the served tree.
        alpha_star: f64,
    },
    /// Session rejected by admission control; the connection is closed.
    Busy {
        /// Protocol version the server speaks.
        version: u32,
        /// Human-readable rejection reason.
        reason: String,
    },
}

/// Parses a greeting line.
pub fn parse_greeting(line: &str) -> Result<Greeting, String> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some(GREETING_WORD) {
        return Err(format!("not a tc-serve greeting: '{}'", line.trim_end()));
    }
    let version: u32 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("greeting missing version: '{}'", line.trim_end()))?;
    match tokens.next() {
        Some("OK") => {
            let mut nodes = None;
            let mut alpha_star = None;
            for kv in tokens {
                match kv.split_once('=') {
                    Some(("nodes", v)) => nodes = v.parse().ok(),
                    Some(("alpha_star", v)) => alpha_star = v.parse().ok(),
                    _ => {} // forward-compatible: ignore unknown facts
                }
            }
            Ok(Greeting::Admitted {
                version,
                nodes: nodes.ok_or("greeting missing nodes=")?,
                alpha_star: alpha_star.ok_or("greeting missing alpha_star=")?,
            })
        }
        Some("BUSY") => Ok(Greeting::Busy {
            version,
            reason: tokens.collect::<Vec<_>>().join(" "),
        }),
        other => Err(format!("unknown greeting status {other:?}")),
    }
}

/// Renders an in-session error line in the requested encoding
/// (`\n`-terminated). Newlines in `msg` are flattened so the frame stays
/// line-oriented; in the JSON encoding every remaining control character
/// (messages echo client input, which may carry a tab or worse) is
/// `\u00XX`-escaped so the body is always valid JSON.
pub fn encode_error(msg: &str, json: bool) -> String {
    let flat = msg.replace(['\n', '\r'], " ");
    if json {
        let mut escaped = String::with_capacity(flat.len());
        for c in flat.chars() {
            match c {
                '\\' => escaped.push_str("\\\\"),
                '"' => escaped.push_str("\\\""),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        format!("{{\"status\":\"err\",\"message\":\"{escaped}\"}}\n")
    } else {
        format!("ERR\t{flat}\n")
    }
}

/// Renders the STATS response from `(key, value)` rows (`\n`-terminated).
pub fn encode_stats(rows: &[(&str, u64)], json: bool) -> String {
    if json {
        let body = rows
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"status\":\"ok\",\"stats\":{{{body}}}}}\n")
    } else {
        let mut out = format!("OK\t{}\n", rows.len());
        for (k, v) in rows {
            out.push_str(&format!("{k}\t{v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_encode_and_parse() {
        let cases = [
            Request::Qba {
                alpha: 0.25,
                json: false,
            },
            Request::Qba {
                alpha: 0.0,
                json: true,
            },
            Request::Qbp {
                items: vec![3, 7, 12],
                json: false,
            },
            Request::Qbp {
                items: Vec::new(),
                json: true,
            },
            Request::Query {
                items: vec![1],
                alpha: 0.5,
                json: false,
            },
            Request::Stats { json: true },
            Request::Quit,
            Request::Shutdown,
        ];
        for req in cases {
            let line = req.encode();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
        // The bytes themselves, as the module docs spell them.
        let query = Request::Query {
            items: vec![1, 20, 300],
            alpha: 0.5,
            json: true,
        };
        assert_eq!(query.encode(), "QUERY 1,20,300 0.5 JSON");
        let qbp = Request::Qbp {
            items: Vec::new(),
            json: false,
        };
        assert_eq!(qbp.encode(), "QBP -");
    }

    #[test]
    fn parse_is_case_insensitive_on_verbs() {
        assert_eq!(
            Request::parse("qba 0.5").unwrap(),
            Request::Qba {
                alpha: 0.5,
                json: false
            }
        );
        assert_eq!(
            Request::parse("query 1,2 0.1 json").unwrap(),
            Request::Query {
                items: vec![1, 2],
                alpha: 0.1,
                json: true
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "  ",
            "FROB 1",
            "QBA",
            "QBA x",
            "QBA -0.5",
            "QBA inf",
            "QBA nan",
            "QBA 0.1 0.2",
            "QBP",
            "QBP 1,x",
            "QUERY 1,2",
            "QUERY 1,2 0.1 extra JSON extra",
            "STATS now",
            "QUIT please",
        ] {
            assert!(Request::parse(line).is_err(), "accepted: '{line}'");
        }
    }

    #[test]
    fn greeting_roundtrips_and_tolerates_future_facts() {
        let g = parse_greeting(&encode_greeting_ok(1469, 0.625)).unwrap();
        assert_eq!(
            g,
            Greeting::Admitted {
                version: PROTOCOL_VERSION,
                nodes: 1469,
                alpha_star: 0.625
            }
        );
        let g = parse_greeting("TCSERVE 9 OK nodes=3 shards=2 alpha_star=0.5\n").unwrap();
        assert_eq!(
            g,
            Greeting::Admitted {
                version: 9,
                nodes: 3,
                alpha_star: 0.5
            }
        );
        let g = parse_greeting(&encode_greeting_busy("inflight limit (4) reached")).unwrap();
        assert_eq!(
            g,
            Greeting::Busy {
                version: PROTOCOL_VERSION,
                reason: "inflight limit (4) reached".into()
            }
        );
        assert!(parse_greeting("HTTP/1.1 200 OK\n").is_err());
        assert!(parse_greeting("TCSERVE one OK nodes=1 alpha_star=0\n").is_err());
    }

    #[test]
    fn query_response_tab_frame_roundtrips() {
        let resp = QueryResponse {
            retrieved: 2,
            visited: 5,
            elapsed_secs: 0.000125,
            trusses: vec![
                TrussSummary {
                    items: vec![3],
                    vertices: 4,
                    edges: 6,
                },
                TrussSummary {
                    items: vec![3, 7],
                    vertices: 3,
                    edges: 3,
                },
            ],
        };
        let frame = resp.encode_tab();
        assert_eq!(frame, "OK\t2\t5\t0.000125\n3\t4\t6\n3,7\t3\t3\n");
        let mut lines = frame.lines();
        let (count, visited, secs) =
            QueryResponse::parse_tab_header(lines.next().unwrap()).unwrap();
        assert_eq!((count, visited), (2, 5));
        assert_eq!(secs, 0.000125, "floats must round-trip exactly");
        let parsed: Vec<TrussSummary> = lines
            .map(|l| QueryResponse::parse_tab_truss(l).unwrap())
            .collect();
        assert_eq!(parsed, resp.trusses);
    }

    #[test]
    fn empty_pattern_truss_line_roundtrips() {
        let t = TrussSummary {
            items: Vec::new(),
            vertices: 0,
            edges: 0,
        };
        let line = format!("{}\t{}\t{}", "-", t.vertices, t.edges);
        assert_eq!(QueryResponse::parse_tab_truss(&line).unwrap(), t);
        assert!(t.pattern().is_empty());
    }

    #[test]
    fn err_header_surfaces_server_message() {
        let err = QueryResponse::parse_tab_header("ERR\tbad alpha 'x'").unwrap_err();
        assert!(err.contains("bad alpha"), "{err}");
    }

    #[test]
    fn json_encodings_are_single_escaped_lines() {
        let resp = QueryResponse {
            retrieved: 1,
            visited: 1,
            elapsed_secs: 0.5,
            trusses: vec![TrussSummary {
                items: vec![1, 2],
                vertices: 3,
                edges: 3,
            }],
        };
        let json = resp.encode_json();
        assert_eq!(json.matches('\n').count(), 1);
        assert!(json.contains("\"pattern\":[1,2]"), "{json}");
        let err = encode_error("quote \" back \\ newline\nend", true);
        assert_eq!(err.matches('\n').count(), 1);
        assert!(err.contains("\\\""), "{err}");
        // Client-echoed control characters (a tab smuggled through a
        // query string, say) must still yield valid JSON: parse the body
        // back and recover the exact message.
        let msg = "bad alpha '0.\t5' \u{1} end";
        let err = encode_error(msg, true);
        let parsed = tc_util::json::parse(err.trim_end()).expect("error body must be valid JSON");
        assert_eq!(
            parsed
                .get("message")
                .and_then(tc_util::json::JsonValue::as_str),
            Some(msg)
        );
        let stats = encode_stats(&[("accepted", 3), ("qba", 1)], true);
        assert!(stats.contains("\"accepted\":3"), "{stats}");
        let stats_tab = encode_stats(&[("accepted", 3), ("qba", 1)], false);
        assert!(stats_tab.starts_with("OK\t2\n"), "{stats_tab}");
        assert!(stats_tab.contains("qba\t1\n"), "{stats_tab}");
    }

    #[test]
    fn truss_summary_rebuilds_pattern() {
        let t = TrussSummary {
            items: vec![2, 9],
            vertices: 1,
            edges: 0,
        };
        assert_eq!(t.pattern().to_string(), "{i2,i9}");
    }
}
