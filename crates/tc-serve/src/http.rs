//! The HTTP/1.1 + JSON gateway: the same queries as the line protocol,
//! reachable with `curl`, plus the Prometheus scrape endpoint.
//!
//! Built on `std::net` only, like the rest of the daemon — requests are
//! parsed by hand against a deliberately small grammar and answered from
//! the same worker pool, admission bound, counters, and hot-swappable
//! segment as the TCP front-end.
//!
//! ## Endpoints
//!
//! ```text
//! GET  /healthz                      liveness + directory facts
//! GET  /metrics                      Prometheus text exposition (0.0.4)
//! GET  /qba?alpha=<F>                query-by-alpha
//! GET  /qbp?items=<i1,i2,…|->        query-by-pattern (alpha = 0)
//! GET  /query?items=<…>&alpha=<F>    the general (q, alpha) query
//! POST /query                        pipelined batch (JSON body)
//! ```
//!
//! Query responses are the same JSON objects the line protocol's `JSON`
//! frames carry (`{"status":"ok","retrieved":…,"visited":…,"secs":…,
//! "trusses":[…]}`), so a `curl` answer is byte-comparable to
//! `tc query --json` output — CI's `http-smoke` job does exactly that.
//! Item ids and alpha are plain numerals, so no percent-decoding is
//! needed (and none is performed; `%` in a target is a `400`).
//!
//! ## Batch bodies
//!
//! `POST /query` takes either a bare JSON array of query objects or
//! `{"queries":[…]}`. Each object names `items` (array of ids) and/or
//! `alpha` (number): both → `QUERY`, alpha only → `QBA`, items only →
//! `QBP`, neither → the batch is rejected. The response is
//! `{"status":"ok","count":N,"results":[…]}` with one result object per
//! query, in order; a query that fails server-side yields an inline
//! `{"status":"err",…}` object without failing its neighbours.
//!
//! ## Errors and robustness
//!
//! Every error is a JSON body with a conventional status code: `400`
//! (malformed request line, header, parameter, or body — the connection
//! closes, since framing may be lost), `404`/`405` (unknown path / wrong
//! method), `413` (body over 1 MiB), `429` (per-client rate limit, with
//! `Retry-After`), `500` (server-side query failure), `503` (admission
//! bound or shutdown). Malformed input can never panic or hang the
//! worker: all reads are capped and tick against the shutdown flag and
//! idle timeout, exactly like the line protocol.

use crate::backend::{Answer, Backend, QuerySpec};
use crate::protocol::{encode_error, parse_alpha, parse_items};
use crate::server::{idle_timeout_error, Core, ReadStop, Slot, TickReader, Wire};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tc_util::json::{parse as parse_json, JsonValue};

/// Longest accepted request or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted `POST /query` body, in bytes.
const MAX_BODY: usize = 1024 * 1024;
/// Most queries accepted in one batch body.
pub const MAX_BATCH: usize = 4096;

/// JSON content type for API responses.
const CT_JSON: &str = "application/json";
/// The Prometheus text exposition content type.
const CT_METRICS: &str = "text/plain; version=0.0.4";

/// The header naming the shards a partial answer is missing.
const PARTIAL_HEADER: &str = "X-TC-Partial-Shards";

/// Reason phrase for every status code the gateway can emit.
fn reason_phrase(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// One routed response: status, body, and — for an answer served around
/// down shards — their ids, surfaced in [`PARTIAL_HEADER`].
struct Reply {
    code: u16,
    content_type: &'static str,
    body: String,
    missing: Vec<u32>,
}

impl Reply {
    fn new(code: u16, content_type: &'static str, body: String) -> Reply {
        Reply {
            code,
            content_type,
            body,
            missing: Vec::new(),
        }
    }

    /// A JSON error body (the trailing newline is cosmetic for `curl`;
    /// bodies are length-delimited).
    fn error(code: u16, msg: &str) -> Reply {
        Reply::new(code, CT_JSON, encode_error(msg, true))
    }
}

/// Writes one complete response and counts it. `close` adds
/// `Connection: close`; the caller must then end the session.
fn respond<B: Backend>(
    core: &Core<B>,
    stream: &mut TcpStream,
    reply: &Reply,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        reply.code,
        reason_phrase(reply.code),
        reply.content_type,
        reply.body.len()
    );
    if reply.code == 429 || reply.code == 503 {
        head.push_str("Retry-After: 1\r\n");
    }
    if !reply.missing.is_empty() {
        let ids: Vec<String> = reply.missing.iter().map(u32::to_string).collect();
        head.push_str(&format!("{PARTIAL_HEADER}: {}\r\n", ids.join(",")));
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    // Head and body leave in one write: on a `TCP_NODELAY` socket two
    // writes are two syscalls and two segments per response.
    head.push_str(&reply.body);
    core.metrics.count_http_response(reply.code);
    stream.write_all(head.as_bytes())
}

impl<B: Backend> Wire<B> {
    /// The HTTP/JSON gateway: the rate limit is charged per request, and
    /// an admission refusal is a `503` written straight from the accept
    /// loop (the session was never queued, so no worker is involved).
    pub const HTTP: Wire<B> = Wire {
        serve: serve_session,
        refuse: |core, stream, reason| respond(core, stream, &Reply::error(503, reason), true),
        rate_per_connection: false,
    };
}

/// Answers a malformed request with [`param_error`] and closes the
/// connection (framing may be lost).
fn bad_request<B: Backend>(
    core: &Core<B>,
    stream: &mut TcpStream,
    msg: &str,
) -> std::io::Result<()> {
    respond(core, stream, &param_error(core, msg), true)
}

/// Serves one admitted HTTP connection (keep-alive: many requests) until
/// the client closes, an error closes it, or shutdown drains it.
fn serve_session<B: Backend>(
    core: &Core<B>,
    mut stream: TcpStream,
    _slot: &mut Slot,
) -> std::io::Result<()> {
    let mut reader = TickReader::new(core, &stream)?;
    let client_ip = stream.peer_addr().ok().map(|a| a.ip());

    let mut line = String::new();
    let mut header = String::new();
    loop {
        match reader.read_line(&mut line, MAX_LINE)? {
            Ok(()) => {}
            Err(ReadStop::Closed) => return Ok(()),
            Err(ReadStop::IdleTimeout) => return Err(idle_timeout_error()),
            Err(ReadStop::TooLong) => {
                return bad_request(core, &mut stream, "request line too long")
            }
        }
        if line.is_empty() {
            continue; // tolerate a stray blank line between requests
        }

        // ---- request line -------------------------------------------------
        let parts: Vec<&str> = line.split(' ').filter(|t| !t.is_empty()).collect();
        let [method, target, version] = parts.as_slice() else {
            return bad_request(core, &mut stream, "malformed request line");
        };
        if !version.starts_with("HTTP/1.") {
            return bad_request(core, &mut stream, "only HTTP/1.0 and HTTP/1.1 are spoken");
        }
        let http10 = *version == "HTTP/1.0";

        // ---- headers ------------------------------------------------------
        let mut content_length: usize = 0;
        let mut connection = String::new();
        let mut header_count = 0usize;
        loop {
            match reader.read_line(&mut header, MAX_LINE)? {
                Ok(()) => {}
                Err(ReadStop::TooLong) => {
                    return bad_request(core, &mut stream, "header line too long")
                }
                Err(ReadStop::IdleTimeout) => return Err(idle_timeout_error()),
                Err(ReadStop::Closed) => return Ok(()), // mid-headers
            }
            if header.is_empty() {
                break;
            }
            header_count += 1;
            if header_count > MAX_HEADERS {
                return bad_request(core, &mut stream, "too many headers");
            }
            let Some((name, value)) = header.split_once(':') else {
                return bad_request(core, &mut stream, "malformed header line");
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    let Ok(n) = value.parse::<usize>() else {
                        return bad_request(core, &mut stream, "bad Content-Length");
                    };
                    content_length = n;
                }
                "connection" => connection = value.to_ascii_lowercase(),
                // Chunked bodies are out of grammar; refuse rather than
                // desynchronise on framing we don't implement.
                "transfer-encoding" => {
                    return bad_request(core, &mut stream, "Transfer-Encoding is not supported")
                }
                _ => {}
            }
        }

        // ---- body ---------------------------------------------------------
        if content_length > MAX_BODY {
            core.protocol_error();
            let reply = Reply::error(413, &format!("body exceeds {MAX_BODY} bytes"));
            return respond(core, &mut stream, &reply, true);
        }
        let mut body = vec![0u8; content_length];
        if content_length > 0 {
            match reader.read_exact(&mut body)? {
                Ok(()) => {}
                Err(ReadStop::IdleTimeout) => return Err(idle_timeout_error()),
                Err(_) => return Ok(()), // closed mid-body
            }
        }

        let close_after = connection == "close" || (http10 && connection != "keep-alive");

        // ---- rate limit ---------------------------------------------------
        // Introspection endpoints are exempt: a throttled client must
        // still be observable, and scrapers must never be starved by a
        // noisy co-tenant behind the same IP.
        let path = target.split('?').next().unwrap_or("");
        let introspection = path == "/healthz" || path == "/metrics";
        let reply = match client_ip {
            Some(ip) if !introspection && !core.within_rate(ip) => {
                Reply::error(429, "per-client rate limit exceeded")
            }
            _ => route(core, method, target, &body),
        };
        let close = close_after || reply.code == 400;
        respond(core, &mut stream, &reply, close)?;
        if close || core.is_shutting_down() {
            return Ok(());
        }
    }
}

/// Dispatches one parsed request to its handler.
fn route<B: Backend>(core: &Core<B>, method: &str, target: &str, body: &[u8]) -> Reply {
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if target.contains('%') {
        return param_error(core, "percent-encoding is not used by this API");
    }
    match (method, path) {
        ("GET", "/healthz") => {
            core.metrics.stats.fetch_add(1, Ordering::Relaxed);
            let body = core.backend.healthz(&core.backend.snapshot());
            Reply::new(200, CT_JSON, body)
        }
        ("GET", "/metrics") => Reply::new(200, CT_METRICS, core.render_metrics()),
        ("GET", "/qba") => match require_param(query_string, "alpha").and_then(parse_alpha) {
            Ok(alpha) => run_query(core, QuerySpec::Qba(alpha)),
            Err(msg) => param_error(core, &msg),
        },
        ("GET", "/qbp") => match require_param(query_string, "items").and_then(parse_items_qs) {
            Ok(items) => run_query(core, QuerySpec::Qbp(items)),
            Err(msg) => param_error(core, &msg),
        },
        ("GET", "/query") => {
            let parsed = require_param(query_string, "items")
                .and_then(parse_items_qs)
                .and_then(|items| {
                    require_param(query_string, "alpha")
                        .and_then(parse_alpha)
                        .map(|alpha| (items, alpha))
                });
            match parsed {
                Ok((items, alpha)) => run_query(core, QuerySpec::Query(items, alpha)),
                Err(msg) => param_error(core, &msg),
            }
        }
        ("POST", "/query") => handle_batch(core, body),
        (_, "/healthz" | "/metrics" | "/qba" | "/qbp" | "/query") => {
            Reply::error(405, &format!("{method} not allowed here"))
        }
        _ => Reply::error(404, &format!("no such endpoint {path}")),
    }
}

/// Counts a malformed request and words its `400`.
fn param_error<B: Backend>(core: &Core<B>, msg: &str) -> Reply {
    core.protocol_error();
    Reply::error(400, msg)
}

/// Finds `name` in a raw query string (`k=v&k=v`, no decoding).
fn require_param<'a>(query_string: &'a str, name: &str) -> Result<&'a str, String> {
    query_string
        .split('&')
        .find_map(|pair| match pair.split_once('=') {
            Some((k, v)) if k == name => Some(v),
            _ => None,
        })
        .ok_or_else(|| format!("missing query parameter '{name}'"))
}

/// `items=` accepts the same grammar as the line protocol, plus the bare
/// empty value as a second spelling of the empty pattern.
fn parse_items_qs(raw: &str) -> Result<Vec<u32>, String> {
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    parse_items(raw)
}

/// Runs one query against the current snapshot.
fn run_query<B: Backend>(core: &Core<B>, spec: QuerySpec) -> Reply {
    match core.execute(&core.backend.snapshot(), &spec) {
        Answer::Ok(resp, missing) => Reply {
            missing,
            ..Reply::new(200, CT_JSON, resp.encode_json())
        },
        Answer::Err(code, msg) => Reply::error(code, &msg),
    }
}

/// `POST /query`: parse the whole batch up front (reject it atomically on
/// any malformed entry), then execute in order against one snapshot. A
/// failed entry — or, on a strict router, one whose shard is down — fails
/// inline without voiding the rest of the batch the client pipelined with
/// it; entries answered around down shards put the union of those shards
/// in [`PARTIAL_HEADER`].
fn handle_batch<B: Backend>(core: &Core<B>, body: &[u8]) -> Reply {
    let started = Instant::now();
    let Ok(text) = std::str::from_utf8(body) else {
        return param_error(core, "body is not UTF-8");
    };
    let specs = match parse_batch_specs(text) {
        Ok(specs) => specs,
        Err(msg) => return param_error(core, &msg),
    };
    core.metrics.batch.fetch_add(1, Ordering::Relaxed);
    // One snapshot for the whole batch: a hot reload landing mid-batch
    // never mixes segments (or shard layouts) inside one response.
    let snapshot = core.backend.snapshot();
    let mut results = String::new();
    let mut all_missing: Vec<u32> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        match core.execute(&snapshot, spec) {
            Answer::Ok(resp, missing) => {
                results.push_str(&resp.json_object());
                all_missing.extend(missing);
            }
            Answer::Err(_, msg) => results.push_str(encode_error(&msg, true).trim_end()),
        }
    }
    core.metrics
        .batch_latency
        .observe(started.elapsed().as_secs_f64());
    all_missing.sort_unstable();
    all_missing.dedup();
    Reply {
        missing: all_missing,
        ..Reply::new(
            200,
            CT_JSON,
            format!(
                "{{\"status\":\"ok\",\"count\":{},\"results\":[{results}]}}\n",
                specs.len()
            ),
        )
    }
}

/// Parses a batch body into query specs: a bare array or
/// `{"queries":[…]}` of objects naming `items` and/or `alpha`.
pub fn parse_batch_specs(text: &str) -> Result<Vec<QuerySpec>, String> {
    let value = parse_json(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let entries = value
        .as_arr()
        .or_else(|| value.get("queries").and_then(JsonValue::as_arr))
        .ok_or("body must be a JSON array or {\"queries\":[…]}")?;
    if entries.len() > MAX_BATCH {
        return Err(format!("batch of {} exceeds {MAX_BATCH}", entries.len()));
    }
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let items = match entry.get("items") {
                None => None,
                Some(v) => Some(
                    v.as_arr()
                        .ok_or(format!("query {i}: items must be an array"))?
                        .iter()
                        .map(|x| {
                            let n = x
                                .as_num()
                                .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
                                .ok_or(format!("query {i}: bad item id"))?;
                            u32::try_from(n as u64)
                                .map_err(|_| format!("query {i}: item id out of range"))
                        })
                        .collect::<Result<Vec<u32>, String>>()?,
                ),
            };
            let alpha = match entry.get("alpha") {
                None => None,
                Some(v) => Some(
                    v.as_num()
                        .filter(|a| a.is_finite() && *a >= 0.0)
                        .ok_or(format!("query {i}: alpha must be finite and >= 0"))?,
                ),
            };
            match (items, alpha) {
                (Some(items), Some(alpha)) => Ok(QuerySpec::Query(items, alpha)),
                (None, Some(alpha)) => Ok(QuerySpec::Qba(alpha)),
                (Some(items), None) => Ok(QuerySpec::Qbp(items)),
                (None, None) => Err(format!("query {i}: needs items and/or alpha")),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The response body, exactly `Content-Length` bytes.
    pub body: String,
}

impl HttpResponse {
    /// Whether the status is 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A minimal blocking keep-alive HTTP/1.1 client — just enough for
/// `tc-serve`'s own tests, the `bench/` load generator, and embedders who
/// already link this crate. Speaks only what the gateway serves:
/// `Content-Length`-delimited bodies over one reused connection.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:8080`).
    pub fn connect(addr: &str) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
        })
    }

    /// Issues `GET <target>` on the kept-alive connection.
    pub fn get(&mut self, target: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", target, None)
    }

    /// Issues `POST <target>` with a JSON `body`.
    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", target, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: tc-serve\r\n");
        if let Some(body) = body {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        if let Some(body) = body {
            req.push_str(body);
        }
        self.reader.get_mut().write_all(req.as_bytes())?;

        let bad = |msg: String| std::io::Error::new(ErrorKind::InvalidData, msg);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(format!("malformed status line '{}'", line.trim_end())))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers".to_string()));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad Content-Length '{}'", value.trim())))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".to_string()))?;
        Ok(HttpResponse { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_params_are_found_without_decoding() {
        assert_eq!(require_param("alpha=0.5", "alpha").unwrap(), "0.5");
        assert_eq!(require_param("items=1,2&alpha=0", "alpha").unwrap(), "0");
        assert_eq!(require_param("items=&alpha=0", "items").unwrap(), "");
        assert!(require_param("alpha=0.5", "items").is_err());
        assert!(require_param("", "alpha").is_err());
    }

    #[test]
    fn items_param_accepts_both_empty_spellings() {
        assert_eq!(parse_items_qs("").unwrap(), Vec::<u32>::new());
        assert_eq!(parse_items_qs("-").unwrap(), Vec::<u32>::new());
        assert_eq!(parse_items_qs("3,1").unwrap(), vec![3, 1]);
        assert!(parse_items_qs("3,x").is_err());
    }

    #[test]
    fn batch_specs_parse_both_shapes_and_all_three_verbs() {
        let bare = r#"[{"alpha":0.25},{"items":[3,7]},{"items":[1],"alpha":0.5}]"#;
        let specs = parse_batch_specs(bare).unwrap();
        assert_eq!(
            specs,
            vec![
                QuerySpec::Qba(0.25),
                QuerySpec::Qbp(vec![3, 7]),
                QuerySpec::Query(vec![1], 0.5),
            ]
        );
        let wrapped = r#"{"queries":[{"items":[],"alpha":0}]}"#;
        assert_eq!(
            parse_batch_specs(wrapped).unwrap(),
            vec![QuerySpec::Query(vec![], 0.0)]
        );
    }

    #[test]
    fn batch_specs_reject_malformed_entries() {
        for body in [
            "",
            "not json",
            "{}",
            r#"{"queries":{}}"#,
            r#"[{}]"#,
            r#"[{"items":3}]"#,
            r#"[{"items":[1.5]}]"#,
            r#"[{"items":[-1]}]"#,
            r#"[{"items":[1],"alpha":-0.5}]"#,
            r#"[{"alpha":"high"}]"#,
            r#"[{"items":[99999999999]}]"#,
        ] {
            assert!(parse_batch_specs(body).is_err(), "accepted: {body}");
        }
    }

    #[test]
    fn batch_cap_is_enforced() {
        let mut body = String::from("[");
        for i in 0..=MAX_BATCH {
            if i > 0 {
                body.push(',');
            }
            body.push_str("{\"alpha\":0}");
        }
        body.push(']');
        let err = parse_batch_specs(&body).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn reason_phrases_cover_the_exposition_codes() {
        for code in crate::metrics::HTTP_CODES {
            assert!(!reason_phrase(code).is_empty());
        }
        assert_eq!(reason_phrase(418), "Internal Server Error");
    }
}
