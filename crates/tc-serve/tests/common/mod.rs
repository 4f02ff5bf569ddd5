//! Raw HTTP request payloads for the gateway's robustness tests, shared
//! with `tc-router`'s daemon-vs-router differential test (which includes
//! this file by path): one table, so the router's front end is held to
//! every case the daemon's is.
//!
//! Every payload ends its connection — a `400`/`413` closes it, as does
//! `Connection: close` or HTTP/1.0's default — so a client can write the
//! payload and read to EOF. No case touches `/healthz` or `/metrics`,
//! whose bodies legitimately differ between a daemon and a router.

/// One raw request stream and the status of each response it draws.
pub struct RawCase {
    pub name: &'static str,
    pub payload: Vec<u8>,
    pub statuses: &'static [u16],
}

pub fn raw_cases() -> Vec<RawCase> {
    let case = |name, payload: &[u8], statuses| RawCase {
        name,
        payload: payload.to_vec(),
        statuses,
    };
    let many_headers = format!(
        "GET /qba?alpha=0 HTTP/1.1\r\n{}\r\n",
        "X-Pad: 1\r\n".repeat(65)
    );
    let nesting_bomb = format!(
        "POST /query HTTP/1.1\r\nContent-Length: 200\r\n\r\n{}",
        "[".repeat(200)
    );
    vec![
        case("no request line grammar", b"garbage\r\n\r\n", &[400]),
        case("not HTTP/1.x", b"GET /qba?alpha=0 SPDY/3\r\n\r\n", &[400]),
        case(
            "header without a colon",
            b"GET /qba HTTP/1.1\r\nno-colon-here\r\n\r\n",
            &[400],
        ),
        case("alpha not a number", b"GET /qba?alpha=nope HTTP/1.1\r\n\r\n", &[400]),
        case("alpha negative", b"GET /qba?alpha=-1 HTTP/1.1\r\n\r\n", &[400]),
        case("item not a number", b"GET /qbp?items=1,x HTTP/1.1\r\n\r\n", &[400]),
        case("query without alpha", b"GET /query?items=1 HTTP/1.1\r\n\r\n", &[400]),
        case("% in target", b"GET /qba%3Falpha=0 HTTP/1.1\r\n\r\n", &[400]),
        case(
            "batch body not JSON",
            b"POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson",
            &[400],
        ),
        case(
            "Content-Length not a number",
            b"POST /query HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            &[400],
        ),
        case(
            "Transfer-Encoding",
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            &[400],
        ),
        case(
            "request line over 8 KiB",
            &[b"GET /".as_slice(), &[b'a'; 9000], b" HTTP/1.1\r\n\r\n"].concat(),
            &[400],
        ),
        // Exactly the line budget and no newline: cut off, not awaited.
        case("unterminated 8 KiB line", &[b'a'; 8 * 1024 + 2], &[400]),
        case("more than 64 headers", many_headers.as_bytes(), &[400]),
        case("JSON nesting bomb", nesting_bomb.as_bytes(), &[400]),
        // Refused on its declared length, before any of it is read.
        case(
            "oversized body",
            b"POST /query HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n",
            &[413],
        ),
        case(
            "unknown path",
            b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
            &[404],
        ),
        case(
            "wrong method",
            b"POST /qba HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
            &[405],
        ),
        case("HTTP/1.0 closes by default", b"GET /qba?alpha=0 HTTP/1.0\r\n\r\n", &[200]),
        case(
            "HTTP/1.0 keep-alive on request",
            b"GET /qbp?items=- HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /nope HTTP/1.0\r\n\r\n",
            &[200, 404],
        ),
        case(
            "blank line between requests",
            b"GET /qba?alpha=0 HTTP/1.1\r\n\r\n\r\n\
              GET /query?items=0&alpha=0 HTTP/1.1\r\nConnection: close\r\n\r\n",
            &[200, 200],
        ),
        case(
            "batch of all three verbs",
            b"POST /query HTTP/1.1\r\nContent-Length: 53\r\nConnection: close\r\n\r\n\
              [{\"alpha\":0},{\"items\":[0]},{\"items\":[0],\"alpha\":0.1}]",
            &[200],
        ),
    ]
}
