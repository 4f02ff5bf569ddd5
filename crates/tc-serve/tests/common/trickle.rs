//! A client that trickles: it writes a request head, then one more byte
//! every 100 ms — each faster than the daemon's 200 ms read tick — and
//! never completes the line or body. Shared by the line-protocol and
//! HTTP idle-timeout tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Writes `head`, then `filler` every 100 ms until the server closes the
/// connection; returns how long after `head` it closed. Panics if the
/// session is still open after three seconds.
pub fn until_closed(mut stream: TcpStream, head: &[u8], filler: &[u8]) -> Duration {
    let mut reader = stream.try_clone().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let _ = reader.read_to_end(&mut Vec::new());
        tx.send(Instant::now()).unwrap();
    });
    let started = Instant::now();
    stream.write_all(head).unwrap();
    let closed = loop {
        if let Ok(at) = rx.recv_timeout(Duration::from_millis(100)) {
            break at;
        }
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "trickling session still open after 3 s"
        );
        // A reset from the closed server just ends the trickle.
        let _ = stream.write_all(filler);
    };
    watcher.join().unwrap();
    closed - started
}
