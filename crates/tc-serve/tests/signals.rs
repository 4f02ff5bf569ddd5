//! The signal wake socket, in a process of its own: the handlers
//! [`tc_serve::install_signal_handlers`] installs are process-wide, so no
//! other test's daemon may share this binary.
//!
//! The front end runs on a spawned thread, as an embedder might run it. A
//! process-directed signal is handled on the main thread, so the `poll` of
//! the accept loop is not interrupted: only the byte the handler writes to
//! the wake socket can wake it.

use std::time::{Duration, Instant};
use tc_data::{generate_coauthor, CoauthorConfig};
use tc_index::TcTreeBuilder;
use tc_serve::{ServeConfig, Server};
use tc_store::SegmentTcTree;

#[test]
fn signals_wake_a_front_end_off_the_main_thread() {
    let net = generate_coauthor(&CoauthorConfig {
        groups: 2,
        authors_per_group: 6,
        seed: 5,
        ..CoauthorConfig::default()
    })
    .network;
    let mut bytes = Vec::new();
    tc_store::save_tree_segment(&TcTreeBuilder::default().build(&net), &mut bytes).unwrap();
    let tree = SegmentTcTree::from_bytes(bytes).unwrap();

    tc_serve::install_signal_handlers().unwrap();
    // No reload path: the reload the signal starts fails, and counts.
    let server = Server::bind(tree, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let handle = server.handle();
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run().unwrap()).unwrap());
    let signal = |name: &str| {
        std::thread::sleep(Duration::from_millis(200)); // idle first
        let sent = Instant::now();
        let status = std::process::Command::new("kill")
            .args([name, &std::process::id().to_string()])
            .status()
            .unwrap();
        assert!(status.success(), "kill {name} failed");
        sent
    };

    let sent = signal("-HUP");
    while handle.stats().reload_failures == 0 {
        assert!(
            sent.elapsed() < Duration::from_secs(1),
            "SIGHUP did not reach the idle accept loop within 1 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("SIGHUP -> reload attempted in {:?}", sent.elapsed());

    let sent = signal("-TERM");
    stopped
        .recv_timeout(Duration::from_secs(1))
        .expect("SIGTERM did not stop the idle front end within 1 s");
    println!("SIGTERM -> run returned in {:?}", sent.elapsed());
}
