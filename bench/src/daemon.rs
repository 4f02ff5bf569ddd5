//! The real `tc serve` / `tc router` child processes the serving phases
//! drive: spawned on port 0, address read from the `listening on` line,
//! killed when dropped (so also when the harness panics).

use crate::pin::{Stopwatch, Timed};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tc_serve::{HttpClient, ServeClient};
use tc_store::{HashScheme, ShardEntry, ShardMap};

/// `--workers` of every `tc serve` daemon. A session pins a worker for its
/// lifetime: one is the load generator's (or the router's pooled
/// connection), the other answers `STATS` while that one is held.
pub const WORKERS: usize = 2;

pub struct Daemon {
    child: Child,
    /// Kept open: a daemon whose stdout closed would die on its next print.
    stdout: BufReader<ChildStdout>,
    /// Line-protocol address for `tc serve`, HTTP address for `tc router`.
    pub addr: String,
    /// `tc serve --http-addr` gateway address.
    pub http_addr: Option<String>,
    /// Spawn to the `listening on` line.
    pub spawn_to_listening: Duration,
}

impl Daemon {
    fn spawn(mut cmd: Command, http: bool) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
            http_addr: None,
            spawn_to_listening: Duration::ZERO,
        };
        daemon.addr = daemon.read_addr("listening on")?;
        daemon.spawn_to_listening = started.elapsed();
        if http {
            daemon.http_addr = Some(daemon.read_addr("http gateway on")?);
        }
        Ok(daemon)
    }

    /// Reads one stdout line and returns the word after `marker`.
    fn read_addr(&mut self, marker: &str) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let addr = line
            .split_once(marker)
            .and_then(|(_, rest)| rest.split_whitespace().next());
        match addr {
            Some(a) if n > 0 => Ok(a.to_string()),
            _ => Err(format!(
                "daemon said '{}' where '{marker} <addr>' was expected",
                line.trim_end()
            )),
        }
    }

    /// `tc serve <segment>` on loopback port 0.
    pub fn serve(
        tc: &Path,
        segment: &Path,
        http: bool,
        cache_bytes: Option<u64>,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(tc);
        cmd.arg("serve")
            .arg(segment)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string());
        if http {
            cmd.args(["--http-addr", "127.0.0.1:0"]);
        }
        if let Some(bytes) = cache_bytes {
            cmd.arg("--cache-bytes").arg(bytes.to_string());
        }
        Daemon::spawn(cmd, http)
    }

    /// `tc router <map>` on loopback port 0.
    pub fn router(tc: &Path, map: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(tc);
        cmd.arg("router")
            .arg(map)
            .args(["--http-addr", "127.0.0.1:0"]);
        Daemon::spawn(cmd, false)
    }

    /// The process's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// The daemon's `STATS` table. Needs a free worker: a router's pooled
    /// connections may hold them all.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, String> {
        let mut client = ServeClient::connect(&self.addr).map_err(|e| e.to_string())?;
        let rows = client.stats().map_err(|e| e.to_string())?;
        client.quit().map_err(|e| e.to_string())?;
        Ok(rows)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Which front end the load generator talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `tc serve`, line protocol, one query per request.
    Line,
    /// `tc serve --http-addr`, `GET /qba` / `GET /qbp`.
    HttpGet,
    /// `tc serve --http-addr`, `POST /query` with a batch per request.
    HttpBatch,
    /// `tc router` over two `tc serve` shards, `GET /qba` / `GET /qbp`.
    Routed,
}

/// The segment files a front end serves.
#[derive(Clone, Copy)]
pub struct Files<'a> {
    pub tc: &'a Path,
    pub segment: &'a Path,
    /// Shard segments (`Routed` only) and where to write their map.
    pub shards: &'a [std::path::PathBuf],
    pub map: &'a Path,
    /// The unsharded tree's level-1 items, which the map records.
    pub level1: &'a [u32],
}

/// A running front end: its daemons and the address requests go to.
pub struct Topology {
    /// `tc serve` daemons: the one daemon, or the shards.
    pub serves: Vec<Daemon>,
    pub router: Option<Daemon>,
    pub front: Front,
    /// Spawn of the first process to the first answered query.
    pub cold_first_answer: Timed,
}

impl Topology {
    /// Spawns `front` over `files`, on `cpu` like the caller, and times its
    /// first answer to a QBA at `alpha`.
    pub fn start(
        front: Front,
        files: &Files,
        cache_bytes: Option<u64>,
        alpha: f64,
        cpu: usize,
    ) -> Result<Topology, String> {
        let watch = Stopwatch::start(cpu);
        let mut topo = Topology {
            serves: Vec::new(),
            router: None,
            front,
            cold_first_answer: watch.stop(),
        };
        if front == Front::Routed {
            for shard in files.shards {
                topo.serves
                    .push(Daemon::serve(files.tc, shard, false, cache_bytes)?);
            }
            let map = ShardMap {
                scheme: HashScheme::Crc32Item,
                items: files.level1.to_vec(),
                shards: topo
                    .serves
                    .iter()
                    .zip(files.shards)
                    .map(|(d, path)| ShardEntry {
                        addr: d.addr.clone(),
                        path: path.to_string_lossy().into_owned(),
                    })
                    .collect(),
            };
            map.save_to_path(files.map)
                .map_err(|e| format!("{}: {e}", files.map.display()))?;
            topo.router = Some(Daemon::router(files.tc, files.map)?);
        } else {
            topo.serves.push(Daemon::serve(
                files.tc,
                files.segment,
                front != Front::Line,
                cache_bytes,
            )?);
        }
        match front {
            Front::Line => {
                let mut c = ServeClient::connect(topo.addr()).map_err(|e| e.to_string())?;
                c.qba(alpha).map_err(|e| e.to_string())?;
            }
            _ => {
                let mut c = HttpClient::connect(topo.addr()).map_err(|e| e.to_string())?;
                let resp = c
                    .get(&format!("/qba?alpha={alpha}"))
                    .map_err(|e| e.to_string())?;
                if !resp.is_ok() {
                    return Err(format!("first answer was {}: {}", resp.status, resp.body));
                }
            }
        }
        topo.cold_first_answer = watch.stop();
        Ok(topo)
    }

    /// Where the load generator connects.
    pub fn addr(&self) -> &str {
        match (&self.router, self.front) {
            (Some(router), _) => &router.addr,
            (None, Front::Line) => &self.serves[0].addr,
            (None, _) => self.serves[0]
                .http_addr
                .as_deref()
                .expect("spawned with --http-addr"),
        }
    }

    /// `VmHWM` summed over the daemons, in MB: what the serving tier held.
    /// (The sum, not the largest: which shard is the larger depends on how
    /// the seed's item labels hash, the two together do not.)
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.serves
            .iter()
            .chain(&self.router)
            .map(Daemon::peak_rss_mb)
            .sum()
    }
}
