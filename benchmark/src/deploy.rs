//! Deployments under test: building one offline, serving it on loopback,
//! stopping it, and the scratch directory all of it lives in.

use crate::gen::{Frame, BUILD_BATCH_ROWS, SHARDS, WIDTH};
use crate::oracle::hasher;
use bbs_remote::{CoordinatorEngine, CoordinatorOptions, NodeSpec, Topology, TOPOLOGY_VERSION};
use bbs_server::{serve, Bind, Client, Engine, ServerConfig, ServerHandle};
use bbs_shard::{shard_base, ShardedDeployment};
use bbs_storage::DiskDeployment;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A reply that takes longer than this is a failed operation, not a hang.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The run's scratch directory, `<target>/benchmark-data/<pid>`, removed
/// when dropped — on success, on an error return and on a panic alike.
///
/// It sits under the build's target directory and never under
/// `std::env::temp_dir()`: on a tmpfs an fsync is free and the write path
/// would measure nothing.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    pub fn create() -> io::Result<DataDir> {
        let path = target_dir()
            .join("benchmark-data")
            .join(std::process::id().to_string());
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Where build outputs go: `CARGO_TARGET_DIR` when the caller set it (the
/// driver does), else `target/` under the working directory.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Page-cache size of the offline steps — building the base and mining in
/// place — which run as the CLI runs them: `bbs ingest` and `bbs
/// mine-deployment` default to 4 096 pages whatever the server is given.
pub const OFFLINE_CACHE_PAGES: usize = 4_096;

/// How a workload's rows are laid out and served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One engine; the server's `cache_pages` per file handle.
    Single { cache_pages: usize },
    /// [`SHARDS`] shard engines behind a coordinator, every hop a loopback
    /// TCP socket.
    Scatter { cache_pages: usize },
}

impl Shape {
    pub fn cache_pages(self) -> usize {
        match self {
            Shape::Single { cache_pages } | Shape::Scatter { cache_pages } => cache_pages,
        }
    }
}

/// Applies `frames` offline, the way `bbs ingest` does: rows through
/// `append_batch` in [`BUILD_BATCH_ROWS`]-row commits, expirations
/// through `resolve_tids` + `commit_deletes`.
pub fn build_offline(shape: Shape, root: &Path, frames: &[Frame]) -> io::Result<()> {
    match shape {
        Shape::Single { .. } => {
            let mut dep = DiskDeployment::open(root, WIDTH, hasher(), OFFLINE_CACHE_PAGES)?;
            for frame in frames {
                match frame {
                    Frame::Insert(txns) => {
                        for batch in txns.chunks(BUILD_BATCH_ROWS) {
                            dep.append_batch(batch)?;
                        }
                    }
                    Frame::Delete(tids) => {
                        let rows = dep.resolve_tids(tids)?;
                        dep.commit_deletes(&rows, &[])?;
                    }
                }
            }
        }
        Shape::Scatter { .. } => {
            let mut dep =
                ShardedDeployment::create(root, SHARDS, WIDTH, hasher(), OFFLINE_CACHE_PAGES)?;
            for frame in frames {
                match frame {
                    Frame::Insert(txns) => {
                        for batch in txns.chunks(BUILD_BATCH_ROWS) {
                            dep.append_batch(batch)?;
                            dep.flush()?;
                        }
                    }
                    Frame::Delete(_) => {
                        return Err(io::Error::other(
                            "the scatter shape is built from insert-only frames",
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn tcp_loopback() -> Bind {
    Bind {
        tcp: Some("127.0.0.1:0".into()),
        unix: None,
    }
}

fn bound_addr<H: bbs_server::RequestHandler>(handle: &ServerHandle<H>) -> String {
    handle
        .tcp_addr()
        .expect("a TCP listener was requested")
        .to_string()
}

/// A deployment being served in this process on loopback port `:0`.
pub struct Served {
    /// Where clients connect: the engine, or the coordinator.
    pub addr: String,
    engines: Vec<ServerHandle<Engine>>,
    coordinator: Option<ServerHandle<CoordinatorEngine>>,
}

impl Served {
    /// Opens the deployment at `root` and serves it.  Everything but the
    /// width and cache size is the server's default configuration — in
    /// particular the 50 ms commit window.
    pub fn start(shape: Shape, root: &Path) -> io::Result<Served> {
        let cfg = ServerConfig {
            width: WIDTH,
            cache_pages: shape.cache_pages(),
            ..ServerConfig::default()
        };
        match shape {
            Shape::Single { .. } => {
                let handle = serve(Engine::open(root, cfg)?, &tcp_loopback())?;
                Ok(Served {
                    addr: bound_addr(&handle),
                    engines: vec![handle],
                    coordinator: None,
                })
            }
            Shape::Scatter { .. } => {
                let mut served = Served {
                    addr: String::new(),
                    engines: Vec::with_capacity(SHARDS),
                    coordinator: None,
                };
                // A failure from here on drops `served`, which stops the
                // shard servers already started.
                for shard in 0..SHARDS {
                    let engine = Engine::open(&shard_base(root, shard), cfg.clone())?;
                    served.engines.push(serve(engine, &tcp_loopback())?);
                }
                let topology = Topology {
                    version: TOPOLOGY_VERSION,
                    shards: SHARDS,
                    width: WIDTH,
                    hasher: hasher().id(),
                    nodes: served
                        .engines
                        .iter()
                        .enumerate()
                        .map(|(id, handle)| NodeSpec {
                            id: id as u32,
                            primary: bound_addr(handle),
                            follower: None,
                        })
                        .collect(),
                };
                let coordinator =
                    CoordinatorEngine::connect(topology, CoordinatorOptions::default())?;
                let handle = serve(coordinator, &tcp_loopback())?;
                served.addr = bound_addr(&handle);
                served.coordinator = Some(handle);
                Ok(served)
            }
        }
    }

    pub fn connect(&self) -> io::Result<Client> {
        let mut client = Client::connect_tcp(self.addr.as_str()).map_err(io::Error::other)?;
        client
            .set_timeout(Some(CLIENT_TIMEOUT))
            .map_err(io::Error::other)?;
        Ok(client)
    }

    /// TCP addresses of the engines, in shard order.
    pub fn shard_addrs(&self) -> Vec<String> {
        self.engines.iter().map(bound_addr).collect()
    }

    pub fn coordinator(&self) -> Option<&Arc<CoordinatorEngine>> {
        self.coordinator.as_ref().map(ServerHandle::engine)
    }

    /// Graceful stop, front to back: drain, commit what is queued, sync,
    /// join every thread.  Also what `Drop` does.
    pub fn stop(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.join();
        }
        for engine in self.engines.drain(..) {
            engine.join();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Bytes of every regular file in `dir`.  Each deployment gets a directory
/// of its own, so this is the deployment's whole footprint — all eight
/// files of a single one, or the manifest and every shard's files.
pub fn deployment_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
