//! The episerve TCP front-end: accept loop, per-connection request
//! handlers, and subscription streaming.
//!
//! Connection protocol: the first request must be
//! [`Request::Hello`] with the right magic/version; everything after is
//! request/response in lockstep, except [`Request::Subscribe`], which
//! flips the connection into a one-way [`kind::EVENT`] stream that ends
//! at the job's terminal event.
//!
//! Sockets run with a short read timeout so every handler thread
//! re-checks the shutdown flag regularly; [`Server::join`] can therefore
//! always complete: accept loop first, then the worker pool (drained by
//! [`Manager::shutdown`]'s cooperative cancels), then the handlers.

use crate::manager::{EngineCaps, LifecycleError, Manager, SubmitError};
use crate::pool::{self, Pool, PoolConfig};
use crate::protocol::{
    decode_request, encode_event, encode_response, errcode, kind, Request, Response, MAGIC, VERSION,
};
use crate::worlds::{WorldCache, WorldCacheStats, WORLD_CACHE_BUDGET};
use chare_rt::{read_frame, write_frame};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked socket read waits before re-checking shutdown.
const READ_TICK: Duration = Duration::from_millis(200);
/// How long a subscription waits for the next event before re-checking
/// shutdown.
const STREAM_TICK: Duration = Duration::from_millis(100);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Checkpoint + transition-log directory.
    pub data_dir: PathBuf,
    /// Scheduler queue capacity.
    pub queue_cap: usize,
    /// Per-subscriber event buffer (the lagging-subscriber window).
    pub topic_cap: usize,
    /// Per-engine concurrency caps.
    pub caps: EngineCaps,
    /// Worker threads.
    pub pool: PoolConfig,
}

impl ServerConfig {
    /// Loopback defaults rooted at `data_dir`.
    pub fn local(data_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir,
            queue_cap: 64,
            topic_cap: 256,
            caps: EngineCaps::default(),
            pool: PoolConfig::default(),
        }
    }
}

struct Shared {
    manager: Arc<Manager>,
    stop: AtomicBool,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running episerve instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    worlds: Arc<WorldCache>,
    accept: Option<JoinHandle<()>>,
    pool: Option<Pool>,
}

impl Server {
    /// Bind, spawn the pool and the accept loop, and return immediately.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let manager = Manager::new(cfg.data_dir.clone(), cfg.queue_cap, cfg.topic_cap, cfg.caps)?;
        let worlds = Arc::new(WorldCache::new(WORLD_CACHE_BUDGET));
        let pool = pool::spawn(Arc::clone(&manager), Arc::clone(&worlds), cfg.pool);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            manager,
            stop: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("episerve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            addr,
            shared,
            worlds,
            accept: Some(accept),
            pool: Some(pool),
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct handle on the manager (tests inspect job state with it).
    pub fn manager(&self) -> Arc<Manager> {
        Arc::clone(&self.shared.manager)
    }

    /// The world cache's hits, misses, evictions and occupancy so far.
    pub fn world_cache_stats(&self) -> WorldCacheStats {
        self.worlds.stats()
    }

    /// Begin shutdown: stop accepting, cancel queued jobs, arm
    /// cooperative stops on running ones. Idempotent; `join` completes
    /// once everything drains.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }

    /// Block until the accept loop, worker pool, and every connection
    /// handler have exited. Call [`Server::shutdown`] first (or submit a
    /// [`Request::Shutdown`] over the wire).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        loop {
            let Some(h) = pop_handler(&self.shared) else {
                break;
            };
            let _ = h.join();
        }
    }
}

fn pop_handler(shared: &Shared) -> Option<JoinHandle<()>> {
    match shared.handlers.lock() {
        Ok(mut v) => v.pop(),
        Err(poison) => poison.into_inner().pop(),
    }
}

fn initiate_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.stop.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.manager.shutdown();
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let addr = listener.local_addr().ok();
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("episerve-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &conn_shared, addr);
            });
        if let Ok(handle) = handle {
            let mut live = shared
                .handlers
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            // Join the connections that have ended: an exited thread keeps
            // its stack until it is joined, so waiting for `Server::join`
            // would cost a long-lived server ~15 KB per connection served.
            let mut i = 0;
            while i < live.len() {
                if live[i].is_finished() {
                    let _ = live.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            live.push(handle);
        }
    }
}

/// Read one REQUEST frame, tolerating read-timeout ticks. `Ok(None)`
/// means clean EOF or shutdown.
fn next_request(stream: &mut TcpStream, shared: &Shared) -> io::Result<Option<Request>> {
    loop {
        match read_frame(stream) {
            Ok((kind::REQUEST, payload, _)) => {
                return match decode_request(&payload) {
                    Ok(req) => Ok(Some(req)),
                    Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
                };
            }
            Ok((other, _, _)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {other}"),
                ));
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    if shared.stop.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                }
                io::ErrorKind::UnexpectedEof => return Ok(None),
                _ => return Err(e),
            },
        }
    }
}

fn respond(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    write_frame(stream, kind::RESPONSE, &encode_response(resp)).map(|_| ())
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    self_addr: Option<SocketAddr>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;

    // Handshake first.
    match next_request(&mut stream, shared)? {
        Some(Request::Hello { magic, version }) if magic == MAGIC && version == VERSION => {
            respond(&mut stream, &Response::HelloOk { version: VERSION })?;
        }
        Some(_) => {
            respond(
                &mut stream,
                &Response::Error {
                    code: errcode::BAD_PROTO,
                    message: format!("first request must be Hello({MAGIC:#x}, v{VERSION})"),
                },
            )?;
            return Ok(());
        }
        None => return Ok(()),
    }

    while let Some(req) = next_request(&mut stream, shared)? {
        match req {
            Request::Hello { .. } => {
                respond(
                    &mut stream,
                    &Response::Error {
                        code: errcode::BAD_PROTO,
                        message: "duplicate Hello".to_string(),
                    },
                )?;
            }
            Request::Submit { spec } => {
                let resp = match shared.manager.submit(spec) {
                    Ok(job) => Response::Submitted { job },
                    Err(SubmitError::Invalid(message)) => Response::Error {
                        code: errcode::BAD_SPEC,
                        message,
                    },
                    Err(SubmitError::QueueFull) => Response::Error {
                        code: errcode::QUEUE_FULL,
                        message: "scheduler queue is full".to_string(),
                    },
                    Err(SubmitError::ShuttingDown) => Response::Error {
                        code: errcode::SHUTTING_DOWN,
                        message: "server is shutting down".to_string(),
                    },
                };
                respond(&mut stream, &resp)?;
            }
            Request::Pause { job } => {
                respond(
                    &mut stream,
                    &lifecycle_response(job, shared.manager.pause(job)),
                )?;
            }
            Request::Resume { job } => {
                respond(
                    &mut stream,
                    &lifecycle_response(job, shared.manager.resume(job)),
                )?;
            }
            Request::Cancel { job } => {
                respond(
                    &mut stream,
                    &lifecycle_response(job, shared.manager.cancel(job)),
                )?;
            }
            Request::Status { job } => {
                let resp = match shared.manager.status(job) {
                    Some((state, days_done)) => Response::JobStatus {
                        job,
                        state,
                        days_done,
                    },
                    None => Response::Error {
                        code: errcode::NO_SUCH_JOB,
                        message: format!("no job {job}"),
                    },
                };
                respond(&mut stream, &resp)?;
            }
            Request::List => {
                respond(
                    &mut stream,
                    &Response::Jobs {
                        jobs: shared.manager.list(),
                    },
                )?;
            }
            Request::Subscribe { job } => {
                match shared.manager.subscribe(job) {
                    Some(mut sub) => {
                        let state = shared
                            .manager
                            .status(job)
                            .map_or(crate::job::JobState::Queued, |(s, _)| s);
                        respond(&mut stream, &Response::Ack { job, state })?;
                        // Stream until the terminal event (or shutdown /
                        // client disconnect).
                        loop {
                            match sub.recv_timeout(STREAM_TICK) {
                                Some(ev) => {
                                    let terminal = ev.is_terminal();
                                    write_frame(&mut stream, kind::EVENT, &encode_event(&ev))?;
                                    if terminal {
                                        break;
                                    }
                                }
                                None => {
                                    if shared.stop.load(Ordering::Acquire) {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        respond(
                            &mut stream,
                            &Response::Error {
                                code: errcode::NO_SUCH_JOB,
                                message: format!("no job {job}"),
                            },
                        )?;
                    }
                }
                // A subscription consumes the connection.
                return Ok(());
            }
            Request::Shutdown => {
                respond(&mut stream, &Response::Bye)?;
                if let Some(addr) = self_addr {
                    initiate_shutdown(shared, addr);
                }
                return Ok(());
            }
        }
    }
    Ok(())
}

fn lifecycle_response(job: u64, result: Result<crate::job::JobState, LifecycleError>) -> Response {
    match result {
        Ok(state) => Response::Ack { job, state },
        Err(LifecycleError::NoSuchJob) => Response::Error {
            code: errcode::NO_SUCH_JOB,
            message: format!("no job {job}"),
        },
        Err(LifecycleError::BadTransition { state }) => Response::Error {
            code: errcode::BAD_TRANSITION,
            message: format!("job {job} is {}", state.as_str()),
        },
        Err(LifecycleError::Unsupported(message)) => Response::Error {
            code: errcode::BAD_TRANSITION,
            message,
        },
        Err(LifecycleError::QueueFull) => Response::Error {
            code: errcode::QUEUE_FULL,
            message: "scheduler queue is full".to_string(),
        },
        Err(LifecycleError::ShuttingDown) => Response::Error {
            code: errcode::SHUTTING_DOWN,
            message: "server is shutting down".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_handlers(server: &Server) -> usize {
        server.shared.handlers.lock().expect("handlers lock").len()
    }

    /// A server that has served many short connections holds the threads
    /// of the open ones only, not one exited thread per connection served.
    #[test]
    fn ended_connections_are_joined_as_new_ones_arrive() {
        let dir = std::env::temp_dir().join(format!("episerve-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig::local(dir.clone())).expect("server start");
        for _ in 0..32 {
            drop(TcpStream::connect(server.addr()).expect("connect"));
        }
        // Each handler ends at its client's EOF, a moment after the drop;
        // every further accept joins the ones that have. Without reaping
        // the count only ever grows, so a bounded wait decides.
        let mut settled = false;
        for _ in 0..500 {
            drop(TcpStream::connect(server.addr()).expect("connect"));
            std::thread::sleep(Duration::from_millis(10));
            if live_handlers(&server) <= 2 {
                settled = true;
                break;
            }
        }
        assert!(
            settled,
            "{} connection threads still held",
            live_handlers(&server)
        );
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
